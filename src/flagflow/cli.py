"""Command-line frontend: describe | flow | invariants | check.

JSON documents have top level {"input": ..., "result": ..., "version": ...}.
Exact rationals are serialized as "p/q" strings, never floats. A flow
trajectory can be written as CSV for plotting (12 significant digits per
cell) with an exact-value JSON sidecar next to it.

Exit codes: 0 success, 1 failed verification suite, 2 usage error or
closed or unwritable stdout, 3 domain rejection, 4 internal assertion failure.
An error message that stderr cannot take is dropped; the exit code stays.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetExceeded, DomainError, all_digits, brief, normal_float, plain
from .flow import bounds_report, class_at, diameter_bound, make_flow
from .parabolic import ParabolicFlag, build_flag, canonical_divisor, require_length
from .rootsys import build_root_system

# BoundsReport attributes under each flow sample's "bounds", in output order
BOUND_KEYS = (
    "R_lower", "R_upper", "ricci_norm_sq_lower", "ricci_norm_sq_upper",
    "vol_coeff_lower", "vol_coeff_upper", "within", "r_upper_attained", "rm_bound",
)
CSV_HEADER = ["t", "R", "ricci_norm_sq", "vol_coeff", "R_lower", "R_upper"]
DEFAULT_SAMPLES = 10
MAX_SAMPLES = 10_000
DEFAULT_T_MAX_FRACTION = "99/100"
# n times the bits of the class over its common denominator plus the bits of
# the time: the size of the P_beta(t) that every flow value is built from
MAX_INPUT_BITS = 1 << 17
# longer values carry more bits than the budget and are refused unparsed
MAX_RATIONAL_CHARS = MAX_INPUT_BITS
# the longest file name most file systems allow; a longer path is shown by its size
MAX_SHOWN_PATH = 255
# the decimal exponent that ends a rational in Fraction's grammar, sign dropped
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# the offending value where argparse's messages repeat one: a choice or a typed
# value (in repr), the arguments left unrecognized or an ambiguous option; left
# uncompiled, so that only a usage error pays for it
_ECHOED = (r"(?s)(invalid choice: |invalid \w+ value: |unrecognized arguments: "
           r"|ambiguous option: )(.*?)( \(choose from [^()]*\)| could match [-\w, ]*)?\Z")


class UsageError(Exception):
    """Malformed or contradictory request; the CLI exits 2."""


def _warn(text: str) -> None:
    """Write a message to stderr. A failed write is dropped, so that the exit code
    still says what went wrong; stderr is then pointed at devnull, so that the
    flush at interpreter exit cannot fail a second time."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def parse_rational(text) -> Fraction:
    """A rational of any length; read_descriptor has refused the over-long ones."""
    try:
        with all_digits():
            return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {brief(text)!r}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse without its guard on writes: a failed write or flush of
    --help or --version raises, so main sees a closed stdout, and messages
    to stderr go through _warn. An offending value that an error message
    repeats is shown through brief()."""

    def error(self, message):
        super().error(re.sub(_ECHOED, lambda m: m[1] + brief(m[2]) + (m[3] or ""), message))

    def _print_message(self, message, file=None):
        if file is None or file is sys.stderr:
            _warn(message)
        else:
            file.write(message)
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagflow",
        description="Exact Kahler-Ricci flow and divisor invariants "
                    "on rational homogeneous varieties.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_descriptor(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", dest="lie_family", choices=list("ABCDEFG"),
                       help="simple Lie family")
        p.add_argument("--rank", help="rank of the Lie family (an integer)")
        p.add_argument("--theta", default=None,
                       help="comma-separated 1-based simple-root indices "
                            "(default: empty, the Borel case)")
        p.add_argument("--job", metavar="FILE",
                       help="JSON file carrying the descriptor fields instead of flags")

    def add_output(p: argparse.ArgumentParser, formats=("json",)) -> None:
        p.add_argument("--format", choices=list(formats), default="json")
        p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("describe", help="flag-variety data for (type, rank, theta)")
    add_descriptor(p)
    add_output(p)

    p = sub.add_parser("flow", help="flow trajectory, curvature and bounds")
    add_descriptor(p)
    p.add_argument("--class", dest="class",
                   help="comma-separated rationals: initial Kahler class")
    p.add_argument("--divisor",
                   help="comma-separated rationals: start at the divisor class b = d")
    p.add_argument("--t", help="single evaluation time (rational)")
    p.add_argument("--samples",
                   help=f"trajectory sample count (default {DEFAULT_SAMPLES})")
    p.add_argument("--t-max-fraction", dest="t_max_fraction",
                   help=f"sample up to this fraction of T (default {DEFAULT_T_MAX_FRACTION})")
    add_output(p, formats=("json", "csv"))

    p = sub.add_parser("invariants", help="nef value, degree, section counts, bounds")
    add_descriptor(p)
    p.add_argument("--divisor", help="comma-separated rationals: ample divisor class")
    p.add_argument("--lct-m", dest="lct_m", type=int,
                   help="report the log canonical threshold bound for m*D")
    add_output(p)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    return parser


def _integer(name: str, value) -> int:
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise UsageError(f"{name} must be an integer, got {brief(repr(value))}")


def _items(name: str, value) -> list:
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    if isinstance(value, list):
        return value
    raise UsageError(
        f"{name} must be a list or a comma-separated string, got {brief(repr(value))}")


def _indices(name: str, value) -> list[int]:
    out = [_integer(name, v) for v in _items(name, value)]
    if len(set(out)) < len(out):
        raise UsageError(f"{name} lists an index twice: {brief(repr(value))}")
    return out


def _rational(name: str, value) -> str | int:
    if isinstance(value, str) or type(value) is int:
        return value
    raise UsageError(
        f"{name} must be a rational (a string or an integer), got {brief(repr(value))}")


def _rationals(name: str, value) -> list:
    return [_rational(name, v) for v in _items(name, value)]


# typed fields in the "input" echo's order; rationals are parsed once, when priced
READERS = {
    "rank": _integer,
    "theta": _indices,
    "class": _rationals,
    "divisor": _rationals,
    "t": _rational,
    "samples": _integer,
    "t_max_fraction": _rational,
}
DESCRIPTOR_KEYS = ("lie_family", *READERS)


def _json_int(text: str) -> int | str:
    """A JSON integer; past Python's digit limit it stays text, read as its string form."""
    try:
        return int(text)
    except ValueError:
        return text


def _shown_path(path: str) -> str:
    return path if len(path) <= MAX_SHOWN_PATH and path.isprintable() else brief(path)


def _read_job(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename = _shown_path(path)  # str(exc) repeats it
        raise UsageError(f"cannot read job file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"job file must hold a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(DESCRIPTOR_KEYS))
    if unknown:
        more = f" and {len(unknown) - 3} more" if len(unknown) > 3 else ""
        raise UsageError(f"unknown job fields: {[brief(name) for name in unknown[:3]]}{more}")
    return {key: value for key, value in data.items() if value is not None}


def _common_bits(values: tuple[Fraction, ...]) -> int:
    """Bit length of the integers that carry the values over one common denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return max(den.bit_length(),
               *(abs(x.numerator * (den // x.denominator)).bit_length() for x in values))


def _written_length(text: str) -> int:
    """len(text) with its decimal exponent written out, as Fraction does. Only the
    exponent's first digits are read, one more than MAX_RATIONAL_CHARS has."""
    exp = _EXPONENT.search(text)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    return len(text) + int(digits[:len(str(MAX_RATIONAL_CHARS)) + 1] or 0)


def _parsed(key: str, values: list) -> tuple[Fraction, ...]:
    """A field's rationals; a value too long to carry fewer bits than the budget is
    refused unparsed."""
    for text in map(str, values):
        length = _written_length(text)
        if length > MAX_RATIONAL_CHARS:
            written = " once its decimal exponent is written out" * (length > len(text))
            raise BudgetExceeded(
                f"--{key.replace('_', '-')}: a value of {len(text)} characters "
                f"is over the budget of {MAX_RATIONAL_CHARS}{written}")
    return tuple(parse_rational(x) for x in values)


def read_descriptor(args) -> tuple[dict, ParabolicFlag, tuple | None, Fraction | None,
                                   int | None]:
    """The one validation point: flags or a --job object to (checked descriptor, flag
    variety, exact class or divisor, exact time or t-max-fraction, sample count), None
    where unused.

    Both sources are read alike: list fields take a list or a comma-separated
    string, integer fields an integer or its decimal string, rational fields
    (and list elements) a string or an integer. Rationals are kept as given,
    so the "input" echo shows them verbatim, and each is parsed once. It also
    prices the request: a class of the wrong length, or whose P_beta(t) would be
    too large, for one time or summed over the samples, is refused before any flow
    arithmetic.
    """
    given = {key: getattr(args, key, None) for key in DESCRIPTOR_KEYS}
    given = {key: value for key, value in given.items() if value is not None}
    if args.job:
        if given:
            raise UsageError("--job cannot be combined with descriptor flags")
        desc = _read_job(args.job)
        desc.setdefault("theta", [])
    else:
        desc = {"lie_family": None, "rank": None, "theta": [], **given}
    if not isinstance(desc.get("lie_family"), str) or desc.get("rank") is None:
        raise UsageError("--type and --rank are required "
                         "(in a job file: lie_family, a string, and rank)")
    for key, read in READERS.items():
        if key in desc:
            desc[key] = read(key, desc[key])

    if args.command == "flow":
        if ("class" in desc) == ("divisor" in desc):
            raise UsageError("provide exactly one of --class or --divisor")
        if "t" in desc and {"samples", "t_max_fraction"} & desc.keys():
            raise UsageError("--t excludes --samples and --t-max-fraction")
        if desc.get("samples", 1) < 1:
            raise UsageError("--samples must be at least 1")
        if desc.get("samples", 1) > MAX_SAMPLES:
            raise BudgetExceeded(
                f"--samples {brief(desc['samples'])} is over the budget of {MAX_SAMPLES}")
        if args.format == "csv" and not args.output:
            raise UsageError("--format csv requires --output "
                             "(the exact-value sidecar is written next to it)")
    if args.command == "invariants" and "divisor" not in desc:
        raise UsageError("invariants requires --divisor")
    flag = build_flag(build_root_system(desc["lie_family"], desc["rank"]), desc["theta"])
    if args.command not in ("flow", "invariants"):
        return desc, flag, None, None, None
    key = "divisor" if "divisor" in desc else "class"
    require_length(flag, desc[key])
    b = _parsed(key, desc[key])
    size, names, time, count = _common_bits(b), f"--{key}", None, None
    if args.command == "flow":
        key = "t" if "t" in desc else "t_max_fraction"
        [time] = _parsed(key, [desc.get(key, DEFAULT_T_MAX_FRACTION)])
        size += _common_bits((time,))
        names += f" and --{key.replace('_', '-')}"
        count = None if "t" in desc else desc.get("samples", DEFAULT_SAMPLES)
    if flag.n * size > MAX_INPUT_BITS:
        raise BudgetExceeded(
            f"{names}: n = {flag.n} times {size} bits is {flag.n * size} bits, "
            f"over the budget of {MAX_INPUT_BITS}")
    # a trajectory gets DEFAULT_SAMPLES samples at the per-time budget
    if count is not None and count * flag.n * size > DEFAULT_SAMPLES * MAX_INPUT_BITS:
        raise BudgetExceeded(
            f"--samples and {names}: {count} samples times n = {flag.n} times {size} "
            f"bits is {count * flag.n * size} bits, over the budget of "
            f"{DEFAULT_SAMPLES * MAX_INPUT_BITS}")
    if count is not None and not 0 < time < 1:
        raise DomainError(f"t-max-fraction must lie in (0,1), got {brief(time)}")
    return desc, flag, b, time, count


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {_shown_path(path)}: {exc.strerror}") from exc


def _decimal(name: str, x: Fraction) -> str:
    """x to 12 significant digits, refused past the normal float range at either end."""
    try:
        return format(normal_float(x), ".12g")
    except OverflowError:
        raise DomainError(f"CSV column {name} is out of float range") from None


def _csv_text(samples: list[dict]) -> str:
    """Rows as csv.writer writes them: plain .12g cells need no quoting."""
    rows = [CSV_HEADER]
    for s in samples:
        cells = {**s, **s["bounds"]}
        rows.append([_decimal(name, cells[name]) for name in CSV_HEADER])
    return "".join(",".join(row) + "\r\n" for row in rows)


def cmd_describe(flag) -> dict:
    rs = flag.rs
    return {
        "family": rs.family,
        "rank": rs.rank,
        "theta": flag.theta,
        "complement": flag.complement,
        "n": flag.n,
        "positive_roots": rs.positive_roots,
        "comp_pos_root_indices": flag.comp_pos_roots,
        "comp_pos_roots": [rs.positive_roots[i] for i in flag.comp_pos_roots],
        "delta_p": flag.delta_p,
        "fano": flag.fano,
        "canonical_divisor": canonical_divisor(flag),
        "v0_coeff": make_flow(flag, flag.fano).v0,
    }


def _flow_sample(fs, t: Fraction) -> dict:
    rep = bounds_report(fs, t)
    return {
        "t": t,
        "class": class_at(fs, t),
        "R": rep.R,
        "ricci_norm_sq": rep.ricci_norm_sq,
        "vol_coeff": rep.vol_coeff,
        "lambda1_lower": rep.lambda1_lower,
        "lambda1_upper": rep.lambda1_upper,
        "bounds": {key: getattr(rep, key) for key in BOUND_KEYS},
    }


def cmd_flow(flag, b: tuple[Fraction, ...], time: Fraction, count: int | None) -> dict:
    """The flow from b at `time`, or, given a count, at count times from 0 to time * T."""
    fs = make_flow(flag, b)
    times = [time] if count is None else [
        fs.T * time * j / max(count - 1, 1) for j in range(count)]
    try:
        diam_value, diam_radicand = diameter_bound(fs)
    except OverflowError:
        raise DomainError("diameter_upper is out of float range") from None
    result = {
        "family": flag.rs.family,
        "rank": flag.rs.rank,
        "theta": flag.theta,
        "n": flag.n,
        "T": fs.T,
        "einstein": fs.einstein,
        "ricci_lower_constant": fs.C,
        "ricci_lower_bound": 1 / fs.C,
        "diameter_upper": {"radicand": diam_radicand, "value": diam_value},
        "samples": [_flow_sample(fs, t) for t in times],
    }
    if fs.einstein:
        result["R_times_T_minus_t"] = Fraction(flag.n)
    return result


def cmd_invariants(flag, d: tuple[Fraction, ...], lct_m: int | None) -> dict:
    from .invariants import invariants_of, lct_lower  # only this command needs it
    rep = invariants_of(flag, d)
    result = {
        "tau": rep.tau,
        "T": rep.T_script,
        "C": rep.C_script,
        "degree": rep.degree,
        "dimV": rep.dimV,
        "lambda1_lower": rep.lambda1_lower,
        "lambda1_upper": rep.lambda1_upper,
    }
    if rep.borel is not None:
        result["borel_only_bounds"] = rep.borel._asdict()
    if lct_m is not None:
        result["lct"] = {"m": lct_m, **lct_lower(flag, d, lct_m)._asdict()}
    return result


def _dispatch(args) -> int:
    """Run the command; write its one document, {"input", "result", "version"}."""
    code, output = 0, args.output
    if args.command == "check":
        from .oracle import SuiteConfig, run_suite  # only check loads the suite
        report = run_suite(SuiteConfig(seed=args.seed))
        desc, result = {"seed": args.seed}, report.as_dict()
        code = 0 if report.exact_ok else 1
    else:
        desc, flag, b, time, count = read_descriptor(args)
        if args.command == "describe":
            result = cmd_describe(flag)
        elif args.command == "flow":
            result = cmd_flow(flag, b, time, count)
        else:
            result = cmd_invariants(flag, b, args.lct_m)
    if args.format == "csv":
        _write(output, _csv_text(result["samples"]))
        output += ".json"
    with all_digits():
        text = json.dumps({"input": desc, "result": result, "version": __version__},
                          indent=2, default=plain)
    if output:
        _write(output, text + "\n")
    else:
        print(text, flush=True)  # a closed stdout then raises inside main
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return _dispatch(args)
        except UsageError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except DomainError as exc:
        _warn(f"error: {exc}\n")
        return 3
    except OSError as exc:
        # a job file or --output reports its own errors, so stdout failed: its
        # reader is gone (said by exit code alone) or a write failed. Point it at
        # devnull so that the flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _warn(f"error: cannot write stdout: {exc.strerror}\n")
        return 2
    except AssertionError as exc:
        _warn(f"internal assertion failed: {exc}\n")
        return 4


def console_entry() -> None:
    """The process entry of `flagflow` and `python -m flagflow.cli`.

    The objects made at start-up (modules, classes, the parser) live until
    exit. Frozen, the collector skips them, and interpreter exit neither walks
    nor tears them down; objects made by the request are still collected.
    Library imports and in-process calls of main() leave the collector as
    they found it.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
