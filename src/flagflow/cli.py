"""Command-line frontend: describe | flow | invariants | check.

JSON documents have top level {"input": ..., "result": ..., "version": ...}.
Exact rationals are serialized as "p/q" strings, never floats. A flow
trajectory can be written as CSV for plotting (12 significant digits per
cell) with an exact-value JSON sidecar next to it.

Exit codes: 0 success, 1 failed verification suite, 2 usage error or
closed stdout, 3 domain rejection, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .errors import DomainError
from .flow import (
    bounds_report,
    class_at,
    diameter_bound,
    make_flow,
    ricci_lower_constant,
)
from .invariants import invariants_of, lct_lower
from .oracle import SuiteConfig, run_suite
from .parabolic import build_flag, canonical_divisor
from .rootsys import build_root_system

# in the order the "input" echo lists them
DESCRIPTOR_KEYS = (
    "lie_family", "rank", "theta", "class", "divisor",
    "t", "samples", "t_max_fraction",
)
# BoundsReport attributes under each flow sample's "bounds", in output order
BOUND_KEYS = (
    "R_lower", "R_upper", "ricci_norm_sq_lower", "ricci_norm_sq_upper",
    "vol_coeff_lower", "vol_coeff_upper", "within", "r_upper_attained", "rm_bound",
)
CSV_HEADER = ["t", "R", "ricci_norm_sq", "vol_coeff", "R_lower", "R_upper"]
DEFAULT_SAMPLES = 10
DEFAULT_T_MAX_FRACTION = "99/100"


class UsageError(Exception):
    """Malformed or contradictory request; the CLI exits 2."""


def parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse without its guard on writes: a failed write or flush of
    --help or --version raises, so main sees a closed stdout."""

    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
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
    raise UsageError(f"{name} must be an integer, got {value!r}")


def _items(name: str, value) -> list:
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    if isinstance(value, list):
        return value
    raise UsageError(f"{name} must be a list or a comma-separated string, got {value!r}")


def _indices(name: str, value) -> list[int]:
    out = [_integer(name, v) for v in _items(name, value)]
    if len(set(out)) < len(out):
        raise UsageError(f"{name} lists an index twice: {value!r}")
    return out


# typed fields; t and t_max_fraction stay as given and are parsed where used
READERS = {
    "rank": _integer,
    "theta": _indices,
    "class": _items,
    "divisor": _items,
    "samples": _integer,
}


def _read_job(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read job file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"job file must hold a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(DESCRIPTOR_KEYS)
    if unknown:
        raise UsageError(f"unknown job fields: {sorted(unknown)}")
    return {key: value for key, value in data.items() if value is not None}


def read_descriptor(args) -> dict:
    """The one validation point: flags or a --job object to a checked descriptor.

    Both sources are read alike: list fields take a list or a comma-separated
    string, integer fields an integer or its decimal string. Rationals are
    kept as given, so the "input" echo shows them verbatim.
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
        if "t" in desc and "samples" in desc:
            raise UsageError("--t and --samples are mutually exclusive")
        if desc.get("samples", 1) < 1:
            raise UsageError("--samples must be at least 1")
        if args.format == "csv" and not args.output:
            raise UsageError("--format csv requires --output "
                             "(the exact-value sidecar is written next to it)")
    if args.command == "invariants" and "divisor" not in desc:
        raise UsageError("invariants requires --divisor")
    return desc


def _exact(value) -> str:
    """json.dumps hook: an exact rational becomes "p/q"."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(doc: dict, output: str | None) -> None:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values are printed in full, at any length
    try:
        text = json.dumps(doc, indent=2, default=_exact)
    finally:
        sys.set_int_max_str_digits(limit)
    if output:
        _write(output, text + "\n")
    else:
        print(text, flush=True)  # a closed stdout then raises inside main


def _decimal(name: str, x: Fraction) -> str:
    try:
        return format(float(x), ".12g")
    except OverflowError:
        raise DomainError(f"CSV column {name} is out of float range") from None


def _csv_text(samples: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for s in samples:
        cells = {**s, **s["bounds"]}
        writer.writerow([_decimal(name, cells[name]) for name in CSV_HEADER])
    return buf.getvalue()


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


def _flow_times(fs, desc: dict) -> list[Fraction]:
    if "t" in desc:
        return [parse_rational(desc["t"])]
    count = desc.get("samples", DEFAULT_SAMPLES)
    fraction = parse_rational(desc.get("t_max_fraction", DEFAULT_T_MAX_FRACTION))
    if not 0 < fraction < 1:
        raise DomainError(f"t-max-fraction must lie in (0,1), got {fraction}")
    return [fs.T * fraction * j / max(count - 1, 1) for j in range(count)]


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


def cmd_flow(flag, desc: dict) -> dict:
    b = tuple(parse_rational(s) for s in desc.get("class", desc.get("divisor")))
    fs = make_flow(flag, b)
    c_const = ricci_lower_constant(fs)
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
        "ricci_lower_constant": c_const,
        "ricci_lower_bound": 1 / c_const,
        "diameter_upper": {"radicand": diam_radicand, "value": diam_value},
        "samples": [_flow_sample(fs, t) for t in _flow_times(fs, desc)],
    }
    if fs.einstein:
        result["R_times_T_minus_t"] = str(flag.n)
    return result


def cmd_invariants(flag, desc: dict, lct_m: int | None) -> dict:
    d = tuple(parse_rational(s) for s in desc["divisor"])
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
        result["borel_only_bounds"] = asdict(rep.borel)
    if lct_m is not None:
        result["lct"] = {"m": lct_m, **asdict(lct_lower(flag, d, lct_m))}
    return result


def _dispatch(args) -> int:
    if args.command == "check":
        report = run_suite(SuiteConfig(seed=args.seed))
        doc = {"input": {"seed": args.seed}, "result": report.as_dict(),
               "version": __version__}
        _emit(doc, args.output)
        return 0 if report.exact_ok else 1

    desc = read_descriptor(args)
    flag = build_flag(build_root_system(desc["lie_family"], desc["rank"]), desc["theta"])
    if args.command == "describe":
        result = cmd_describe(flag)
    elif args.command == "flow":
        result = cmd_flow(flag, desc)
    else:
        result = cmd_invariants(flag, desc, args.lct_m)
    doc = {"input": desc, "result": result, "version": __version__}
    if args.format == "csv":
        _write(args.output, _csv_text(result["samples"]))
        _emit(doc, args.output + ".json")
    else:
        _emit(doc, args.output)
    return 0


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
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull so that the
        # flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
