"""Benchmark of the flagflow command line, end to end and layer by layer.

    python3 perfbench/run.py --workload cli-small --seed 1 --trace 0

Run it from the repository root; it runs the package under ./src and needs
nothing installed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat the
metrics as a table.

--trace 0 measures the end-to-end metrics. One client runs a closed loop:
it spawns `python -m flagflow.cli <argv>` for the next request of the
workload only after the previous process has exited. Requests come in
cycles over the workload's shapes (workloads.py); the run starts a new
cycle while its cycles have taken fewer than --seconds, and always
finishes the cycle, so every cycle holds the shapes in the same
proportions. setup_s is the median of fresh `import flagflow.cli`
processes timed after every cycle, so its samples span the run. Every response goes through the
independent checks in checks.py; a request fails on a nonzero exit,
unparsable JSON or a failed check.

--trace 1 measures the per-layer metrics. It replays one cycle of the
workload's requests in this process through flagflow.cli.main; each
request runs untraced and then with spans around the public functions of
each layer (spans.py). It also times fresh
interpreters with and without `import flagflow.cli`, and writes every span
and the cost counters of every request to perfbench/out/. --seconds does
not apply: the replay is fixed, so its counts repeat exactly for a seed.

--seconds defaults to run_seconds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import itertools
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CheckFailed, Checker
from spans import LAYERS, Tracer, summarize
from workloads import WORKLOADS, cycle_length, stream

OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_PER_CYCLE = 3
IMPORT_REPEATS = 11
REQUEST_TIMEOUT_S = 60
P90_MIN_SAMPLES = 100   # at least 10 samples beyond the 90th percentile

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "cpu_per_request_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

TIMED = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
PER_LAYER = {
    "process.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "rootsys.rank": "count",
    "rootsys.positive_roots": "count",
    "parabolic.n": "count",
    "request.input_bits": "bits",
    "request.output_bits": "bits",
    **{f"{name}.{kind}": unit for name in TIMED for kind, unit in (("calls", "count"), ("busy_s", "s"))},
    "flow.root_terms": "count",
    "flow.max_bits": "bits",
    "oracle.brute_nef.certified_ratio": "ratio",
    "oracle.instances": "count",
    **{f"{layer}.{kind}": "s" for layer in LAYERS for kind in ("busy_s", "self_s")},
    **{f"{layer}.errors": "count" for layer in ("cli", *LAYERS)},
    "trace.requests": "count",
    "trace.overhead_ratio": "ratio",
}


def program_env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def spawn(args: list[str], env: dict[str, str]) -> tuple[int, str, str, float]:
    """Run a process to its exit: (status, stdout, stderr, wall seconds).

    communicate() without a timeout blocks in select and waitpid; with a
    timeout, subprocess polls for the exit with sleeps of up to 50 ms, which
    would quantize every measured time. A timer kills a hung process instead.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return proc.returncode, out, err, time.perf_counter() - start


def time_process(code: str, env: dict[str, str]) -> float:
    status, _, err, seconds = spawn(["-c", code], env)
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}: {err.strip()}")
    return seconds


def run_end_to_end(workload: str, seed: int, seconds: float, src: Path) -> dict:
    env = program_env(src)
    time_process("import flagflow.cli", env)  # writes the bytecode caches
    checker = Checker()
    latencies: list[float] = []
    setup: list[float] = []
    failed = cycles = 0
    wall = cpu = 0.0
    requests = stream(workload, seed)
    while wall < seconds:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        for req in itertools.islice(requests, cycle_length(workload)):
            status, out, err, took = spawn(["-m", "flagflow.cli", *req.argv()], env)
            latencies.append(took)
            try:
                checker.verify(req, status, out)
            except CheckFailed as exc:
                failed += 1
                print(f"request {' '.join(req.argv())[:200]} failed: {exc}\n{err[-2000:]}",
                      file=sys.stderr)
        wall += time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        cycles += 1
        # between cycles, so that neither wall nor cpu counts these processes
        setup += [time_process("import flagflow.cli", env) for _ in range(SETUP_PER_CYCLE)]

    count = len(latencies)
    metrics = {
        "throughput_rps": (count - failed) / wall,
        "latency_p50_s": statistics.median(latencies),
        "cpu_per_request_s": cpu / count,
        # ru_maxrss is in KiB on Linux; the largest over all waited-for children
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "error_rate": (failed / count, "ratio"),
        "latency_samples": (count, "count"),
        "cycles": (cycles, "count"),
        "run_wall_s": (wall, "s"),
    }
    if count >= P90_MIN_SAMPLES:
        extra["latency_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    return {"correct": failed == 0, "attempted": count, "failed": failed,
            "metrics": metrics, "units": END_TO_END,
            "extra": extra, "exercised": checker.exercised}


def _output_bits(doc) -> int:
    """Widest integer in the result's exact values ("p/q" strings and ints)."""
    if isinstance(doc, dict):
        return max((_output_bits(v) for v in doc.values()), default=0)
    if isinstance(doc, list):
        return max((_output_bits(v) for v in doc), default=0)
    if isinstance(doc, int) and not isinstance(doc, bool):
        return abs(doc).bit_length()
    if isinstance(doc, str) and re.fullmatch(r"-?\d+(/\d+)?", doc):
        return max(abs(int(part)).bit_length() for part in doc.split("/"))
    return 0


def _call_main(cli, clear_cache, argv: list[str]) -> tuple[int, str, bool]:
    """cli.main(argv) as a fresh process would run it: cold root-system cache.

    Returns (exit status, stdout, whether an exception escaped main).
    """
    clear_cache()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), out.getvalue(), False
        except Exception:  # an uncaught exception ends a real process with status 1
            return 1, out.getvalue(), True


def run_traced(workload: str, seed: int, src: Path) -> dict:
    env = program_env(src)
    time_process("import flagflow.cli", env)
    starts, imports = [], []
    for _ in range(IMPORT_REPEATS):
        starts.append(time_process("pass", env))
        imports.append(time_process("import flagflow.cli", env))

    sys.path.insert(0, str(src))
    import flagflow.cli as cli
    import flagflow.rootsys as rootsys
    clear_cache = rootsys.build_root_system.cache_clear

    requests = list(itertools.islice(stream(workload, seed), cycle_length(workload)))
    tracer = Tracer()
    checker = Checker()
    records = []
    failed = 0
    untraced = traced = 0.0
    for rid, req in enumerate(requests):
        # the untraced call right before the traced one, so both see the same warm state
        t0 = time.perf_counter()
        _call_main(cli, clear_cache, req.argv())
        untraced += time.perf_counter() - t0
        tracer.request = rid
        t0 = time.perf_counter()
        with tracer.installed():
            span = tracer.open("cli.main", "cli")
            try:
                rc, out, raised = _call_main(cli, clear_cache, req.argv())
            finally:
                tracer.close(span)
        traced += time.perf_counter() - t0
        tracer.errors["cli"] += raised
        try:
            doc = checker.verify(req, rc, out)
        except CheckFailed as exc:
            failed += 1
            doc = None
            print(f"request {' '.join(req.argv())[:200]} failed: {exc}", file=sys.stderr)
        cost = tracer.costs[rid]
        records.append({
            "request": rid, "argv": req.argv(), "returncode": rc,
            "rank": cost["rank"], "positive_roots": cost["positive_roots"], "n": cost["n"],
            "input_bits": req.input_bits(),
            "output_bits": _output_bits(doc["result"]) if doc else 0,
            "output_bytes": len(out.encode()),
        })

    sums = summarize(tracer.spans)
    negative = [s for s in tracer.spans if s.self_s < -1e-9]
    brute_calls = sums.get("oracle.brute_nef.calls", 0)
    metrics = {name: sums.get(name, 0) for name in PER_LAYER}
    metrics.update({
        "process.python_start_s": statistics.median(starts),
        "cli.import_s": statistics.median(imports) - statistics.median(starts),
        "cli.main.self_s": sums["cli.self_s"],
        "cli.output_bytes": sum(r["output_bytes"] for r in records),
        "rootsys.rank": sum(r["rank"] for r in records),
        "rootsys.positive_roots": sum(r["positive_roots"] for r in records),
        "parabolic.n": sum(r["n"] for r in records),
        "request.input_bits": max(r["input_bits"] for r in records),
        "request.output_bits": max(r["output_bits"] for r in records),
        "flow.root_terms": tracer.flow_root_terms,
        "flow.max_bits": tracer.flow_max_bits,
        "oracle.brute_nef.certified_ratio":
            tracer.brute_nef_certified / brute_calls if brute_calls else 0.0,
        "oracle.instances": tracer.oracle_instances,
        **{f"{layer}.errors": tracer.errors[layer] for layer in ("cli", *LAYERS)},
        "trace.requests": len(requests),
        # wall time with the tracer's bookkeeping, which the spans leave out
        "trace.overhead_ratio": traced / untraced,
    })
    if negative:
        print(f"{len(negative)} spans with negative self time", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"kind": "request", **rec}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps({"kind": "span", "id": s.id, "name": s.name,
                                 "request": s.request, "parent": s.parent,
                                 "start": s.start, "end": s.end}) + "\n")
    return {"correct": failed == 0 and not negative, "attempted": len(requests),
            "failed": failed, "metrics": metrics, "units": PER_LAYER,
            "extra": {"spans_file": (os.path.relpath(path), "path")},
            "exercised": checker.exercised}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "flagflow" / "cli.py").is_file():
        print(f"no flagflow sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.trace:
        res = run_traced(args.workload, args.seed, src)
    else:
        res = run_end_to_end(args.workload, args.seed, args.seconds, src)

    for name, value in res["metrics"].items():
        print(f"{name:44s} {value:>16.6g} {res['units'][name]}")
    for name, (value, unit) in res["extra"].items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else f" {value}"
        print(f"{name:44s} {shown} {unit}")
    print("checks exercised: " + ", ".join(f"{k}={v}" for k, v in sorted(res["exercised"].items())))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
