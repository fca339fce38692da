"""The dehn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds the knots of workload W from seed N (see `workloads`), drives dehn
from `src/` through its public API in this one process, checks every output
with `verify`, and prints a summary followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: knots_per_s, knot_s.p50, setup_s
(median of fresh interpreters) and peak_rss_mb (this process). --trace 1
times the same knots untraced and then traced (`spans`), reports the layer
metrics and writes the spans. Each run also writes a record with the input
fingerprint, the per-knot times, the Python version and the CPU count under
perfbench/out/. The exit code is 0 only when every output verified.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import families  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
TAIL_BEYOND = 10  # knots a tail percentile must leave above it


@dataclass
class KnotRun:
    label: str
    seconds: float  # at the reference speed, see speed.py
    wall: float
    errors: List[str]


Call = Callable[[workloads.Knot], object]
Check = Callable[[workloads.Knot, object], List[str]]


def measure(knots: List[workloads.Knot], call: Call, check: Check,
            tracer: Optional[spans.Tracer] = None) -> List[KnotRun]:
    """Time `call` on each knot in turn, closed loop, and check its output.

    A knot's time is its wall time less the speed samples taken inside it,
    rescaled by the median of those samples and one taken just before. A
    knot that raises or fails its check is a failure; the loop goes on.
    """
    runs = []
    with speed.Sampler() as sampler:
        for i, knot in enumerate(knots):
            gc.collect()
            if tracer is not None:
                tracer.current_knot = i
            before = speed.reference()
            first = len(sampler.samples)
            elapsed = None
            t0 = time.perf_counter()
            try:
                out = call(knot)
                elapsed = time.perf_counter() - t0
                during = sampler.samples[first:]
                errors = check(knot, out)
            except Exception as exc:  # one bad knot must not lose the others
                if elapsed is None:
                    elapsed = time.perf_counter() - t0
                    during = sampler.samples[first:]
                errors = [f"raised {type(exc).__name__}: {exc}"]
            wall = elapsed - sum(during)
            runs.append(KnotRun(knot.label, wall * speed.scale([before] + during), wall, errors))
    return runs


def workload_call(workload: str) -> Tuple[Call, Check]:
    """The public API call a workload makes per knot, and its check."""
    import dehn.cli
    import dehn.pipeline

    if workload == "check-seeds":
        def call(knot):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = dehn.cli.main(["check", "--pd", knot.pd, "--format", "json"])
            return code, out.getvalue()

        def check(knot, out):
            code, text = out
            try:
                result = json.loads(text)
            except json.JSONDecodeError as exc:
                return [f"exit code {code}, unreadable output: {exc}"]
            return verify.check_result_errors(result, code, knot.pd)
    else:
        def call(knot):
            return dehn.pipeline.compute_result(knot.pd)

        def check(knot, out):
            return verify.compute_result_errors(out, knot.pd, knot.crossings, knot.alexander)
    return call, check


def setup_seconds() -> Tuple[float, float]:
    """Median over fresh interpreters of import plus the first trefoil, at
    the reference speed and in wall seconds."""
    rescaled, walls = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-I", str(HERE / "probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout)
        rescaled.append(probe["wall"] * speed.scale(probe["reference"]))
        walls.append(probe["wall"])
    return statistics.median(rescaled), statistics.median(walls)


def tail(times: List[float]) -> Optional[Tuple[int, float]]:
    """Highest whole percentile (nearest rank) with at least ten knots above
    it; None below twenty knots."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    for q in range(99, 0, -1):
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return None


def end_to_end(runs: List[KnotRun]) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, float]]:
    """The end-to-end metrics, and the same figures in wall seconds."""
    verified = sum(1 for r in runs if not r.errors)
    setup, setup_wall = setup_seconds()
    metrics = {
        "knots_per_s": (verified / sum(r.seconds for r in runs), "knots/s"),
        "knot_s.p50": (statistics.median(r.seconds for r in runs), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "knots_per_s": verified / sum(r.wall for r in runs),
        "knot_s.p50": statistics.median(r.wall for r in runs),
        "setup_s": setup_wall,
    }
    return metrics, wall


def traced(knots, call, check) -> Tuple[List[KnotRun], Dict[str, Tuple[float, str]], spans.Tracer]:
    import dehn

    plain = measure(knots, call, check)
    tracer = spans.Tracer()
    tracer.install(dehn)
    try:
        runs = measure(knots, call, check, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(len(knots), [r.seconds / r.wall for r in runs])
    plain_s, traced_s = sum(r.seconds for r in plain), sum(r.seconds for r in runs)
    metrics["trace.knot_s"] = (traced_s / len(runs), "s/knot")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
    return plain + runs, metrics, tracer


def import_dehn() -> Optional[str]:
    """Import dehn from this checkout's src/; the reason if that fails."""
    if not (SRC / "dehn" / "__init__.py").is_file():
        return f"no dehn sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import dehn
    if Path(dehn.__file__).resolve().parent != SRC / "dehn":
        return f"imported dehn from {dehn.__file__}, not from {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = import_dehn()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    knots = workloads.inputs(args.workload, args.seed, rounds)
    call, check = workload_call(args.workload)
    warm = workloads.Knot("warm-up", families.to_text(families.CORPUS["3_1"]),
                          families.ALEXANDER["3_1"])
    measure([warm], call, check)  # lazy set-up and caches, not timed

    tracer, wall = None, {}
    if args.trace:
        runs, metrics, tracer = traced(knots, call, check)
    else:
        runs = measure(knots, call, check)
        metrics, wall = end_to_end(runs)
    failed = [r for r in runs if r.errors]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "knots": len(knots),
        "inputs_sha256": workloads.fingerprint(knots),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "tail": tail([r.seconds for r in runs]) if not args.trace else None,
        "failed_frac": len(failed) / len(runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall": wall,
        "runs": [{"label": r.label, "seconds": r.seconds, "wall": r.wall, "errors": r.errors}
                 for r in runs],
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(stem) + ".spans.json.gz")

    print(f"dehn benchmark: {args.workload}, seed {args.seed}, {len(knots)} knots in "
          f"{rounds} round(s), inputs {record['inputs_sha256']}, Python "
          f"{record['python']}, nproc {record['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, value in wall.items():
        print(f"  {'wall ' + name:32s} {value:.6g} (wall seconds, not rescaled)")
    if not args.trace:
        if record["tail"]:
            q, value = record["tail"]
            print(f"  {'knot_s.tail':32s} {value:.6g} s (p{q} of {len(runs)} knots)")
        else:
            print(f"  {'knot_s.tail':32s} not reported: {len(runs)} knots, fewer than 20")
    print(f"  {'failed_frac':32s} {record['failed_frac']:.6g} ({len(failed)} of {len(runs)})")
    for r in failed:
        print(f"  FAILED {r.label}: {'; '.join(r.errors)}")
    print(f"  record: {stem.relative_to(HERE.parent)}.json")
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
