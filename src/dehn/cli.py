"""Command-line front end.

Subcommands: compute (full invariant JSON per knot), graph (DOT or JSON of
the Dehn graph), check (the invariant/property suite), oracle (Alexander
polynomial only). Input is an inline PD string or a file with one knot per
line; lines starting with '#' and blank lines are skipped. Errors write a
machine-readable JSON object to stderr and nothing to stdout.

DEHN_LOG={error,info,debug} controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from .algebra import pmat_mul, poly_add
from .dehngraph import build_d1, build_d2, build_dehn_graph, export_dot, graph_to_json
from .diagram import build_diagram, parse_pd, wirtinger
from .errors import ConfigError, DehnError
from .invariants import (build_propagator, defect, defect_equal_mod_Z,
                         torsion, torsion_equal_up_to_units)
from .mscomplex import check_exactness
from .oracle import fox_alexander
from .pipeline import SCHEMA_VERSION, run_pipeline

log = logging.getLogger("dehn")


def _setup_logging() -> None:
    level = os.environ.get("DEHN_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        level=levels.get(level, logging.ERROR),
                        format="dehn: %(levelname)s: %(message)s")


def _read_inputs(args) -> List[str]:
    if (args.pd is None) == (args.file is None):
        raise ConfigError("exactly one of --pd and --file is required")
    if args.pd is not None:
        return [args.pd]
    try:
        # utf-8-sig drops a leading byte order mark.
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}") from None
    lines = []
    for line in raw_lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise ConfigError(f"no knots found in {args.file}")
    return lines


def _emit(args, payloads: List[dict], text_renderer) -> None:
    if args.format == "json":
        out = payloads[0] if args.pd is not None else payloads
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    else:
        for p in payloads:
            sys.stdout.write(text_renderer(p))


def _compute_one(task) -> dict:
    pd_text, outer_region, pivot_seed = task
    return run_pipeline(pd_text, outer_region, pivot_seed).to_json_dict()


def _worker_count(parallel: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for `tasks` knots: never more than requested, than
    there are knots, or than the machine has CPUs."""
    return min(parallel, tasks, cpus or 1)


def _map_tasks(fn, tasks, parallel: int):
    workers = _worker_count(parallel, len(tasks), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def cmd_compute(args) -> int:
    inputs = _read_inputs(args)
    log.info("computing invariants for %d knot(s)", len(inputs))
    tasks = [(text, args.outer_region, args.pivot_seed) for text in inputs]
    results = _map_tasks(_compute_one, tasks, args.parallel)

    def render(r: dict) -> str:
        checks = ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                           for k, v in r["checks"].items())
        return (f"pd {r['pd']}  crossings {r['crossings']}\n"
                f"  torsion    {r['torsion']['normalized']['display']}\n"
                f"  defect     {r['defect']['representative']['display']}  (mod Z)\n"
                f"  checks     {checks}\n")

    _emit(args, results, render)
    return 0 if all(all(r["checks"].values()) for r in results) else 1


def _graph_one(task):
    pd_text, outer_region, fmt = task
    diagram = build_diagram(parse_pd(pd_text), outer_region=outer_region)
    graph = build_dehn_graph(diagram, build_d1(diagram), build_d2(diagram))
    return export_dot(graph) if fmt == "dot" else graph_to_json(graph)


def cmd_graph(args) -> int:
    inputs = _read_inputs(args)
    tasks = [(text, args.outer_region, args.format) for text in inputs]
    outputs = _map_tasks(_graph_one, tasks, args.parallel)
    if args.format == "dot":
        sys.stdout.write("".join(outputs))
    else:
        out = outputs[0] if args.pd is not None else outputs
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def _check_one(task) -> dict:
    pd_text, outer_region, seeds = task
    run = run_pipeline(pd_text, outer_region)
    diagram, cx, rep = run.diagram, run.complex, run.rep
    checks = {}
    checks["faces"] = len(diagram.regions) == diagram.k + 2
    # d1 = d1_row / d1_den, so d1 * d2 = 0 iff d1_row * d2_rows = 0 over Z[t].
    checks["d1_d2_zero"] = not any(pmat_mul([cx.d1_row], cx.d2_rows)[0])
    sums_ok = True
    for c in diagram.crossings:
        # Each corner label maps to sign * t^e; the sum times t^-(least e).
        terms = [(label.sign, rep.exponent(label.word))
                 for label in (run.d1_labels[(c.id, pos)] for pos in range(4))]
        low = min(e for _, e in terms)
        total: List[int] = []
        for sign, e in terms:
            total = poly_add(total, [sign], shift=e - low)
        sums_ok = sums_ok and not total
    checks["corner_label_sums"] = sums_ok
    checks["d2_consistency"] = not run.d2_violations  # run_pipeline raised on any
    checks["exact"] = check_exactness(cx).exact
    checks["propagator"] = True  # identities are verified at construction
    checks["lescop"] = run.lescop_ok
    checks["milnor"] = run.milnor_ok
    seed_ok = True
    for seed in range(seeds):
        g = build_propagator(cx, pivot_seed=seed)
        tor_s = torsion(cx, g)
        d_s = defect(run.graph, cx, g, rep)
        seed_ok = (seed_ok
                   and torsion_equal_up_to_units(run.tor, tor_s)
                   and defect_equal_mod_Z(run.d, d_s))
    checks["seed_independence"] = seed_ok
    return {"pd": run.pd.to_text(), "passed": all(checks.values()), "checks": checks}


def cmd_check(args) -> int:
    if args.seeds < 0:
        raise ConfigError(f"--seeds must be at least 0, got {args.seeds}")
    inputs = _read_inputs(args)
    tasks = [(text, args.outer_region, args.seeds) for text in inputs]
    results = _map_tasks(_check_one, tasks, args.parallel)

    def render(r: dict) -> str:
        status = "PASS" if r["passed"] else "FAIL"
        detail = "" if r["passed"] else (
            "  failing: " + ", ".join(k for k, v in r["checks"].items() if not v))
        return f"{status} {r['pd']}{detail}\n"

    _emit(args, results, render)
    return 0 if all(r["passed"] for r in results) else 1


def _oracle_one(task) -> dict:
    pd_text, outer_region = task
    diagram = build_diagram(parse_pd(pd_text), outer_region=outer_region)
    alex = fox_alexander(wirtinger(diagram))
    return {
        "pd": diagram.pd.to_text(),
        "alexander": [str(c) for c in alex.poly.coeffs],
        "display": str(alex.poly),
    }


def cmd_oracle(args) -> int:
    inputs = _read_inputs(args)
    tasks = [(text, args.outer_region) for text in inputs]
    results = _map_tasks(_oracle_one, tasks, args.parallel)

    def render(r: dict) -> str:
        return f"{r['pd']}  alexander {r['display']}\n"

    _emit(args, results, render)
    return 0


def _add_common(parser: argparse.ArgumentParser, formats, default_format) -> None:
    parser.add_argument("--pd", help="inline PD code (bracket or X form)")
    parser.add_argument("--file", help="file with one PD code per line")
    parser.add_argument("--outer-region", type=int, default=None,
                        help="region id to treat as unbounded")
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes for multi-knot input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehn",
        description="Knot exterior invariants (torsion and abelian defect) "
                    "from PD codes, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full invariant computation")
    _add_common(p, ["json", "text"], "json")
    p.add_argument("--pivot-seed", type=int, default=None,
                   help="randomize the propagator coordinate choice")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("graph", help="export the Dehn graph")
    _add_common(p, ["dot", "json"], "dot")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("check", help="run the invariant/property suite")
    _add_common(p, ["json", "text"], "text")
    p.add_argument("--seeds", type=int, default=10,
                   help="number of propagator seeds for independence checks")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="Alexander polynomial via Fox calculus")
    _add_common(p, ["json", "text"], "json")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
        return args.fn(args)
    except DehnError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                             "exit_code": exc.exit_code},
                   "schema_version": SCHEMA_VERSION}
        sys.stderr.write(json.dumps(payload) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
