"""Command-line front end.

Subcommands: compute (full invariant JSON per knot), graph (DOT or JSON of
the Dehn graph), check (the invariant/property suite), oracle (Alexander
polynomial only), each declared by its sub-parser's per-knot function, task
fields, text renderer and pass rule. One driver, `_run`, reads an inline PD
string or a file with one knot per line ('#' lines and blank lines skipped),
maps that function over the knots (in worker processes under `--parallel`),
writes JSON, DOT or text in input order and returns the exit code. The
parser is built once per process. Errors, usage errors included, write one
JSON line to stderr and nothing to stdout; an error in a --file knot names
its line, and output that cannot be written is a `ConfigError`. `--help`
stays plain text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import invariants
from .dehngraph import build_d1, build_d2, build_dehn_graph, export_dot, graph_to_json
from .diagram import ASCII_WHITESPACE, build_diagram, parse_pd, wirtinger
from .errors import ConfigError, DehnError
from .mscomplex import check_exactness
from .oracle import fox_alexander
from .pipeline import SCHEMA_VERSION, compute_result, run_pipeline


def _read_inputs(args) -> List[Tuple[Optional[int], str]]:
    """(line, text) per knot: its physical line in --file, None for --pd."""
    if (args.pd is None) == (args.file is None):
        raise ConfigError("exactly one of --pd and --file is required")
    if args.pd is not None:
        return [(None, args.pd)]
    try:
        # utf-8-sig drops a leading byte order mark.
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}") from None
    lines = (raw.strip(ASCII_WHITESPACE) for raw in raw_lines)
    knots = [(n, line) for n, line in enumerate(lines, 1)
             if line and not line.startswith("#")]
    if not knots:
        raise ConfigError(f"no knots found in {args.file}")
    return knots


def _worker_count(parallel: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for `tasks` knots: never more than requested, than
    there are knots, or than `cpus`."""
    return min(parallel, tasks, cpus or 1)


def _available_cpus() -> Optional[int]:
    """The CPUs this process may run on, not the host's count where the
    platform can tell them apart; None when unknown."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13
        return os.process_cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _on_line(one, line: Optional[int], task):
    """one(task), a `DehnError` for the knot on line N of --file re-raised as
    its type with "line N: " before its message. Module-level: it pickles."""
    try:
        return one(task)
    except DehnError as exc:
        if line is None:
            raise
        raise type(exc)(f"line {line}: {exc}") from None


def _run(args) -> int:
    """Map the subcommand's per-knot function over the input knots and write
    the results in input order; exit code 0 if every result passes, else 1."""
    lines, texts = zip(*_read_inputs(args))
    tasks = [(text, *(getattr(args, name) for name in args.fields)) for text in texts]
    run = functools.partial(_on_line, args.one)
    workers = _worker_count(args.parallel, len(tasks), _available_cpus())
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which every
        # one-process run would otherwise load at start-up.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, lines, tasks))
    else:
        results = list(map(run, lines, tasks))
    if args.format == "json":
        out = results[0] if args.pd is not None else results
        text = json.dumps(out, indent=2) + "\n"
    else:
        text = "".join(map(args.render, results))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk
        # Point stdout at the null device: the flush at exit then writes what
        # is left of the buffer there rather than fail again.
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())  # ValueError: no descriptor
        raise ConfigError(f"cannot write output: {exc}") from None
    return 0 if all(map(args.passed, results)) else 1


def _compute_one(task) -> dict:
    pd_text, outer_region = task
    return compute_result(pd_text, outer_region)


def _compute_text(r: dict) -> str:
    checks = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in r["checks"].items())
    return (f"pd {r['pd']}  crossings {r['crossings']}\n"
            f"  torsion    {r['torsion']['normalized']['display']}\n"
            f"  defect     {r['defect']['representative']['display']}  (mod Z)\n"
            f"  checks     {checks}\n")


def _graph_one(task):
    pd_text, outer_region, fmt = task
    diagram = build_diagram(parse_pd(pd_text), outer_region=outer_region)
    graph = build_dehn_graph(diagram, build_d1(diagram), build_d2(diagram))
    return export_dot(graph) if fmt == "dot" else graph_to_json(graph)


def _check_one(task) -> dict:
    pd_text, outer_region = task
    run = run_pipeline(pd_text, outer_region)
    diagram, cx, rep = run.diagram, run.complex, run.rep
    exact = check_exactness(cx).exact  # run_pipeline required it, d1 * d2 = 0 included
    checks = {}
    checks["faces"] = len(diagram.regions) == diagram.k + 2
    checks["d1_d2_zero"] = exact
    sums_ok = True
    for labels in run.graph.d1:
        # Each corner label maps to sign * t^e, and the four at a crossing
        # sum to zero iff their signs cancel at every exponent e.
        signs: Dict[int, int] = {}
        for label in labels:
            e = rep.exponent(label.word)
            signs[e] = signs.get(e, 0) + label.sign
        sums_ok = sums_ok and not any(signs.values())
    checks["corner_label_sums"] = sums_ok
    checks["d2_consistency"] = True  # run_pipeline raised on any violation
    checks["exact"] = exact
    checks["propagator"] = True  # identities are verified at construction
    checks["lescop"] = run.lescop_ok
    checks["milnor"] = run.milnor_ok
    # Every coordinate with d1[s] != 0 selects a propagator, and each gives
    # the reported torsion and defect exactly (`dehn.invariants`).
    checks["seed_independence"] = invariants.coordinates_agree(run.propagator)
    return {"pd": run.pd.to_text(), "passed": all(checks.values()), "checks": checks}


def _check_text(r: dict) -> str:
    failing = ", ".join(k for k, v in r["checks"].items() if not v)
    return f"PASS {r['pd']}\n" if r["passed"] else f"FAIL {r['pd']}  failing: {failing}\n"


def _oracle_one(task) -> dict:
    pd_text, outer_region = task
    diagram = build_diagram(parse_pd(pd_text), outer_region=outer_region)
    alex = fox_alexander(wirtinger(diagram))
    return {
        "pd": diagram.pd.to_text(),
        "alexander": [str(c) for c in alex.coeffs],
        "display": str(alex.poly),
    }


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `ConfigError` (exit 6); exit 2 means a bad PD code."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser, formats, default_format) -> None:
    parser.add_argument("--pd", help="inline PD code (bracket or X form)")
    parser.add_argument("--file", help="file with one PD code per line")
    parser.add_argument("--outer-region", type=int, default=None,
                        help="region id to treat as unbounded")
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes for multi-knot input")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `dehn` parser, built on the first call and shared by later ones."""
    parser = _Parser(
        prog="dehn",
        description="Knot exterior invariants (torsion and abelian defect) "
                    "from PD codes, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full invariant computation")
    _add_common(p, ["json", "text"], "json")
    p.set_defaults(one=_compute_one, fields=("outer_region",),
                   render=_compute_text, passed=lambda r: all(r["checks"].values()))

    p = sub.add_parser("graph", help="export the Dehn graph")
    _add_common(p, ["dot", "json"], "dot")
    p.set_defaults(one=_graph_one, fields=("outer_region", "format"),
                   render=str, passed=lambda r: True)  # DOT text is written as is

    p = sub.add_parser("check", help="run the invariant/property suite")
    _add_common(p, ["json", "text"], "text")
    p.set_defaults(one=_check_one, fields=("outer_region",),
                   render=_check_text, passed=lambda r: r["passed"])

    p = sub.add_parser("oracle", help="Alexander polynomial via Fox calculus")
    _add_common(p, ["json", "text"], "json")
    p.set_defaults(one=_oracle_one, fields=("outer_region",),
                   render=lambda r: f"{r['pd']}  alexander {r['display']}\n",
                   passed=lambda r: True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
        return _run(args)
    except DehnError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                             "exit_code": exc.exit_code},
                   "schema_version": SCHEMA_VERSION}
        sys.stderr.write(json.dumps(payload) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
