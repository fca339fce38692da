"""The reachability census: every `def` in `src/dehn` is entered by a user
path, or is listed in UNREACHED with the reason it stays.

A fresh interpreter (this file, run as a script) imports `dehn` under
`sys.setprofile` and walks the user's paths: every subcommand in every
format, `--file` batches under `--parallel 1` and `2`, usage and error
inputs, and the README's library example. It prints the `def`s whose code
it entered. The test fails on a `def` that is neither entered nor listed,
and on a listed name that is entered or no longer exists; its message is
the whole table of unreached names with their reasons. The script imports
only the standard library and `dehn`, so any interpreter can run it:
`python tests/test_census.py < calls.json`, the calls as `user_paths`
writes them.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dehn"

_CONTRACT = "value contract: "
_PERFBENCH = "kept while perfbench reads it: "
_PUBLIC = "public name: "

# Every `def` that no user path enters, and why it stays. The value contract
# is Python's to call; the perfbench names go once its tracer stops reading
# FieldMatrix and Propagator.g2; the public names are in README's table.
UNREACHED = {
    "_value.Value.__eq__": _CONTRACT + "==; no command compares two values",
    "_value.Value.__hash__": _CONTRACT + "hash; every value hashes, and no command hashes one",
    "_value.Value.__repr__": _CONTRACT + "repr, Name(field=value, ...); no command prints one",
    "_value.Value.__setattr__": _CONTRACT + "refuses assignment and deletion; no command tries",
    "_value.Value._values": _CONTRACT + "the field tuple that ==, hash and repr read",
    "algebra.FieldMatrix.__init__": _PERFBENCH + "Propagator.g2 is a FieldMatrix",
    "algebra.FieldMatrix.entry":
        _PUBLIC + "FieldMatrix's reader of one entry, in README's table; only the tests call it",
    "algebra.FieldMatrix.row": _PERFBENCH + "FieldMatrix's reader of one row",
    "algebra.FieldMatrix.__matmul__": _PERFBENCH + "its algebra.matmul metrics wrap it",
    "algebra.FieldMatrix.rref": _PERFBENCH + "its algebra.rref metrics wrap it",
    "algebra.FieldMatrix.det": _PERFBENCH + "its algebra.det metrics wrap it",
    "algebra.FieldMatrix.cleared_rows": _PERFBENCH + "FieldMatrix's product, rref and det call it",
    "algebra._nonzeros": _PERFBENCH + "only FieldMatrix.rref and det call it",
    "algebra.common_denominator":
        _PERFBENCH + "only FieldMatrix.__matmul__ and cleared_rows call it",
    "algebra.RatFunc.num": _PERFBENCH + "its invariants.g2_max_* metrics read G2's entries",
    "algebra.RatFunc.den": _PERFBENCH + "its invariants.g2_max_* metrics read G2's entries",
    "algebra.Polynomial.degree": _PERFBENCH + "invariants.g2_max_degree reads it",
    "diagram.KnotDiagram.over_out":
        _PUBLIC + "the outgoing over-strand, beside the other three strand methods in "
        "README's table; build_diagram reads its slot before the diagram exists",
    "invariants.Propagator.g2": _PERFBENCH + "its tracer reads G2 for the invariants.g2_* metrics",
    "invariants.Propagator.numer": _PERFBENCH + "N, which only Propagator.g2 reads",
    "invariants._exchanged": _PERFBENCH + "only Propagator.numer calls it",
    "invariants.torsion_equal_up_to_units": _PUBLIC + "a = +-t^m * b for two torsions",
    "mscomplex.Representation.trivial": _PUBLIC + "the trivial representation, not exact",
}


def defs() -> dict:
    """'module.Qualified.name' -> (file, first line) for every `def` in
    `src/dehn`; the first line is that of its first decorator, as in its
    code object's `co_firstlineno`."""
    out = {}

    def walk(node, path, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{qual}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                out[name] = (path.name, min(lines))
                walk(child, path, f"{name}.<locals>")
            else:
                walk(child, path, qual)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


def user_paths(tmp: Path) -> list:
    """[argv, exit code] per `dehn` call of the census, writing the batch
    files it reads into `tmp`."""
    # Imported here: the census script must import dehn only under its profiler.
    from conftest import (FIG8_KINKED, HOPF_LINK, NON_PLANAR, TAILLESS_EDGES,
                          TREFOIL, UNKNOT_KINK, torus_pd)
    good, bad, empty = tmp / "good.txt", tmp / "bad.txt", tmp / "empty.txt"
    good.write_text(f"# knots\n\n{TREFOIL}\n{FIG8_KINKED}\n", encoding="utf-8")
    bad.write_text(f"{TREFOIL}\nX(1,2\n", encoding="utf-8")
    empty.write_text("# none\n", encoding="utf-8")
    # T(2,27) has 27 arcs, so its Dehn graph names arcs past `z`.
    knots = [TREFOIL, FIG8_KINKED, UNKNOT_KINK, torus_pd(27), "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"]
    formats = {"compute": ("json", "text"), "graph": ("dot", "json"),
               "check": ("json", "text"), "oracle": ("json", "text")}
    calls = []
    for command, fmts in formats.items():
        for fmt in fmts:
            calls += [[[command, "--pd", k, "--format", fmt], 0] for k in knots]
            calls += [[[command, "--file", str(good), "--format", fmt, "--parallel", p], 0]
                      for p in ("1", "2")]
        calls += [[[command, "--pd", TREFOIL, "--outer-region", "1"], 0],
                  [[command, "--pd", TREFOIL, "--outer-region", "99"], 6],
                  [[command, "--file", str(bad)], 2],
                  [[command, "--file", str(bad), "--parallel", "2"], 2],
                  [[command, "--file", str(empty)], 6],
                  [[command, "--file", str(tmp / "missing.txt")], 6],
                  [[command, "--pd", TREFOIL, "--file", str(good)], 6],
                  [[command, "--pd", TREFOIL, "--parallel", "0"], 6],
                  [[command, "--pd", TREFOIL, "--format", "svg"], 6],
                  [[command, "--help"], 0]]
        for text, code in (("", 2), ("X(1,2", 2), ("[[1,4,2", 2), ("[[1,2,3]]", 2),
                           ("[[1,1,1,1]]", 2), ("[[1,4,2,5],[3,6,4,1],[5,2,6,9]]", 2),
                           (HOPF_LINK, 2), (NON_PLANAR, 3), (TAILLESS_EDGES[0], 2),
                           ("[" * 100_000, 2), ("[[" + "9" * 5000 + ",1,1,1]]", 2)):
            calls.append([[command, "--pd", text], code])
    calls += [[[], 6], [["--help"], 0], [["compute", "--pd", TREFOIL, "--bogus"], 6]]
    return calls


def entered(python: str, tmp: Path) -> set:
    """The names of `defs()` whose code the census entered, run in a fresh
    `python` on the calls of `user_paths(tmp)`."""
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([python, __file__], input=json.dumps(user_paths(tmp)),
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def report(names: set) -> str:
    """'' when `names` is exactly what UNREACHED allows; else the problems,
    then the whole table of unreached names with their reasons."""
    every = defs()
    unreached = set(every) - names
    problems = ([f"not entered and not listed: {n}" for n in sorted(unreached - set(UNREACHED))]
                + [f"listed but entered: {n}" for n in sorted(set(UNREACHED) & names)]
                + [f"listed but no longer a def: {n}" for n in sorted(set(UNREACHED) - set(every))])
    if not problems:
        return ""
    table = [f"  {n}  ({every[n][0]}:{every[n][1]}): {UNREACHED.get(n, 'NOT LISTED')}"
             for n in sorted(unreached)]
    return "\n".join(problems + [f"unreached ({len(unreached)}):"] + table)


def test_every_def_is_entered_or_listed(tmp_path):
    problems = report(entered(sys.executable, tmp_path))
    assert not problems, "\n" + problems


def _run_paths(calls) -> None:
    """Run the census calls and the README's library example, checking each
    call's exit code; output is discarded."""
    from dehn.cli import main
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, code in calls:
            try:
                got = main(argv)
            except SystemExit as exc:  # --help
                got = exc.code
            assert got == code, (argv, got, code)
        fence = "`" * 3
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        exec(readme.split(fence + "python\n", 1)[1].split(fence, 1)[0], {})


def _census(calls) -> list:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_paths(calls)
    finally:
        sys.setprofile(None)
    at = {(str(SRC / file), line): name for name, (file, line) in defs().items()}
    return sorted({at[key] for key in ((os.path.realpath(c.co_filename), c.co_firstlineno)
                                       for c in codes) if key in at})


if __name__ == "__main__":
    print(json.dumps(_census(json.load(sys.stdin))))
