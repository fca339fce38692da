"""The library's design rules, one row of RULES each.

A rule names a removed path or a second way of doing one job, and fails
when it comes back into src/dehn. Its check is a regular expression, applied
line by line, or a predicate on the module's `ast`. Every row is tested
twice: the tree passes it, and its violation string fails it. Files are
read with pathlib, not git, so the rules hold outside a checkout too.

A new rule is a row here, not a CI step: the workflow holds no `git grep`
and no `ast.parse` (`test_the_workflow_holds_no_guard`), and its tier-1
step runs this module on every Python version. Nor does the workflow run
dehn itself (`test_the_workflow_runs_no_dehn_command`).
"""

import ast
import re
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dehn"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

Finding = Iterator[tuple[int, str]]


class Rule(NamedTuple):
    name: str
    glob: str  # the files scanned, under src/dehn
    check: Union[str, Callable[[ast.Module], Finding]]  # a regex or an ast predicate
    reason: str
    violation: str  # a source string that breaks the rule
    skip: Optional[str] = None  # the one file of `glob` not scanned


def _unused_imports(tree: ast.Module) -> Finding:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield node.lineno, f"{name} is imported and never used"


def _field_matrix_calls(tree: ast.Module) -> Finding:
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Propagator":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "g2":
                    allowed.update(map(id, ast.walk(fn)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "FieldMatrix":
                yield node.lineno, "FieldMatrix(...) outside algebra.py and Propagator.g2"


def _second_product_modes(tree: ast.Module) -> Finding:
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name in ("_derivative", "_coerce"):
            yield node.lineno, f"def {node.name}"
        if node.name == "is_diagonal_product" and (
                node.args.defaults or any(node.args.kw_defaults)):
            yield node.lineno, "is_diagonal_product has a default argument"


# The reasons of the rules that scan two sets of files, one row each.
_CERTIFICATE = (
    "The complex's scaled inverse X = delta0 * B0^-1 is certified once, where "
    "it is made, by one packed product test X * B0 = delta0 * I "
    "(`mscomplex._certify_inverse`, proved in DERIVATION.md §4 and §5), and every "
    "propagator is read off it by one path. Fails on a second check of the "
    "propagator or of the base one it rested on, or on a product test in "
    "invariants.py.")
_NO_JSON_READER = (
    "The library reads PD codes and writes schema-v1 values: no command reads "
    "JSON or writes the diagram or the complex as JSON, and the complex is held "
    "and checked over Z[t] alone. Fails on a JSON reader, a field reader for "
    "one, or a diagram or complex writer in src/dehn, or on RatFunc in "
    "mscomplex.py.")
_ONE_TRACE_PATH = (
    "Every propagator's defect is the paper's edge sum, regrouped over the pivot "
    "exchange that `Propagator.numer` builds N by, with one exact division per "
    "coordinate (`invariants._traces`, which the defect and `coordinates_agree` "
    "both read; DERIVATION.md §7.2); its sums T and u are views of the "
    "propagator, formed once on first read and shared by every coordinate. "
    "Fails on a per-complex trace term in src/dehn or on a polynomial division "
    "in invariants.py.")

RULES = [
    Rule("No unused imports in the library", "*.py", _unused_imports,
         "Every name a module of src/dehn imports must be read in that module; "
         "__init__.py is skipped, since its imports are the package's exports. "
         "Names read only in annotations count as read.",
         "import random\n", skip="__init__.py"),
    Rule("No Q(t) matrix in the library outside algebra.py and Propagator.g2", "*.py",
         _field_matrix_calls,
         "The value layer works over Z[t]; a FieldMatrix is built only by "
         "`Propagator.g2`, the G2 view the benchmark tracer reads. Fails on a call "
         "of FieldMatrix(...) anywhere else in src/dehn but algebra.py.",
         "class Propagator:\n    def numer(self):\n        return FieldMatrix(1, 1, [])\n",
         skip="algebra.py"),
    Rule("One forward elimination in the library", "**/*.py", r"gauss_jordan|forward=",
         "The kernel is Bareiss's forward elimination alone: the propagator, the "
         "exactness rank, the Fox minor and FieldMatrix.rref and det all read it, "
         "with a back substitution where they need an inverse. A Gauss-Jordan mode, "
         "or a `forward=` switch to choose one, lives on only as the tests' reference.",
         "pivots = fraction_free_elimination(rows, forward=False)"),
    Rule("One propagator certificate in the library", "**/*.py",
         r"_verify_identities|def _base", _CERTIFICATE,
         "def _base(cx):"),
    Rule("One propagator certificate in the library", "invariants.py",
         r"is_diagonal_product\(", _CERTIFICATE,
         "assert is_diagonal_product(rows, d2, [delta], width)"),
    Rule("One matrix-product test in the library", "*.py", _second_product_modes,
         "The certificate X * B0 = delta0 * I is the one packed product test, "
         "`is_diagonal_product` on packed rows, whose caller names the width; "
         "identities of coefficient lists, d1 * d2 = 0 and check's comparisons, go "
         "through `algebra._products_cancel`. theta = t * d/dt is one helper "
         "(`algebra._euler`), and `_coefficients` the one rational-coefficient "
         "coercion. Fails on a default argument of `is_diagonal_product`, which "
         "would bring back a second mode, or on a `def _derivative` or "
         "`def _coerce` in src/dehn.",
         "def is_diagonal_product(rows, m, delta, width=64):\n    pass\n"),
    Rule("The complex packs nothing itself", "mscomplex.py", r"\b_pack\b",
         "The complex holds d1 and d2 as coefficient lists and tests d1 * d2 = 0 "
         "on them (`algebra._products_cancel`), at a width read off its own terms; "
         "the only packed values it reads are the elimination's. Fails on a use "
         "of `_pack` in mscomplex.py.",
         "row = _pack(d1[0], width)"),
    Rule("The complex holds d2 by its nonzeros", "**/*.py", r"\bd2_rows\b|\b_b0\b",
         "A crossing has four corners, so a column of d2 has at most four nonzero "
         "entries: the complex holds d2 as one column of (row, entry) pairs per "
         "crossing (`ChainComplex.d2_cols`), and its readers, the elimination's "
         "input and widths, the certificate, d1 * d2 = 0 and the trace, walk those "
         "columns, so the work per knot grows with the crossings. Fails on a dense "
         "d2 field or reader, `d2_rows`, or a dense B0, `_b0`, in src/dehn.",
         "    for i, row in enumerate(cx.d2_rows):"),
    Rule("No JSON reader in the library, and no Q(t) in the complex", "**/*.py",
         r"from_json|_json_fields|diagram_to_json|complex_to_json", _NO_JSON_READER,
         "def graph_from_json(data):"),
    Rule("No JSON reader in the library, and no Q(t) in the complex", "mscomplex.py",
         r"\bRatFunc\b", _NO_JSON_READER,
         "entry = RatFunc(num, den)"),
    Rule("One encoding of a vertex's Morse index", "**/*.py",
         r"class Vertex\b|\.vertices\b|\.kind\b|_DOT_SHAPES",
         "A Dehn graph holds its crossing (index 2) and region (index 1) vertex ids "
         "in one group each, its one index-0 vertex is always the basepoint "
         "\"inf\", and a vertex's kind name and DOT shape are read off its index "
         "in one table. Fails on a vertex class, a vertex list, a kind field or a "
         "shape table in src/dehn.",
         "for v in graph.vertices:"),
    Rule("One encoding of a crossing and a region", "**/*.py",
         r"class (Crossing|Region)\b|\bc[12]_basis\b",
         "A diagram holds each fact once, by position: crossing c is its edge "
         "labels `pd.crossings[c]` and its over-in slot `over_in_pos[c]`, read "
         "through the strand methods and `sign(c)` of `KnotDiagram`, and region r "
         "is its corners `regions[r]`. The complex's dimensions are the lengths of "
         "`d2_cols` and `d1_row`, and the vertex ids live in `DehnGraph` alone. "
         "Fails on a crossing or region class, or on a basis of vertex ids, in "
         "src/dehn.",
         "class Crossing(Value):\n    c2_basis: Tuple[str, ...]\n"),
    Rule("One trace path in the library", "**/*.py",
         r"base_trace|def weights|def functional", _ONE_TRACE_PATH,
         "t = cx.base_trace"),
    Rule("One trace path in the library", "invariants.py", r"_exact_quotient",
         _ONE_TRACE_PATH,
         "q = _exact_quotient(num, den)"),
    Rule("A propagator reads its complex", "invariants.py",
         r"^\s+(inverse|width|base|sign):|\b_traces\([^()]*,",
         "A propagator holds its complex, its coordinate and its delta, and reads "
         "X, the width, s0 and the sign off the complex; the torsion, the defect "
         "and `coordinates_agree` take the propagator alone, and the trace sums "
         "are its views, so that a `check` knot forms them once. Fails on a "
         "Propagator field that copies the elimination, or on a two-argument "
         "`_traces(`, in invariants.py.",
         "    inverse: List[List[int]]\n    num = _traces(cx, g)(s)\n"),
    Rule("check's comparisons live in the library", "cli.py",
         r"^from \.(algebra|invariants) import",
         "`check` reads each of its results off a library call: the comparison of "
         "every coordinate's torsion and defect is `invariants.coordinates_agree`, "
         "and the corner-label sums compare signs per exponent with no polynomial "
         "arithmetic. Fails on a name that cli.py imports from algebra.py or "
         "invariants.py.",
         "from .invariants import defect"),
    Rule("Propagators are plain values", "**/*.py", r"def propagators|def packed",
         "Every propagator is read off the complex's certified scaled inverse when "
         "it is asked for, and N has one view over Z[t] (`Propagator.numer`). Fails "
         "on a per-complex propagator store or a second, packed view of N in src/dehn.",
         "    def propagators(self):"),
    Rule("One way to select a propagator", "**/*.py",
         r"pivot_seed|pivot-seed|_candidate_order|import random",
         "A propagator is named by its coordinate alone (`propagator_at(cx, s)`; "
         "`build_propagator(cx)` is the one at s0). Every coordinate with d1[s] != 0 "
         "gives the same torsion and defect, so a seed that shuffles the choice "
         "changes no output. Fails on a pivot seed, a candidate order or a random "
         "draw in src/dehn.",
         "import random"),
    Rule("No Q(t) arithmetic in the library", "algebra.py",
         r"def (__neg__|__add__|__sub__|__mul__|__truediv__|__call__|derivative|zero|one)\b",
         "A RatFunc is a value: it is built, reduced, compared, printed and "
         "serialized, and the library computes over Z[t]. The field operations of "
         "Q(t) live on only as the tests' reference (tests/conftest.py). Fails on an "
         "arithmetic, call, derivative, zero or one method in algebra.py.",
         "    def __add__(self, other):"),
    Rule("One immutability idiom in the library", "**/*.py",
         r"__slots__|def __(set|del)attr__|object\.__setattr__",
         "Every immutable class of src/dehn derives from dehn._value.Value, which "
         "alone stores fields through object.__setattr__.",
         "    __slots__ = ('num', 'den')", skip="_value.py"),
    Rule("Values are built positionally", "_value.py", r"\*\*kwargs|\b_bind\b",
         "A value is built from all its fields, in order: `Value.__init__` takes "
         "one positional argument per field and checks only their count, with no "
         "keyword binding and no class-attribute default, and the hand-written "
         "constructors are positional-only. Fails on `**kwargs` or `_bind` in "
         "_value.py.",
         "    def __init__(self, *args, **kwargs):\n        args = self._bind(args, kwargs)\n"),
]
RULE_IDS = [f"{rule.name} ({rule.glob})" for rule in RULES]


def scanned(rule: Rule) -> list[Path]:
    """The files of src/dehn that `rule` reads."""
    return sorted(path for path in LIBRARY.glob(rule.glob) if path.name != rule.skip)


def violations(rule: Rule, filename: str, text: str) -> list[str]:
    """Every breach of `rule` in the source `text`, as 'filename:line: what'."""
    if isinstance(rule.check, str):
        found = ((n, line.strip()) for n, line in enumerate(text.splitlines(), 1)
                 if re.search(rule.check, line))
    else:
        found = rule.check(ast.parse(text))
    return [f"{filename}:{n}: {what}" for n, what in found]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_the_library_keeps_the_rule(rule):
    found = [line for path in scanned(rule)
             for line in violations(rule, path.relative_to(ROOT).as_posix(),
                                    path.read_text(encoding="utf-8"))]
    assert not found, "\n".join([f"{rule.name}: {rule.reason}", *found])


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_the_rule_fails_on_its_violation(rule):
    assert violations(rule, "violation.py", rule.violation)


def test_every_rule_scans_a_file():
    # A rule whose files were renamed or moved would pass while checking nothing.
    idle = [name for name, rule in zip(RULE_IDS, RULES)
            if not scanned(rule) or (rule.skip and not (LIBRARY / rule.skip).is_file())]
    assert not idle


def test_the_workflow_holds_no_guard():
    found = [f"{n}: {line.strip()}"
             for n, line in enumerate(WORKFLOW.read_text(encoding="utf-8").splitlines(), 1)
             if "git grep" in line or "ast.parse" in line]
    assert not found, "a design rule is a row of RULES, not a CI step:\n" + "\n".join(found)


def test_the_workflow_runs_no_dehn_command():
    # A check at scale is a row of tests/test_golden.py, not a CI step; src
    # goes on the path for tier-1's pytest alone.
    found = [f"{n}: {line.strip()}"
             for n, line in enumerate(WORKFLOW.read_text(encoding="utf-8").splitlines(), 1)
             if "dehn.cli" in line or ("PYTHONPATH=src" in line and "-m pytest" not in line)]
    assert not found, "a run of dehn is a tier-1 row, not a CI step:\n" + "\n".join(found)
