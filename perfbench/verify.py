"""Independent checks of dehn's schema-v1 output.

Everything here is plain `fractions.Fraction` arithmetic on coefficient
lists; nothing is imported from dehn, so a fault shared by dehn's arithmetic
and its own checks cannot hide here. The expected values are the Alexander
polynomials of the knot tables (`families`), never dehn's own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Poly = List[Fraction]  # constant term first, no trailing zeros

CHECK_KEYS = ("faces", "d1_d2_zero", "corner_label_sums", "d2_consistency",
              "exact", "propagator", "lescop", "milnor", "seed_independence")
COMPUTE_CHECK_KEYS = ("exact", "propagator", "lescop", "milnor", "d2_consistency")


def _poly(coeffs: Sequence) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly(out)


def _strip_t(p: Poly) -> Poly:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _at(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def unit_multiple(p: Poly, q: Poly) -> bool:
    """p = +-t^m q for some integer m."""
    p, q = _strip_t(p), _strip_t(q)
    return bool(p) and (p == q or p == [-c for c in q])


def torsion_ok(num: Poly, den: Poly, alexander: Sequence[int]) -> bool:
    """torsion * (t - 1) = +-t^m Delta, cross-multiplied: num (t-1) = +-t^m Delta den."""
    return unit_multiple(_mul(num, _poly((-1, 1))), _mul(_poly(alexander), den))


def defect_ok(num: Poly, den: Poly, alexander: Sequence[int]) -> bool:
    """defect = t Delta'/Delta - t/(t-1) mod Z.

    The difference F of the two sides is a ratio of polynomials whose
    numerator, after subtracting c times the common denominator, has degree at
    most B. F equals the integer c everywhere iff it does at B + 1 points off
    its poles, so F is evaluated at B + 2 distinct rationals: the first gives
    c, which must be an integer, and the rest must all repeat it.
    """
    delta = _poly(alexander)
    d_delta = _poly(i * c for i, c in enumerate(delta))[1:] if len(delta) > 1 else []
    if not den or not delta:
        return False
    bound = max(len(num), len(den)) - 1 + (len(delta) - 1) + 1
    points = 0
    value: Optional[Fraction] = None
    j = 0
    while points < bound + 2:
        x = 2 + Fraction(1, j + 1)  # distinct points in (2, 3]
        j += 1
        dx, delta_x = _at(den, x), _at(delta, x)
        if dx == 0 or delta_x == 0:
            continue  # a pole of one side; try the next point
        f = _at(num, x) / dx - (x * _at(d_delta, x) / delta_x - x / (x - 1))
        if value is None:
            if f.denominator != 1:
                return False
            value = f
        elif f != value:
            return False
        points += 1
    return True


def _ratfunc(obj: dict) -> Tuple[Poly, Poly]:
    return _poly(obj["num"]), _poly(obj["den"])


def compute_result_errors(result: dict, pd: str, crossings: int,
                          alexander: Sequence[int]) -> List[str]:
    """Why a `compute` result is wrong; empty when it is right."""
    errors = []
    if result.get("schema_version") != 1:
        errors.append("schema_version is not 1")
    if result.get("pd") != pd:
        errors.append("pd is not echoed back")
    if result.get("crossings") != crossings:
        errors.append("crossing count differs")
    checks = result.get("checks", {})
    if tuple(checks) != COMPUTE_CHECK_KEYS or not all(v is True for v in checks.values()):
        errors.append(f"checks are not all true: {checks}")
    try:
        tor_num, tor_den = _ratfunc(result["torsion"]["normalized"])
        raw_num, raw_den = _ratfunc(result["torsion"]["raw"])
        def_num, def_den = _ratfunc(result["defect"]["representative"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return errors + [f"unreadable coefficients: {exc!r}"]
    if not torsion_ok(tor_num, tor_den, alexander):
        errors.append("normalized torsion * (t-1) is not +-t^m Delta")
    if not torsion_ok(raw_num, raw_den, alexander):
        errors.append("raw torsion * (t-1) is not +-t^m Delta")
    if not defect_ok(def_num, def_den, alexander):
        errors.append("defect is not t Delta'/Delta - t/(t-1) mod Z")
    return errors


def check_result_errors(result: dict, exit_code: int, pd: str) -> List[str]:
    """Why a `check --format json` result is wrong; empty when it is right."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if result.get("pd") != pd:
        errors.append("pd is not echoed back")
    checks = result.get("checks", {})
    if tuple(checks) != CHECK_KEYS or not all(v is True for v in checks.values()):
        errors.append(f"checks are not all true: {checks}")
    if result.get("passed") is not True:
        errors.append("passed is not true")
    return errors
