"""Freely reduced words in arc generators.

A word is a tuple of (generator id, exponent) letters with exponent ±1,
stored freely reduced. The empty tuple is the identity.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]


def free_reduce(letters: Sequence[Letter]) -> Word:
    out: list = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError("letter exponents must be +1 or -1")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def word_mul(a: Sequence[Letter], b: Sequence[Letter]) -> Word:
    return free_reduce(tuple(a) + tuple(b))


def word_inv(w: Sequence[Letter]) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(tuple(w)))


def exponent_sum(w: Sequence[Letter]) -> int:
    """Total exponent; the image of the word in H_1 of a knot exterior."""
    return sum(exp for _, exp in w)


def generator_name(gen: int) -> str:
    """Arc display names: a, b, ..., z, g26, g27, ..."""
    if gen < 26:
        return chr(ord("a") + gen)
    return f"g{gen}"


def format_word(w: Sequence[Letter]) -> str:
    if not w:
        return "1"
    parts = []
    for gen, exp in w:
        name = generator_name(gen)
        parts.append(name if exp == 1 else f"{name}^-1")
    return "".join(parts)
