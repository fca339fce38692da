"""Seeded inputs of the three workloads.

A workload is a list of rounds; a round holds the same size classes every
time, so the seed changes which knots are drawn but never their sizes.
Round r of seed s is drawn from its own generator, so a longer run extends
a shorter one with the same seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import families as F


@dataclass(frozen=True)
class Knot:
    label: str  # size class and recipe, for reports
    pd: str  # bracket form, as dehn prints it back
    alexander: Tuple[int, ...]  # from the tables, constant term first

    @property
    def crossings(self) -> int:
        return self.pd.count("[") - 1


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _edge(rng: random.Random, pd: F.PD) -> int:
    return rng.randint(1, 2 * len(pd))


def _build(parts: List[str], kinks: int, rng: random.Random) -> Tuple[F.PD, Tuple[int, ...]]:
    """Connected sum of corpus knots at seeded edges, then seeded kinks."""
    pd = F.CORPUS[parts[0]]
    alex = F.ALEXANDER[parts[0]]
    for name in parts[1:]:
        pd = F.connected_sum(pd, _edge(rng, pd), F.CORPUS[name],
                             _edge(rng, F.CORPUS[name]))
        alex = F.poly_mul(alex, F.ALEXANDER[name])
    for _ in range(kinks):
        pd = F.kink(pd, _edge(rng, pd))
    return pd, alex


# -- torus-dense --------------------------------------------------------

# T(2,15) comes twice, so the median of a run's knot times falls inside one
# size class instead of on the gap between the T(2,13) and T(2,15) times.
TORUS_N = (11, 13, 15, 15, 17)


def torus_round(seed: int, r: int) -> List[Knot]:
    rng = _rng("torus-dense", seed, r)
    return [Knot(f"T(2,{n})", F.to_text(F.shuffle_crossings(F.torus_2(n), rng)),
                 F.torus_2_alexander(n))
            for n in TORUS_N]


# -- composite-sparse ---------------------------------------------------

# (summands, crossings) per size class; the remainder is made of RI kinks.
# Each knot's time swings by a third with the splice and kink placement, so
# the classes are kept small enough for a 25-second run to hold 27 knots.
COMPOSITE_CLASSES = ((3, 14), (4, 16), (5, 18))
COMPOSITE_PER_CLASS = 3  # knots of each class in a round
COMPOSITE_PARTS = ("3_1", "4_1", "5_1", "5_2", "6_1")
MAX_KINKS = 6


def composite_round(seed: int, r: int) -> List[Knot]:
    rng = _rng("composite-sparse", seed, r)
    knots = []
    for summands, crossings in COMPOSITE_CLASSES * COMPOSITE_PER_CLASS:
        while True:
            parts = [rng.choice(COMPOSITE_PARTS) for _ in range(summands)]
            kinks = crossings - sum(len(F.CORPUS[p]) for p in parts)
            if 0 <= kinks <= MAX_KINKS:
                break
        pd, alex = _build(parts, kinks, rng)
        knots.append(Knot(f"{'#'.join(parts)}+{kinks}k", F.to_text(pd), alex))
    return knots


# -- check-seeds --------------------------------------------------------

# Every round holds the same recipes, 3 to 8 crossings: the corpus knots,
# T(2,5) and T(2,7), 3_1 and 4_1 with one kink, 3_1#3_1 and 4_1#4_1. The
# seed picks the splice and kink edges and the crossing order, which sets
# the pivot order the shuffled propagator seeds start from.
CHECK_KINKED = ("3_1", "4_1")
CHECK_SUMS = (("3_1", "3_1"), ("4_1", "4_1"))


def check_round(seed: int, r: int) -> List[Knot]:
    rng = _rng("check-seeds", seed, r)
    recipes: List[Tuple[str, F.PD, Tuple[int, ...]]] = []
    for name in F.CORPUS:
        recipes.append((name, F.CORPUS[name], F.ALEXANDER[name]))
    for n in (5, 7):
        recipes.append((f"T(2,{n})", F.torus_2(n), F.torus_2_alexander(n)))
    for name in CHECK_KINKED:
        pd, alex = _build([name], 1, rng)
        recipes.append((f"{name}+1k", pd, alex))
    for parts in CHECK_SUMS:
        pd, alex = _build(list(parts), 0, rng)
        recipes.append(("#".join(parts), pd, alex))
    return [Knot(label, F.to_text(F.shuffle_crossings(pd, rng)), alex)
            for label, pd, alex in recipes]


ROUNDS: Dict[str, Callable[[int, int], List[Knot]]] = {
    "torus-dense": torus_round,
    "composite-sparse": composite_round,
    "check-seeds": check_round,
}

# Nominal seconds of one round at the commit that defined the benchmark, on
# a 2-core x86-64 machine. A run of S seconds measures round(S / this)
# rounds, at least one: the knot list depends on the seed and S only, so
# two commits given the same arguments time the same inputs.
ROUND_SECONDS = {"torus-dense": 17.0, "composite-sparse": 8.4, "check-seeds": 13.7}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def inputs(workload: str, seed: int, rounds: int) -> List[Knot]:
    make = ROUNDS[workload]
    return [k for r in range(rounds) for k in make(seed, r)]


def fingerprint(knots: List[Knot]) -> str:
    """Hash of the generated PD list, equal on any commit given equal inputs."""
    h = hashlib.sha256()
    for k in knots:
        h.update(k.pd.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
