"""Seeded random generators for elements, classical polynomials and probe
monomials.  All draws go through an explicit random.Random so every suite is
reproducible from its seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence, Tuple

from .scalars import CRat
from .group_algebra import Element, GroupSignature, slot_index
from .pmech import ClassicalPoly
from .terms import accumulate

__all__ = [
    "rand_crat",
    "rand_group_monomial",
    "rand_element",
    "rand_classical",
]


def rand_crat(rng: random.Random, allow_imag: bool = True) -> CRat:
    """Small nonzero exact complex rational."""
    while True:
        re = rng.randint(-3, 3)
        im = rng.choice((-1, 0, 0, 1)) if allow_imag else 0
        if re or im:
            return CRat(re, im)


@lru_cache(maxsize=128)
def _allowed_indices(dof: int, sectors: Tuple[int, ...], allow_s: bool) -> Tuple[int, ...]:
    """Group exponent indices a draw may raise, in the order the seeded draws
    depend on: per sector its S, then the X and Y of each slot.  Cached: a
    suite draws thousands of monomials with the same arguments."""
    idxs = []
    for sector in sectors:
        if allow_s:
            idxs.append(sector - 1)
        for i in range(1, dof + 1):
            x = 2 + 2 * slot_index(dof, sector, i)
            idxs += (x, x + 1)
    return tuple(idxs)


def rand_group_monomial(rng: random.Random, sig: GroupSignature, max_degree: int,
                        sectors: Sequence[int] = (1, 2),
                        allow_s: bool = True) -> Tuple[int, ...]:
    idxs = _allowed_indices(sig.dof, tuple(sectors), allow_s)
    mono = [0] * sig.width
    for _ in range(rng.randint(0, max_degree)):
        mono[rng.choice(idxs)] += 1
    return tuple(mono)


def rand_element(rng: random.Random, sig: GroupSignature, max_degree: int = 4,
                 terms: int = 3, sectors: Sequence[int] = (1, 2),
                 allow_s: bool = True) -> Element:
    acc: dict = {}
    for _ in range(terms):
        mono = rand_group_monomial(rng, sig, max_degree, sectors, allow_s)
        accumulate(acc, mono, rand_crat(rng))
    return Element(sig, acc)


def rand_classical(rng: random.Random, dof: int, max_degree: int = 4,
                   terms: int = 3, sectors: Sequence[int] = (1, 2),
                   allow_imag: bool = False) -> ClassicalPoly:
    """Random classical polynomial; real coefficients by default since
    classical observables in the suites are real."""
    acc: dict = {}
    # a classical index is the group index less the two central ones
    allowed = [k - 2 for k in _allowed_indices(dof, tuple(sectors), False)]
    for _ in range(terms):
        mono = [0] * (4 * dof)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.choice(allowed)] += 1
        accumulate(acc, tuple(mono), rand_crat(rng, allow_imag))
    return ClassicalPoly(dof, acc)
