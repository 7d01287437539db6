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
        x = 2 + 2 * slot_index(dof, sector, 1)      # the X of the sector's first slot
        idxs += range(x, x + 2 * dof)
    return tuple(idxs)


def _draw(rng: random.Random, width: int, idxs: Tuple[int, ...],
          max_degree: int) -> Tuple[int, ...]:
    """Up to ``max_degree`` draws from ``idxs``, each raising its exponent by one."""
    mono = [0] * width
    for _ in range(rng.randint(0, max_degree)):
        mono[rng.choice(idxs)] += 1
    return tuple(mono)


def rand_group_monomial(rng: random.Random, sig: GroupSignature,
                        max_degree: int) -> Tuple[int, ...]:
    return _draw(rng, sig.width, _allowed_indices(sig.dof, (1, 2), True), max_degree)


def rand_element(rng: random.Random, sig: GroupSignature, max_degree: int = 4,
                 terms: int = 3) -> Element:
    acc: dict = {}
    for _ in range(terms):
        accumulate(acc, rand_group_monomial(rng, sig, max_degree), rand_crat(rng))
    return Element(sig, acc)


def rand_classical(rng: random.Random, dof: int, max_degree: int = 4,
                   sectors: Sequence[int] = (1, 2)) -> ClassicalPoly:
    """Random classical polynomial of three terms in the variables of ``sectors``;
    real coefficients, since classical observables in the suites are real."""
    idxs = _allowed_indices(dof, tuple(sectors), False)
    acc: dict = {}
    for _ in range(3):
        # a group monomial without S1, S2 is a classical one behind two zeros
        accumulate(acc, _draw(rng, 2 + 4 * dof, idxs, max_degree)[2:], rand_crat(rng, False))
    return ClassicalPoly(dof, acc)
