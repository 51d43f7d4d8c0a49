"""Quadratic-loop oracles for the pattern scanners.

These are the plain double loops over (start, half length) that
``morsetoeplitz.patterns`` replaced with its bit-parallel sweep.  They stop
at the first hit in (start, half length) order, so they report the least
witness by construction and are independent of the sweep they check.
"""

from __future__ import annotations

from morsetoeplitz.patterns import EVEN_SQUARE_KIND, OVERLAP_KIND, PatternWitness


def _overlap_small(data: bytes) -> PatternWitness | None:
    n = len(data)
    for i in range(n - 2):
        top = (n - 1 - i) // 2
        for ell in range(1, top + 1):
            if (
                data[i + 2 * ell] == data[i]
                and data[i : i + ell] == data[i + ell : i + 2 * ell]
            ):
                return PatternWitness(i, ell, OVERLAP_KIND)
    return None


def _even_square_small(data: bytes, zero: int) -> PatternWitness | None:
    n = len(data)
    for i in range(n - 1):
        top = (n - i) // 2
        for ell in range(1, top + 1):
            if (
                data[i : i + ell] == data[i + ell : i + 2 * ell]
                and data[i : i + ell].count(zero) % 2 == 0
            ):
                return PatternWitness(i, ell, EVEN_SQUARE_KIND, zero)
    return None
