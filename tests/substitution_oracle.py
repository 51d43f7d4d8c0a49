"""Letter-by-letter oracles for the substitution byte kernels.

``image`` is the ``b"".join`` concatenation that ``Substitution.apply``,
``power`` and ``periodic_window`` replaced with one byte translation per
image offset.  ``power`` and ``periodic_window`` build on it the way the
library did before: iterate whole images, then grow the window one
``sigma**period`` round at a time and check the cap after each round.  They
share no code with the kernels they check.

``least_seed_period`` and ``system_seeds`` read seeds off the cycles of the
boundary maps instead of sweeping periods: a seed (a, b, p) is admissible
when p is a multiple of the cycle length of a under the last-letter map and
of b under the first-letter map.

``key_row`` and ``code_rows`` are the per-position comprehensions that
built ``_Levels``' key rows and rows of tile codes before a key row was
one translation of its window codes and a code row one translation of its
key row.

``covering_language`` is the read ``language`` made before it went by
levels: the n-factors of the covering words sigma**m(ab), one per 2-block
ab with m the least exponent such that r**m >= n, at the starts inside
sigma**m(a).
"""

from __future__ import annotations

from math import lcm

from morsetoeplitz import CapacityError
from morsetoeplitz.substitution import _covering_words
from morsetoeplitz.words import _trusted_word


def covering_language(sub, n: int) -> frozenset:
    words = _covering_words(sub, n)
    starts = range(len(words[0]) // 2)
    blocks = {x[i : i + n] for x in words for i in starts}
    return frozenset(_trusted_word(sub.alphabet, b) for b in blocks)


def key_row(index: dict, level: bytes, c: int, width: int) -> list[int]:
    """The key id of each width-block of ``level`` (padded with letter 0)
    at each of its ``len(level) - c + 1`` positions, a new key taking the
    next id of ``index``."""
    padded = level + b"\0"
    return [
        index.setdefault(padded[q : q + width], len(index))
        for q in range(len(level) - c + 1)
    ]


def code_rows(tiler, cert, w: int) -> list:
    """(phase, start, row) of word w of a ``_Levels`` at every phase whose
    offset holds a certificate tile, each row code by code through tables
    that ``bytes.find`` fills per offset."""
    size, stop = tiler.size, tiler.size + tiler.span - 1
    tables: dict = {}
    for bit, block in enumerate(cert.blocks):
        for key, image in enumerate(tiler.images):
            o = image.find(block.letters, 0, stop)
            while o >= 0:
                tables.setdefault(o, [0] * len(tiler.images))[key] |= 1 << bit
                o = image.find(block.letters, o + 1, stop)
    js = [t * size + o for t in range(tiler.c) for o in sorted(tables)]
    return [
        (j, t0, bytes([tables[o][key] for key in keys]))
        for j, t0, o, keys in tiler._phases(w, js)
    ]


def image(imgs: list[bytes], data: bytes) -> bytes:
    return b"".join(imgs[a] for a in data)


def power(imgs: list[bytes], k: int) -> list[bytes]:
    cur = list(imgs)
    for _ in range(k - 1):
        cur = [image(imgs, w) for w in cur]
    return cur


def periodic_window(
    imgs: list[bytes], left: int, right: int, period: int, radius: int, max_len: int
) -> bytes:
    """Letters of the window [-radius, radius) grown from the seed."""
    pimgs = power(imgs, period)
    lw, rw = bytes([left]), bytes([right])
    while len(lw) < radius:
        lw = image(pimgs, lw)
        if len(lw) > max_len:
            raise CapacityError(f"window growth exceeds cap {max_len}")
    while len(rw) < radius:
        rw = image(pimgs, rw)
        if len(rw) > max_len:
            raise CapacityError(f"window growth exceeds cap {max_len}")
    return lw[-radius:] + rw[:radius]


def cycle_lengths(step, points) -> dict:
    """The length of the cycle of ``step`` through each point on a cycle
    that is reached from ``points``."""
    lengths, seen = {}, set()
    for x in points:
        path = []
        while x not in seen:
            seen.add(x)
            path.append(x)
            x = step(x)
        if x in path:
            cycle = path[path.index(x) :]
            lengths.update(dict.fromkeys(cycle, len(cycle)))
    return lengths


def least_seed_period(imgs: list[bytes]) -> int:
    """The least lcm of a cycle length of the last-letter map and one of
    the first-letter map."""
    letters = range(len(imgs))
    last = cycle_lengths(lambda a: imgs[a][-1], letters).values()
    first = cycle_lengths(lambda b: imgs[b][0], letters).values()
    return min(lcm(c, d) for c in set(last) for d in set(first))


def system_seeds(imgs: list[bytes], pairs) -> list[tuple[int, int, int]]:
    """(a, b, p), sorted, for the ab on the shortest cycles reached from
    ``pairs`` of F(ab) = (last letter of sigma(a), first letter of
    sigma(b)), p their length.  F maps 2-blocks of the language to 2-blocks,
    so from 2-blocks it reaches only 2-blocks."""

    def step(ab):
        return imgs[ab[0]][-1], imgs[ab[1]][0]

    lengths = cycle_lengths(step, pairs)
    p = min(lengths.values())
    return sorted((a, b, p) for (a, b), c in lengths.items() if c == p)
