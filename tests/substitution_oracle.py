"""Letter-by-letter oracles for the substitution byte kernels.

``image`` is the ``b"".join`` concatenation that ``Substitution.apply``,
``power`` and ``periodic_window`` replaced with one byte translation per
image offset.  ``power`` and ``periodic_window`` build on it the way the
library did before: iterate whole images, then grow the window one
``sigma**period`` round at a time and check the cap after each round.  They
share no code with the kernels they check.
"""

from __future__ import annotations

from morsetoeplitz import CapacityError


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
