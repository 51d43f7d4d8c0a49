"""Independent answers for every benchmark request.

Nothing here imports ``morsetoeplitz``.  Expected values come from plain
byte iteration of the three base substitutions, from quadratic scans
written out again, and from facts the benchmark relies on by theorem:
factors of the Morse system are overlap-free, factors of the Toeplitz
system avoid even-zero squares, and every binary word has exactly two
complementary Oxtoby preimages.

Letters are small integers packed in ``bytes``.  A renamed system keeps the
letter indices of its base system and only changes the printed symbols, so
byte-level answers carry over to every renaming; squaring a substitution
keeps its language, so they carry over to squares as well.

Every ``check_*`` function takes the expected answer as an argument and
returns ``None`` when the observed answer matches, or a one-line reason.
"""

from __future__ import annotations

import json
from math import gcd

MORSE = (b"\x00\x01", b"\x01\x00")
TOEPLITZ = (b"\x00\x01", b"\x00\x00")
THREE = (b"\x01\x02", b"\x00\x02", b"\x01\x00")
#: Strongly connected but periodic: 0 -> 11, 1 -> 00 alternates letters.
SWAP = (b"\x01\x01", b"\x00\x00")

FAMILIES = {"morse": MORSE, "toeplitz": TOEPLITZ, "three": THREE, "swap": SWAP}


# -- iteration --------------------------------------------------------------


def power(images: tuple[bytes, ...], k: int) -> tuple[bytes, ...]:
    """Images of the k-th iterate; k = 0 gives the one-letter words."""
    out = tuple(bytes([a]) for a in range(len(images)))
    for _ in range(k):
        out = tuple(b"".join(images[x] for x in w) for w in out)
    return out


def grow(images: tuple[bytes, ...], letter: int, length: int) -> bytes:
    """Iterate the substitution on one letter until the word is long enough."""
    w = bytes([letter])
    while len(w) < length:
        w = b"".join(images[x] for x in w)
    return w


def spec(images: tuple[bytes, ...], symbols: str) -> str:
    """Rule text ``a->w;b->w`` for a renaming of the images."""
    return ";".join(
        f"{symbols[a]}->{render(im, symbols)}" for a, im in enumerate(images)
    )


def render(data: bytes, symbols: str) -> str:
    return "".join(symbols[x] for x in data)


def admissible_seeds(images: tuple[bytes, ...], period: int) -> list[tuple[int, int]]:
    """Seeds (a, b) of the period-th iterate whose centre ab is a factor."""
    sp = power(images, period)
    two = factors(images, 2)
    return [
        (a, b)
        for a in range(len(images))
        if sp[a][-1] == a
        for b in range(len(images))
        if sp[b][0] == b and bytes((a, b)) in two
    ]


def window(
    images: tuple[bytes, ...], period: int, seed: tuple[int, int], radius: int
) -> tuple[bytes, int]:
    """Letters and origin of the periodic window over [-radius, radius)."""
    sp = power(images, period)
    left = grow(sp, seed[0], radius)
    right = grow(sp, seed[1], radius)
    return left[-radius:] + right[:radius], radius


_FACTOR_MEMO: dict[tuple[tuple[bytes, ...], int], frozenset] = {}


def factors(images: tuple[bytes, ...], n: int) -> frozenset[bytes]:
    """All n-factors of a long iterate of letter 0 (for n up to a few hundred)."""
    key = (images, n)
    if key not in _FACTOR_MEMO:
        w = grow(images, 0, 64 * n)
        _FACTOR_MEMO[key] = frozenset(w[i : i + n] for i in range(len(w) - n + 1))
    return _FACTOR_MEMO[key]


_HASH_MEMO: dict[tuple[tuple[bytes, ...], int], frozenset] = {}


def factor_hashes(images: tuple[bytes, ...], n: int) -> frozenset[int]:
    """Hashes of all n-factors of a long iterate; slices are freed as hashed,
    so long blocks cost time but not memory."""
    key = (images, n)
    if key not in _HASH_MEMO:
        w = grow(images, 0, 64 * n)
        _HASH_MEMO[key] = frozenset(hash(w[i : i + n]) for i in range(len(w) - n + 1))
    return _HASH_MEMO[key]


# -- forbidden patterns -----------------------------------------------------


def least_overlap(data: bytes) -> tuple[int, int] | None:
    """Least (start, period) of an overlap BBb, by the quadratic sweep."""
    n = len(data)
    for i in range(n):
        for ell in range(1, (n - 1 - i) // 2 + 1):
            if data[i + 2 * ell] == data[i] and data[i : i + ell] == data[i + ell : i + 2 * ell]:
                return i, ell
    return None


def least_even_square(data: bytes, zero: int) -> tuple[int, int] | None:
    """Least (start, period) of a square BB with evenly many ``zero`` in B."""
    n = len(data)
    for i in range(n):
        for ell in range(1, (n - i) // 2 + 1):
            half = data[i : i + ell]
            if half == data[i + ell : i + 2 * ell] and half.count(zero) % 2 == 0:
                return i, ell
    return None


def replays(data: bytes, kind: str, start: int, period: int, zero: int = 0) -> bool:
    """Whether (start, period) really is a pattern of the kind in the word."""
    i, n = start, period
    if i < 0 or n < 1 or i + 2 * n > len(data):
        return False
    if data[i : i + n] != data[i + n : i + 2 * n]:
        return False
    if kind == "overlap":
        return i + 2 * n < len(data) and data[i + 2 * n] == data[i]
    return data[i : i + n].count(zero) % 2 == 0


def check_scan(
    data: bytes,
    kind: str,
    expected: tuple[int, int] | None,
    exact: bool,
    got: tuple[int, int] | None,
) -> str | None:
    """Judge a scanner result.

    With ``exact`` the expected witness is the least one.  Otherwise it is
    a planted witness: the answer must replay and may not come after it.
    """
    if expected is None:
        return None if got is None else f"reported {got} in a {kind}-free word"
    if got is None:
        return f"missed the {kind} witness {expected}"
    if not replays(data, kind, *got):
        return f"witness {got} does not replay"
    if exact and got != expected:
        return f"witness {got} is not the least, expected {expected}"
    if not exact and got > expected:
        return f"witness {got} comes after the planted {expected}"
    return None


# -- sliding codes ----------------------------------------------------------


def oxtoby(data: bytes) -> bytes:
    """u, v -> u + v + 1 mod 2 over adjacent letters."""
    return bytes((u + v + 1) % 2 for u, v in zip(data, data[1:]))


def oxtoby_fibre(data: bytes) -> list[bytes]:
    """The two preimages of a binary word, sorted."""
    out = []
    for first in (0, 1):
        pre = bytearray([first])
        for c in data:
            pre.append((c + pre[-1] + 1) % 2)
        out.append(bytes(pre))
    return sorted(out)


def check_fibre(target: bytes, got: list[bytes]) -> str | None:
    """A fibre has two complementary blocks that both map onto the word."""
    if len(got) != 2:
        return f"fibre has {len(got)} blocks, expected 2"
    a, b = got
    if any(x + y != 1 for x, y in zip(a, b)) or len(a) != len(b):
        return "fibre blocks are not complementary"
    if oxtoby(a) != target or oxtoby(b) != target:
        return "fibre block does not map onto the word"
    return None


# -- certificates -----------------------------------------------------------


def non_factor_flips(
    blocks: tuple[bytes, ...], images: tuple[bytes, ...], letters: int
) -> list[tuple[int, int, int]]:
    """(block, position, letter) edits that take a block out of the language.

    A certificate with a block outside the language is rejected by any sound
    verifier: windows then tile by the other blocks alone, which repeats a
    single token and so contains a forbidden token pattern.
    """
    good = factors(images, len(blocks[0]))
    out = []
    for j, block in enumerate(blocks):
        for pos in range(len(block)):
            for c in range(letters):
                if c != block[pos]:
                    edited = block[:pos] + bytes([c]) + block[pos + 1 :]
                    if edited not in good:
                        out.append((j, pos, c))
    return out


def check_recoded(data: bytes, target: tuple[bytes, ...], span: int) -> str | None:
    """Every factor of length up to span + 2 lies in the target language."""
    for n in range(1, min(span + 2, len(data)) + 1):
        good = factors(target, n)
        for i in range(len(data) - n + 1):
            if data[i : i + n] not in good:
                return f"recoded factor {data[i : i + n]!r} is not a target factor"
    return None


# -- graphs -----------------------------------------------------------------


def graph_facts(images: tuple[bytes, ...]) -> dict:
    """Connectivity, period and period classes from walks of every length.

    The period is the gcd of the lengths of closed walks through vertex 0,
    found by stepping the set of vertices reachable in exactly t steps.
    """
    n = len(images)
    succ = [set(im) for im in images]
    reach = {0}
    seen = {0}
    for _ in range(n):
        reach = {v for u in reach for v in succ[u]}
        seen |= reach
    back = {v for v in range(n) if _reaches(succ, v, 0)}
    connected = len(seen) == n and len(back) == n
    if not connected:
        return {"strongly_connected": False, "period": None, "classes": None, "primitive": False}
    period = 0
    step = {0}
    dist = {0: 0}
    for t in range(1, 2 * n * n + 1):
        step = {v for u in step for v in succ[u]}
        if 0 in step:
            period = gcd(period, t)
        for v in step:
            dist.setdefault(v, t)
    classes = [[] for _ in range(period)]
    for v in range(n):
        classes[dist[v] % period].append(v)
    return {
        "strongly_connected": True,
        "period": period,
        "classes": classes,
        "primitive": period == 1,
    }


def _reaches(succ: list[set[int]], u: int, target: int) -> bool:
    seen = {u}
    todo = [u]
    while todo:
        x = todo.pop()
        if x == target:
            return True
        for y in succ[x]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return False


# -- command line -----------------------------------------------------------


def cli_generate(images, symbols, period, seed, radius) -> tuple[str, int]:
    data, origin = window(images, period, seed, radius)
    text = render(data, symbols)
    return text[:origin] + "." + text[origin:] + "\n", 0


def cli_language(images, symbols, n) -> tuple[str, int]:
    blocks = sorted(render(b, symbols) for b in factors(images, n))
    return "".join(b + "\n" for b in blocks), 0


def cli_check(text: str, pattern: str) -> tuple[str, int]:
    data = bytes(int(c) for c in text)
    if pattern == "overlap":
        hit = least_overlap(data)
    else:
        hit = least_even_square(data, 0)
    if hit is None:
        return "none\n", 0
    return f"{pattern}: start {hit[0]} period {hit[1]}\n", 1


def cli_image(data: bytes, origin: int) -> tuple[str, int]:
    text = render(oxtoby(data), "01")
    return text[:origin] + "." + text[origin:] + "\n", 0


def cli_preimage(data: bytes) -> tuple[str, int]:
    return "".join(render(b, "01") + "\n" for b in oxtoby_fibre(data)), 0


def cli_search(symbols: str, found: tuple[int, tuple[bytes, ...]] | None, kind: str):
    if found is None:
        return "none\n", 1
    k, blocks = found
    payload = {"kind": kind, "k": k}
    for name, block in zip(("C0", "C1", "C0p", "C1p"), blocks):
        payload[name] = render(block, symbols)
    return json.dumps(payload, sort_keys=True) + "\n", 0


def cli_analyze(images, symbols, kind: str | None) -> tuple[str, int]:
    facts = graph_facts(images)
    r = len(images[0])
    injective = len(set(images)) == len(images)
    payload = {
        "substitution": spec(images, symbols),
        "alphabet": list(symbols),
        "alphabet_size": len(symbols),
        "length": r,
        "length_power_of_two": r & (r - 1) == 0,
        "injective": injective,
        "strongly_connected": facts["strongly_connected"],
        "period": facts["period"],
        "period_classes": (
            [sorted(symbols[v] for v in cls) for cls in facts["classes"]]
            if facts["classes"] is not None
            else None
        ),
        "primitive": facts["primitive"],
        "primitive_by_powers": facts["primitive"],
    }
    status = 0
    if kind is not None:
        bound = 3 if kind == "toeplitz" else 6
        necessary = {
            "injective": injective,
            "primitive": facts["primitive"],
            "length_power_of_two": payload["length_power_of_two"],
            "alphabet_bound_ok": len(symbols) <= bound,
        }
        necessary["all_pass"] = all(necessary.values())
        payload["kind"] = kind
        payload["necessary"] = necessary
        status = 0 if necessary["all_pass"] else 1
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", status


def cli_derive(images, symbols) -> tuple[str, int]:
    """A memoryless rule that emits each letter's image induces the substitution itself."""
    lines = [spec(images, symbols)]
    lines += [f"  {s} = {s}" for s in sorted(symbols)]
    lines.append("primitive: True")
    return "".join(line + "\n" for line in lines), 0


def cli_witness(images, n) -> tuple[str, int]:
    """Counts by brute force; the phase of a primitive injective aperiodic
    substitution is unique (recognizability), so ``unique_phase`` is True."""
    r = len(images[0])
    lang_n = factors(images, n)
    lang_rn = factors(images, r * n)
    imgs = {b"".join(images[x] for x in w) for w in lang_n}
    contained = imgs <= lang_rn
    proper = contained and len(imgs) < len(lang_rn)
    rows = [
        ("n", n),
        ("image_count", len(imgs)),
        ("block_count", len(lang_rn)),
        ("contained", contained),
        ("proper", proper),
        ("unique_phase", True),
    ]
    return "".join(f"{k}: {v}\n" for k, v in rows), 0 if proper else 1


def check_cli(expected: tuple[str, int], rc: int, out: str, err: str) -> str | None:
    """Exact stdout and exit code of a well-formed request."""
    text, status = expected
    if "Traceback" in err:
        return f"traceback: {err.strip().splitlines()[-1]}"
    if rc != status:
        return f"exit {rc}, expected {status}"
    if out != text:
        return f"stdout differs: {out[:80]!r} vs {text[:80]!r}"
    return None


def check_cli_verify(accepted: bool, rc: int, out: str, err: str) -> str | None:
    """Verdict line and exit code of verify-cert; phase lines by shape only."""
    if "Traceback" in err:
        return f"traceback: {err.strip().splitlines()[-1]}"
    lines = out.splitlines()
    if accepted:
        if rc != 0 or not lines or lines[0] != "accepted":
            return f"expected acceptance, got exit {rc} {out[:60]!r}"
        if not lines[1:] or not all(
            line.startswith("  seed (") and " tokens " in line for line in lines[1:]
        ):
            return "accepted verdict without well-formed phase lines"
        return None
    if rc != 1 or len(lines) != 1 or not lines[0].startswith("rejected: "):
        return f"expected rejection, got exit {rc} {out[:60]!r}"
    return None


def check_cli_malformed(rc: int, out: str, err: str) -> str | None:
    """The documented contract for bad input: exit 2, an error line, no traceback."""
    if "Traceback" in out or "Traceback" in err:
        return f"traceback: {err.strip().splitlines()[-1]}"
    if rc != 2:
        return f"exit {rc}, expected 2"
    if not any(line.startswith("error:") for line in err.splitlines()):
        return "no 'error:' line on stderr"
    return None
