"""Enumerate-then-verify oracles for certificate verification and search.

These are the block-by-block verifiers and exhaustive searches that
``morsetoeplitz.conjugacy`` replaced with covering-word checks and derived
candidates.  Every sampled window and every block of L_{2R} is parsed on its
own, and the searches try every tuple of the reference word's tiles in
lexicographic order, so they are slow but independent of the fast paths
they check.  ``candidates`` is
the pairwise candidate loop that the searches' single-tile pass replaced,
``Slices`` the span-slice tiler that the level view replaced, and
``segments`` the tile-by-tile segment walk that the byte kernel
``conjugacy._segments`` replaced, ``conditions`` the carrier-by-carrier
walk that ``conjugacy._conditions`` replaced with the same kernel's links,
and ``sample_windows`` the seed windows a substitution source built with
``periodic_window`` before sources handed out level words only.
"""

from __future__ import annotations

from itertools import product

from morsetoeplitz.conjugacy import (
    BLOCKS_EQUAL,
    GAP_RULE,
    LanguageSource,
    MORSE_TOKENS,
    MULTIPLE_PHASES,
    NO_PHASE,
    TOKEN_PATTERN,
    MorseCertificate,
    ParseVerdict,
    PhaseParse,
    SubstitutionSource,
    ToeplitzCertificate,
    as_source,
)
from morsetoeplitz.errors import CapacityError, RangeError
from morsetoeplitz.patterns import find_even_square, find_overlap
from morsetoeplitz.substitution import DEFAULT_MAX_LEN, system_seeds
from morsetoeplitz.words import BINARY, Window, Word

# nearest neighbor table: (left carrier, right carrier) -> (identity, block attr)
_GAP_TABLE = {
    (1, 1): (0, "c0"),
    (0, 0): (1, "c1"),
    (1, 0): (2, "c0p"),
    (0, 1): (3, "c1p"),
}


def _tile_runs(win: Window, span: int):
    """Yield (phase, start, tiles) for every bilateral residue with a run
    of at least 3 full tiles inside the window."""
    data = win.word.letters
    lo, hi = win.start, win.stop
    for j in range(span):
        t0 = lo + ((j - lo) % span)
        count = (hi - t0) // span
        if count < 3:
            continue
        off = t0 - lo
        tiles = [data[off + i * span : off + (i + 1) * span] for i in range(count)]
        yield j, t0, tiles


def _toeplitz_eval_window(
    label: str, win: Window, cert: ToeplitzCertificate
) -> tuple[str | None, PhaseParse | None]:
    span = cert.span
    index = {cert.c0.letters: 0, cert.c1.letters: 1}
    parses = []
    for j, t0, tiles in _tile_runs(win, span):
        toks = bytearray()
        for t in tiles:
            letter = index.get(t)
            if letter is None:
                break
            toks.append(letter)
        else:
            parses.append(PhaseParse(j, t0, Word(BINARY, bytes(toks)), window=label))
    if not parses:
        return NO_PHASE, None
    long_parses = [p for p in parses if len(p.tokens) >= 4]
    if len(long_parses) > 1:
        return MULTIPLE_PHASES, None
    for p in parses:
        if find_even_square(p.tokens, 0) is not None:
            return TOKEN_PATTERN, None
    chosen = long_parses[0] if long_parses else parses[0]
    return None, chosen


def verify_toeplitz_certificate(
    lang, cert: ToeplitzCertificate, radius: int | None = None
) -> ParseVerdict:
    """Check a Toeplitz certificate on every sampled window and every
    language block of matching length."""
    source = as_source(lang)
    span = cert.span
    if radius is None:
        radius = 32 * span
    if radius < 3 * span:
        raise RangeError(f"radius {radius} below 3 tiles of {span}")
    if cert.c0 == cert.c1:
        return ParseVerdict(
            False, (), BLOCKS_EQUAL, "toeplitz", radius, "C0 and C1 coincide"
        )
    entries = []
    for label, win in _test_windows(source, radius):
        reason, entry = _toeplitz_eval_window(label, win, cert)
        if reason is not None:
            return ParseVerdict(False, (), reason, "toeplitz", radius, label)
        if entry is not None and not label.startswith("block"):
            entries.append(entry)
    return ParseVerdict(True, tuple(entries), None, "toeplitz", radius)


def sample_windows(source: LanguageSource, radius: int) -> list[tuple[str, Window]]:
    """(label, window) of each sampled window: for a substitution, its
    ``periodic_window`` at each system seed, a path independent of its
    level words; for another source, its own windows, read off its level
    words under identity images."""
    if isinstance(source, SubstitutionSource):
        sub = source.substitution
        return [
            (f"seed {seed}", sub.periodic_window(seed, radius))
            for seed in system_seeds(sub)
        ]
    labels, _, words = source.level_words(1, radius)
    return [
        (label, Window(Word(source.alphabet, letters), -lo))
        for label, (letters, _, lo, _) in zip(labels, words)
    ]


def _test_windows(source: LanguageSource, radius: int):
    yield from sample_windows(source, radius)
    blocks = source.blocks(2 * radius)
    if blocks:
        for b in sorted(blocks):
            yield f"block:{b.text}", Window(b, len(b) // 2)


_DEPTH_NONE = 0
_DEPTH_MEMBER = 1
_DEPTH_OVERLAP = 2
_DEPTH_GAP = 3

_DEPTH_REASON = {
    _DEPTH_NONE: NO_PHASE,
    _DEPTH_MEMBER: TOKEN_PATTERN,
    _DEPTH_OVERLAP: TOKEN_PATTERN,
    _DEPTH_GAP: GAP_RULE,
}


def _morse_conditions(
    cert: MorseCertificate,
    j: int,
    t0: int,
    tiles: list[bytes],
    parity: int,
    span: int,
    label: str,
) -> tuple[int, PhaseParse | None]:
    """Evaluate the parity and gap conditions on one raw parse.

    Trims the run so it starts and ends on a carrier position, so every
    gap has both neighbors.  Returns the depth the check reached and, when
    everything holds, the phase entry with identity tokens."""
    c0b, c1b = cert.c0.letters, cert.c1.letters
    abs0 = (t0 - j) // span
    i0 = 0 if abs0 % 2 == parity else 1
    i1 = len(tiles) - 1
    if (abs0 + i1) % 2 != parity:
        i1 -= 1
    if i1 - i0 + 1 < 3:
        return _DEPTH_NONE, None
    run = tiles[i0 : i1 + 1]
    start = t0 + i0 * span
    carriers = run[0::2]
    letters = []
    for t in carriers:
        if t == c0b:
            letters.append(0)
        elif t == c1b:
            letters.append(1)
        else:
            return _DEPTH_MEMBER, None
    if find_overlap(Word(BINARY, bytes(letters))) is not None:
        return _DEPTH_OVERLAP, None
    identities = bytearray(len(run))
    for i, letter in enumerate(letters):
        identities[2 * i] = letter
    for i in range(len(letters) - 1):
        left, right = letters[i], letters[i + 1]
        identity, attr = _GAP_TABLE[(left, right)]
        expected: Word = getattr(cert, attr)
        if run[2 * i + 1] != expected.letters:
            return _DEPTH_GAP, None
        identities[2 * i + 1] = identity
    entry = PhaseParse(
        j, start, Word(MORSE_TOKENS, bytes(identities)), parity=parity, window=label
    )
    return _DEPTH_GAP + 1, entry


def _morse_eval_window(
    label: str, win: Window, cert: MorseCertificate
) -> tuple[str | None, PhaseParse | None]:
    span = cert.span
    block_set = {cert.c0.letters, cert.c1.letters, cert.c0p.letters, cert.c1p.letters}
    depth = _DEPTH_NONE
    eligible: list[PhaseParse] = []
    for j, t0, tiles in _tile_runs(win, span):
        if any(t not in block_set for t in tiles):
            continue
        for parity in (0, 1):
            d, entry = _morse_conditions(cert, j, t0, tiles, parity, span, label)
            depth = max(depth, d)
            if entry is not None:
                eligible.append(entry)
    if not eligible:
        return _DEPTH_REASON[min(depth, _DEPTH_GAP)], None
    long_entries = [e for e in eligible if len(e.tokens) >= 4]
    if len(long_entries) > 1:
        return MULTIPLE_PHASES, None
    return None, long_entries[0] if long_entries else eligible[0]


def verify_morse_certificate(
    lang, cert: MorseCertificate, radius: int | None = None
) -> ParseVerdict:
    """Check a Morse certificate: unique phase, carrier parity with no
    overlap among C0/C1 tokens, and the nearest-neighbor gap rule."""
    source = as_source(lang)
    span = cert.span
    if radius is None:
        radius = 32 * span
    if radius < 3 * span:
        raise RangeError(f"radius {radius} below 3 tiles of {span}")
    if cert.c0 == cert.c1:
        return ParseVerdict(
            False, (), BLOCKS_EQUAL, "morse", radius, "C0 and C1 coincide"
        )
    entries = []
    for label, win in _test_windows(source, radius):
        reason, entry = _morse_eval_window(label, win, cert)
        if reason is not None:
            return ParseVerdict(False, (), reason, "morse", radius, label)
        if entry is not None and not label.startswith("block"):
            entries.append(entry)
    return ParseVerdict(True, tuple(entries), None, "morse", radius)


def _check_kmax(kmax: int) -> None:
    """Refuse kmax as ``conjugacy`` does: blocks of 2**kmax letters may not
    pass the length cap."""
    if kmax < 0:
        raise RangeError("kmax must be >= 0")
    if kmax >= DEFAULT_MAX_LEN.bit_length():
        raise CapacityError(f"blocks of 2**{kmax} letters exceed cap {DEFAULT_MAX_LEN}")


def _reference(source: LanguageSource, span: int, radius: int):
    """The reference word, the first sampled window or else the least
    2R-block, and its distinct span-tiles, sorted: the searches draw their
    candidate blocks from these, as ``conjugacy`` does, not from a block set."""
    windows = [win for _, win in sample_windows(source, radius)]
    windows += [Window(b, 0) for b in sorted(source.blocks(2 * radius) or ())]
    if not windows:
        return None, []
    tiles = Slices(span, windows[:1]).ids
    return windows[0], sorted(Word(source.alphabet, t) for t in tiles)


def search_toeplitz_certificate(lang, kmax: int) -> ToeplitzCertificate | None:
    """Least certificate in (k, C0, C1) lexicographic order, or None."""
    _check_kmax(kmax)
    source = as_source(lang)
    for k in range(kmax + 1):
        span = 1 << k
        radius = 32 * span
        ref_window, blocks = _reference(source, span, radius)
        for c0, c1 in product(blocks, repeat=2):
            if c0 == c1:
                continue
            cert = ToeplitzCertificate(k, c0, c1)
            reason, _ = _toeplitz_eval_window("ref", ref_window, cert)
            if reason is not None:
                continue
            verdict = verify_toeplitz_certificate(source, cert, radius)
            if verdict.accepted:
                return cert
    return None


def search_morse_certificate(lang, kmax: int) -> MorseCertificate | None:
    """Least certificate in (k, C0, C1, C0', C1') lexicographic order."""
    _check_kmax(kmax)
    source = as_source(lang)
    for k in range(kmax + 1):
        span = 1 << k
        radius = 32 * span
        ref_window, blocks = _reference(source, span, radius)
        for c0, c1, c0p, c1p in product(blocks, repeat=4):
            if c0 == c1:
                continue
            cert = MorseCertificate(k, c0, c1, c0p, c1p)
            reason, _ = _morse_eval_window("ref", ref_window, cert)
            if reason is not None:
                continue
            verdict = verify_morse_certificate(source, cert, radius)
            if verdict.accepted:
                return cert
    return None


def _run(toks, i0: int, stride: int):
    """Tokens from carrier position i0 to the last carrier position."""
    return toks[i0 : i0 + (len(toks) - i0 - 1) // stride * stride + 1]


def conditions(kind, row: bytes, i0: int) -> tuple[int, bytes]:
    """Depth reached on the run of tile codes from carrier position i0 to
    the last carrier position (0 short run, 1 foreign carrier, 2 pattern, 3
    gap rule, 4 eligible), and its parse tokens, gap tokens being
    neighbor-table identities, walked one carrier and one gap at a time."""
    run = _run(row, i0, kind.stride)
    if len(run) < 3:
        return 0, b""
    carriers = run[:: kind.stride]
    if not all(c & 3 for c in carriers):
        return 1, b""
    letters = bytes(0 if c & 1 else 1 for c in carriers)
    if kind.pattern(Word(BINARY, letters)) is not None:
        return 2, letters
    if kind.stride == 1:
        return 4, letters
    gaps = bytes(_GAP_TABLE[pair][0] for pair in zip(letters, letters[1:]))
    if not all(code >> gap & 1 for code, gap in zip(run[1::2], gaps)):
        return 3, b""
    tokens = bytearray(run)
    tokens[::2], tokens[1::2] = letters, gaps
    return 4, bytes(tokens)


def candidates(kind, rows: list[list[bytes]]) -> set:
    """Block tuples that parse a window at some phase and parity, by trying
    every ordered pair (C0, C1) of the pool, the carrier tiles of a run when
    they are two; a tuple counts only when the gaps fix every other slot.
    ``kind`` is a certificate kind of ``morsetoeplitz.conjugacy``."""
    out = set()
    for row in rows:
        for i0 in range(kind.stride):
            run = _run(row, i0, kind.stride)
            if len(run) < 3:
                continue
            carriers = run[:: kind.stride]
            pool = set(carriers) if len(set(carriers)) == 2 else ()
            for c0, c1 in product(pool, repeat=2):
                if c0 == c1:
                    continue
                letters = bytes(0 if t == c0 else 1 for t in carriers)
                if kind.pattern(Word(BINARY, letters)) is not None:
                    continue
                slots = [c0, c1] + [None] * (kind.slots - 2)
                for i in range(1, len(run), 2) if kind.stride == 2 else ():
                    slot = _GAP_TABLE[letters[i // 2], letters[i // 2 + 1]][0]
                    if slots[slot] not in (None, run[i]):
                        break
                    slots[slot] = run[i]
                else:
                    if None not in slots:
                        out.add(tuple(slots))
    return out


def tile_phases(
    win: Window, span: int, ids: dict[bytes, int]
) -> list[tuple[int, int, list[int]]]:
    """Cut a window into span-tiles at every bilateral phase.

    Returns (phase, start, row) for each residue j in [0, span) whose
    aligned run holds at least 3 full tiles, in ascending j: ``start`` is
    the bilateral index of the first tile and ``row`` lists tile ids.  A
    tile's id is its insertion index in ``ids``; unseen tiles are added, so
    one dict can be shared by many windows and ``[table[i] for i in row]``
    maps a row to tokens through one lookup table over ``ids``.
    """
    data = win.word.letters
    lo, hi = win.start, win.stop
    intern = ids.setdefault
    out = []
    for j in range(span):
        t0 = lo + (j - lo) % span
        count = (hi - t0) // span
        if count < 3:
            continue
        off = t0 - lo
        row = [
            intern(data[i : i + span], len(ids))
            for i in range(off, off + count * span, span)
        ]
        out.append((j, t0, row))
    return out


def _codes(cert) -> dict[bytes, int]:
    """Tile -> bit set of the certificate blocks it equals."""
    bits = list(enumerate(cert.blocks))
    return {b.letters: sum(1 << i for i, c in bits if c == b) for _, b in bits}


class Slices:
    """Tiles of whole windows: every span-slice at every phase, interned
    once; a certificate maps tile ids to codes through one table."""

    def __init__(self, span: int, windows: list[Window]) -> None:
        self.windows = windows
        self.lengths = [len(win) for win in windows]
        self.ids: dict[bytes, int] = {}
        self.phases = [tile_phases(win, span, self.ids) for win in windows]

    def letters(self, w: int) -> bytes:
        return self.windows[w].word.letters

    def tiles(self, w: int) -> list[list[bytes]]:
        tiles = list(self.ids)
        return [[tiles[i] for i in row] for _, _, row in self.phases[w]]

    def coder(self, cert):
        """Rows of tile codes of word w, as (phase, start, row) at every phase."""
        codes = _codes(cert)
        table = [codes.get(t, 0) for t in self.ids]
        return lambda w: [
            (j, t0, [table[i] for i in row]) for j, t0, row in self.phases[w]
        ]


def segments(kind, toks):
    """Per carrier parity, the maximal runs [lo, hi) of one row of tile codes
    (0 off the certificate) with C0/C1 carriers and gaps that follow the
    neighbor table, widened by a certificate tile on each side for a window
    to trim away, and their carrier letters, walked one tile at a time."""
    s, n = kind.stride, len(toks)
    toks = list(toks) + [0] * s
    for first_carrier in range(s):
        first = last = -1
        for c in range(first_carrier, n + s, s):
            code = toks[c]
            letter = 0 if code & 1 else 1
            if first >= 0 and code & 3 and (
                s == 1 or toks[c - 1] >> _GAP_TABLE[letters[-1], letter][0] & 1
            ):
                letters.append(letter)
                last = c
                continue
            if first >= 0:
                lo, hi = first - (toks[first - 1] > 0), last + 1 + (toks[last + 1] > 0)
                yield lo, hi, bytes(letters)
            first = last = c if code & 3 else -1
            letters = bytearray((letter,))
