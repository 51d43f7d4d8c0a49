"""Block certificates for conjugacy with the Toeplitz and Morse systems.

A system is handed to the verifiers as a language source: either a
primitive substitution (windows come from its periodic seeds and blocks
from its language) or an explicit provider of windows and block sets.  A
check reads the words of a source only through its ``level_words``.  All
checks are finite: they test every sampled window out to a radius R plus
every language block of length 2R.

A Toeplitz certificate (k, C0, C1) asserts that every point of the system
splits at exactly one bilateral phase into the 2**k-blocks C0 and C1, and
that the resulting token sequence, read over the token letters C0 = 0 and
C1 = 1, never contains a square BB in which B holds an even number of C0
tokens.  Accepted certificates recode token words into genuine Toeplitz
windows by C0 -> tau**k(0), C1 -> tau**k(1).

A Morse certificate (k, C0, C1, C0', C1') asserts a unique phase and, for
one parity of token positions, that the carrier tokens are C0/C1 with no
overlap BBb, while each token in between equals its value under the
nearest-neighbor table: C1,C1 -> C0; C0,C0 -> C1; C1,C0 -> C0'; C0,C1 ->
C1'.  Gap tokens are recoded by their neighbor-table identity rather than
by raw block value, since C0' or C1' may coincide with C0 or C1.

Verification tiles each covering word of the 2R-blocks (sigma**m(ab) for
each 2-block ab, or each block of an explicit source) once per phase and
passes every 2R-window lying on exactly one pattern-free run of
certificate tiles; only the other windows are parsed one by one, in
sorted order, so a rejection still names the least failing block, by its
text (``block:<text>``): a check on a substitution builds no
language.  Covering-word runs and the gap rule of a pattern-free Morse
window parse read rows of tile codes through one link kernel, ``_links``;
such a parse's gap tokens are one translation of the codes of its carrier
letter pairs.  For a substitution of length r, with r**d the largest
power of r dividing the span, the sampled windows and covering words are
sigma**d of level words (each point is sigma**d of a level point), so a
tile is fixed by its offset mod r**d and one level block: tile codes come
from per-offset tables that ``bytes.find`` fills, one translation of a
level word's key row where the keys' codes fit a byte, and a phase at an
offset where no certificate block occurs holds only code 0 and is
skipped.  A substitution keeps the level words and their key rows in
its ``_level_view``, so every scale, both kinds and every later check
reuse them, and a check builds only the images of sigma**d and of the
keys.  An explicit source, like a substitution whose
length does not divide the span, is its own level at d = 0.  Searches
read no block set: they derive candidates from the tiles of the first
word tiled (the first sampled window, else the least 2R-block), blocks
of the system that any accepted certificate must parse: C0/C1 are the
two carrier tiles of a phase, C0'/C1' its gaps by the neighbor
table.  When every phase holds 18 tiles or more, as on a substitution
source, this set holds every certificate that can be accepted, so
verifying it in lexicographic order returns the least one.  A scale with
neither word is skipped, as verification there refuses it.

``derive_substitution`` runs the constructive direction: from a block rule
realizing a conjugacy onto an r-fold self-similar image it builds the
induced substitution on higher-block letters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterable, Mapping, Protocol, runtime_checkable

from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    InsufficientWindowError,
    PreconditionError,
    RangeError,
    StateError,
)
from .patterns import _least, find_even_square, find_overlap
from .sliding import LocalRule
from .substitution import (
    DEFAULT_MAX_LEN,
    MORSE,
    TOEPLITZ,
    Seed,
    Substitution,
    _covering_words,
    _is_factor,
    _Levels,
    _tile_tokens,
    system_seeds,
)
from .words import Alphabet, BINARY, Window, Word, _window_codes, json_field

# failure reasons reported by the verifiers
NO_PHASE = "no_phase"
MULTIPLE_PHASES = "multiple_phases"
TOKEN_PATTERN = "token_pattern"
GAP_RULE = "gap_rule"
BLOCKS_EQUAL = "blocks_equal"

_TOKEN_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

#: Token alphabet of Morse parses: 0 = C0, 1 = C1, a = C0', b = C1'.
MORSE_TOKENS = Alphabet(("0", "1", "a", "b"))


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class _Certificate:
    """Scale k and the 2**k-blocks of a certificate, C0 and C1 first."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise DomainError("certificate scale k must be >= 0")
        for block in self.blocks:
            # Bit lengths first: a k read from JSON may be too large to build 1 << k.
            if len(block).bit_length() != self.k + 1 or len(block) != self.span:
                span = self.span if self.k < 64 else f"2**{self.k}"
                raise DomainError(f"certificate blocks must have length 2**k = {span}")
            if block.alphabet != self.blocks[0].alphabet:
                raise DomainError("certificate blocks must share one alphabet")

    @property
    def blocks(self) -> tuple[Word, ...]:
        return tuple(getattr(self, f.name) for f in fields(self)[1:])

    @property
    def span(self) -> int:
        return 1 << self.k


@dataclass(frozen=True)
class ToeplitzCertificate(_Certificate):
    c0: Word
    c1: Word


@dataclass(frozen=True)
class MorseCertificate(_Certificate):
    c0: Word
    c1: Word
    c0p: Word
    c1p: Word


def certificate_to_json(cert: ToeplitzCertificate | MorseCertificate) -> dict:
    kind = "toeplitz" if isinstance(cert, ToeplitzCertificate) else "morse"
    blocks = zip(("C0", "C1", "C0p", "C1p"), cert.blocks)
    return {"kind": kind, "k": cert.k} | {key: b.text for key, b in blocks}


def certificate_from_json(
    payload: dict, alphabet: Alphabet
) -> ToeplitzCertificate | MorseCertificate:
    try:
        kind = payload["kind"]
        k = json_field(payload["k"], int)
        keys = ("C0", "C1", "C0p", "C1p")[: 4 if kind == "morse" else 2]
        blocks = [alphabet.word(json_field(payload[key], str)) for key in keys]
        if kind in ("toeplitz", "morse"):
            cls = ToeplitzCertificate if kind == "toeplitz" else MorseCertificate
            return cls(k, *blocks)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed certificate payload: {exc}") from None
    raise DomainError(f"unknown certificate kind {kind!r}")


# -- parse results --------------------------------------------------------


@dataclass(frozen=True)
class PhaseParse:
    """One window parsed at one phase; ``start`` is the bilateral index of
    the first tile, and for Morse parses ``parity`` marks the carrier
    positions while ``tokens`` records neighbor-table identities."""

    phase: int
    start: int
    tokens: Word
    parity: int | None = None
    window: str = ""


@dataclass(frozen=True)
class ParseVerdict:
    """Outcome of a certificate verification.

    When accepted, ``phases`` holds one entry per sampled seed window (the
    language blocks checked alongside are not echoed).  Each sampled
    window must parse at exactly one eligible phase; any violation is
    recorded in ``failure_reason`` with the offending window in
    ``detail``."""

    accepted: bool
    phases: tuple[PhaseParse, ...]
    failure_reason: str | None
    kind: str
    radius: int
    detail: str = ""


# -- language sources -----------------------------------------------------


@runtime_checkable
class LanguageSource(Protocol):
    @property
    def alphabet(self) -> Alphabet: ...

    def blocks(self, n: int) -> frozenset[Word] | None: ...

    def level_words(
        self, span: int, radius: int
    ) -> tuple[list[str], tuple[bytes, ...], list[tuple]]:
        """Labels of the sampled windows, the letter images of a sigma**d
        whose length divides the span, and the words to tile: the sampled
        windows, then words whose 2R-factors are the 2R-blocks.  A word is
        (level letters, bilateral index of their image's first letter,
        bilateral bounds [lo, hi) of the span tiled).  This is the only way
        a check reads the words of a source."""
        ...


class SubstitutionSource:
    """Windows and blocks of the minimal system of a primitive substitution."""

    def __init__(self, substitution: Substitution) -> None:
        self.substitution = substitution

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def blocks(self, n: int) -> frozenset[Word] | None:
        return self.substitution.language(n)

    def level_words(self, span: int, radius: int):
        """At the largest d with r**d dividing the span, for length r: the
        sampled windows and the covering words sigma**m(ab) of the 2R-blocks
        are sigma**d of level words, read from the substitution's
        ``_level_view`` after the caps are checked."""
        sub, d = self.substitution, 0
        while span % sub.length ** (d + 1) == 0:
            d += 1
        size = sub.length**d
        view = sub._level_view
        if "seeds" not in view:
            view["seeds"] = system_seeds(sub)
        seeds = view["seeds"]
        j = sub._exponent(-(-radius // size))  # the level window's exponent
        labels, words = [], []
        # The window of a seed (a, b, p) is sigma**d of the window of the seed
        # of z = sigma**e(x), e = -d mod p: see Substitution.periodic_window.
        # System seeds share one least period.
        last, first = sub._boundary_maps(-d % seeds[0].period)
        for seed in seeds:
            level = Seed(last[seed.left], first[seed.right], seed.period)
            key = ("window", level, j)
            if key not in view:
                view[key] = sub._center_image(level, j)
            labels.append(f"seed {seed}")
            words.append((view[key], -(sub.length**j) * size, -radius, radius))
        key = ("cover", sub._exponent(2 * radius) - d)  # seeds checked primitivity
        if key not in view:
            view[key] = _covering_words(sub, 2 * radius, d)
        words += [(level, 0, 0, len(level) * size) for level in view[key]]
        return labels, sub._iterate(d), words


@dataclass
class ExplicitSource:
    """Hand-supplied windows and block sets for systems without a substitution;
    ``blocks_by_length[n]`` holds blocks of length n only."""

    alphabet: Alphabet
    windows: tuple[Window, ...]
    blocks_by_length: Mapping[int, frozenset[Word]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for n, blocks in self.blocks_by_length.items():
            if any(len(b) != n for b in blocks):
                raise DomainError(f"a block listed under length {n} has another")
        words = [w.word for w in self.windows]
        words += [b for blocks in self.blocks_by_length.values() for b in blocks]
        if any(w.alphabet != self.alphabet for w in words):
            raise DomainError(f"a window or block is not over alphabet {self.alphabet}")

    def blocks(self, n: int) -> frozenset[Word] | None:
        return self.blocks_by_length.get(n)

    def level_words(self, span: int, radius: int):
        """Identity images: the windows, labelled ``window[i]``, then each
        2R-block as its own word."""
        words = [(w.word.letters, w.start, w.start, w.stop) for w in self.windows]
        blocks = sorted(self.blocks(2 * radius) or ())
        words += [(b.letters, 0, 0, len(b)) for b in blocks]
        images = tuple(bytes((a,)) for a in range(self.alphabet.size))
        return [f"window[{i}]" for i in range(len(self.windows))], images, words


def as_source(lang) -> LanguageSource:
    if isinstance(lang, Substitution):
        return SubstitutionSource(lang)
    if isinstance(lang, LanguageSource):
        return lang
    raise DomainError("expected a Substitution or a window/block provider")


# -- parsing --------------------------------------------------------------


def parse_phases(
    win: Window, blocks: Iterable[Word], span: int
) -> list[PhaseParse]:
    """Phases at which the window tiles by the given blocks.

    Returns one entry per admissible bilateral residue; tokens are letters
    into the deduplicated block list, in the order given (sets are sorted
    first).  At least 3 full tiles are required to report a phase.
    """
    if isinstance(blocks, (set, frozenset)):
        blocks = sorted(blocks)
    ordered = list(dict.fromkeys(blocks))
    if len(ordered) < 2:
        raise DomainError("need at least two distinct blocks")
    if any(b.alphabet != win.word.alphabet for b in ordered):
        raise DomainError(f"a block is not over window alphabet {win.word.alphabet}")
    if any(len(b) != span for b in ordered):
        raise DomainError(f"all blocks must have length {span}")
    if len(ordered) > len(_TOKEN_SYMBOLS):
        raise CapacityError("too many distinct blocks to name tokens")
    if len(win) < 3 * span:
        raise InsufficientWindowError(
            f"window of length {len(win)} cannot hold 3 tiles of {span}"
        )
    token_alphabet = Alphabet(tuple(_TOKEN_SYMBOLS[: len(ordered)]))
    index = {b.letters: i for i, b in enumerate(ordered)}
    return [
        PhaseParse(j, t0, Word(token_alphabet, toks))
        for j, t0, toks in _tile_tokens(win, span, index)
    ]


# -- certificate kinds ----------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """Carriers sit every ``stride`` tiles: every tile for Toeplitz, every
    other tile for Morse, whose gaps follow the neighbor table.  ``pattern``
    scans the carrier letters (C0 = 0, C1 = 1); a Toeplitz parse holding
    the pattern fails its window, a Morse one is merely not eligible."""

    name: str
    certificate: type
    slots: int
    stride: int
    pattern: Callable
    tokens: Alphabet
    target: Substitution


_EVEN_SQUARE = partial(find_even_square, zero=0)
_TOEPLITZ = _Kind("toeplitz", ToeplitzCertificate, 2, 1, _EVEN_SQUARE, BINARY, TOEPLITZ)
_MORSE = _Kind("morse", MorseCertificate, 4, 2, find_overlap, MORSE_TOKENS, MORSE)

#: Gap identity between two carrier letters; also the bit of the block the
#: gap must equal in a tile code (bit 0 C0, 1 C1, 2 C0', 3 C1').
_GAP_IDENTITY = {(1, 1): 0, (0, 0): 1, (1, 0): 2, (0, 1): 3}
#: ``_GAP_IDENTITY`` by the code 2*a + b of the carrier letters a then b.
_GAP = bytes(_GAP_IDENTITY[divmod(code, 2)] for code in range(4)).ljust(256, b"\0")

# depth of a parse check: 0 short run, 1 foreign carrier, 2 pattern, 3 gap
# rule, 4 eligible; a window with no eligible parse fails at the deepest one
_DEPTH_REASON = (NO_PHASE, TOKEN_PATTERN, TOKEN_PATTERN, GAP_RULE)


#: Carrier state of a tile code: 0 none, 1 C0 (letter 0), 2 C1 (letter 1);
#: ``_LETTER`` maps a state back to its letter.
_STATE = bytes(1 if code & 1 else 2 if code & 2 else 0 for code in range(256))
_LETTER = bytes((0, 0, 1)).ljust(256, b"\0")

#: By 48*a + 16*b + g, for carrier states a then b and the tile code g
#: between them, per stride: 2 where the carriers link (for Morse, g holds
#: the gap the neighbor table names), else 1 where b is a carrier, else 0.
_LINKS = {
    s: bytes(
        2 if a and b and (s == 1 or g >> _GAP_IDENTITY[a - 1, b - 1] & 1) else b > 0
        for a, b, g in ((code // 48, code // 16 % 3, code % 16) for code in range(144))
    ).ljust(256, b"\0")
    for s in (1, 2)
}


def _links(kind: _Kind, row: bytes, p: int) -> tuple[bytes, bytes]:
    """Carrier states of a row of tile codes (0 off the certificate) at p,
    p + stride, ..., and each carrier's link to the one before, one byte of
    a big-int multiply-add over the carrier states and gaps, as in
    ``_window_codes`` (no code passes 143, so no carry crosses a byte)."""
    s = kind.stride
    carriers = row[p::s].translate(_STATE)
    code = int.from_bytes(b"\0" + carriers[:-1], "big") * 48
    code += int.from_bytes(carriers, "big") * 16
    if s == 2:
        code += int.from_bytes(b"\0" + row[p + 1 :: 2][: len(carriers) - 1], "big")
    return carriers, code.to_bytes(len(carriers), "big").translate(_LINKS[s])


def _conditions(kind: _Kind, row: bytes, i0: int) -> tuple[int, bytes]:
    """Depth reached on the run of tile codes from carrier position i0 to
    the last carrier position, and its parse tokens, gap tokens being
    neighbor-table identities: one translation of the letter pairs' codes
    through ``_GAP``.  Only a pattern-free Morse run reads its links."""
    carriers = row[i0 :: kind.stride].translate(_STATE)
    if kind.stride * (len(carriers) - 1) < 2:
        return 0, b""
    if 0 in carriers:
        return 1, b""
    letters = carriers.translate(_LETTER)
    if kind.pattern(Word(BINARY, letters)) is not None:
        return 2, letters
    if kind is _TOEPLITZ:
        return 4, letters
    if 1 in _links(kind, row, i0)[1][1:]:
        return 3, b""
    tokens = bytearray(2 * len(letters) - 1)
    tokens[::2] = letters
    tokens[1::2] = _window_codes(letters, 2, 2).translate(_GAP)
    return 4, bytes(tokens)


def _evaluate(kind: _Kind, cert, phases, label: str):
    """Failure reason of one window, or the parse it is accepted with."""
    depth, entries = 0, []
    for j, t0, toks in phases:
        for parity in range(kind.stride) if 0 not in toks else ():
            i0 = ((t0 - j) // cert.span - parity) % kind.stride
            d, tokens = _conditions(kind, toks, i0)
            depth = max(depth, d)
            if d == 4 or (d == 2 and kind is _TOEPLITZ):
                mark = parity if kind is _MORSE else None
                tokens = Word(kind.tokens, tokens)
                start = t0 + i0 * cert.span
                entries.append((d, PhaseParse(j, start, tokens, mark, label)))
    if not entries:
        return _DEPTH_REASON[depth], None
    long_entries = [e for _, e in entries if len(e.tokens) >= 4]
    if len(long_entries) > 1:
        return MULTIPLE_PHASES, None
    if any(d < 4 for d, _ in entries):
        return TOKEN_PATTERN, None
    return None, long_entries[0] if long_entries else entries[0][1]


def _cut(phases, span: int, start: int, stop: int):
    """Rows of tile codes cut to the tiles inside [start, stop)."""
    for j, t0, row in phases:
        first, last = -(-(start - t0) // span), (stop - t0) // span
        yield j, t0 + first * span, row[first:last]


def _segments(kind: _Kind, row: bytes, need: int):
    """Per carrier parity, the maximal runs [lo, hi) of one row of tile codes
    with C0/C1 carriers and gaps that follow the neighbor table, widened by
    a certificate tile on each side for a window to trim away, and their
    carrier letters: those of ``need`` tiles or more.  A run is a 1 (a
    carrier) followed by 2s (linked carriers) in ``_links``; a run of L
    carriers spans at most stride*(L-1) + 3 tiles."""
    s, n = kind.stride, len(row)
    runs = re.compile(b"\x01\x02{%d,}" % max(0, -(-(need - 3) // s)))
    for p in range(s):
        carriers, links = _links(kind, row, p)
        for run in runs.finditer(links):
            first, last = p + s * run.start(), p + s * (run.end() - 1)
            lo = first - (first > 0 and row[first - 1] > 0)
            hi = last + 1 + (last + 1 < n and row[last + 1] > 0)
            if hi - lo >= need:
                yield lo, hi, carriers[run.start() : run.end()].translate(_LETTER)


def _candidates(kind: _Kind, rows: Iterable[list[bytes]]) -> set:
    """Block tuples that parse the reference word at some phase and parity:
    C0 and C1 are the two carrier tiles of a pattern-free run, and each gap
    fixes the slot the neighbor table names.  A run yields a tuple only when
    its tiles fix every slot, so no block is guessed.

    Nothing accepted is lost when every phase holds 18 tiles or more (9
    carriers at either parity), as the 64*span letters of a substitution's
    first window do: an overlap-free binary word of 9 letters holds 00, 01,
    10 and 11 (avoiding 00 or 11 allows 8 letters, 01 or 10 only 4), and one
    of 4 letters with no even-zero square holds 0 and 1, as 11 and 0000 are
    such squares.  So a pattern-free run has two carrier tiles and, for
    Morse, gaps of all four identities."""
    out, found = set(), {}  # carrier letters -> whether the scan finds the pattern
    for row in rows:
        for i0 in range(kind.stride):
            run = row[i0 : i0 + (len(row) - i0 - 1) // kind.stride * kind.stride + 1]
            carriers = run[:: kind.stride]
            seen = set(carriers)
            if len(run) < 3 or len(seen) != 2:
                continue
            u, v = seen
            for c0, c1 in ((u, v), (v, u)):
                letters = bytes(0 if t == c0 else 1 for t in carriers)
                if letters not in found:
                    found[letters] = kind.pattern(Word(BINARY, letters)) is not None
                if found[letters]:
                    continue
                slots = [c0, c1] + [None] * (kind.slots - 2)
                for i in range(1, len(run), 2) if kind.stride == 2 else ():
                    slot = _GAP_IDENTITY[letters[i // 2], letters[i // 2 + 1]]
                    if slots[slot] not in (None, run[i]):
                        break
                    slots[slot] = run[i]
                else:
                    if None not in slots:
                        out.add(tuple(slots))
    return out


# -- verification --------------------------------------------------------


class _Checker:
    """Checks certificates of one kind, span and radius R on one source,
    tiling its sampled windows and covering words once for all of them."""

    def __init__(self, kind: _Kind, source: LanguageSource, span: int, radius: int):
        self.kind, self.source, self.span, self.radius = kind, source, span, radius
        self.labels, images, words = source.level_words(span, radius)
        # an explicit source's windows are data: it keys them afresh
        view = None
        if isinstance(source, SubstitutionSource):
            view = source.substitution._level_view
        self.tiler = _Levels(images, span, words, view)

    def verdict(self, cert) -> ParseVerdict:
        kind, radius = self.kind, self.radius
        if not self.tiler.words:
            raise DomainError(f"source has no window and no {2 * radius}-block to check")
        rows = self.tiler.coder(cert)
        entries = []
        for w, label in enumerate(self.labels):
            reason, entry = _evaluate(kind, cert, rows(w), label)
            if reason is not None:
                break
            entries.append(entry)
        else:
            reason, label = self._failing_block(cert, rows)
        if reason is not None:
            return ParseVerdict(False, (), reason, kind.name, radius, label)
        return ParseVerdict(True, tuple(entries), None, kind.name, radius)

    def _failing_block(self, cert, rows) -> tuple[str | None, str]:
        """Reason and label ``block:<text>`` of the least failing 2R-block.

        The 2R-window at s of a covering word lies in the segment [p, q) of
        residue j iff j + (p-1)*span < s < j + (q+1)*span - 2R, so only a
        segment with (q - p + 2)*span >= 2R + 2 holds one, and
        ``_segments`` yields no shorter segment.  A window in
        exactly one segment, whose letters are free of the pattern, passes:
        its own letters are a factor of those, and 2R >= 6*span letters hold
        5 tiles at any phase, so a Morse run keeps 3 after trimming.  Every
        other window is evaluated on its own rows, cut from its word's, in
        sorted order.  The counts change only at segment ends.  A segment of
        more than ``patterns.DEFAULT_SCAN_CAP`` (2**16) tiles is refused with
        CapacityError, like every other over-cap scan.  A covering word of
        2 * r**m letters holds one only when r**m > 2**15 * span, so, with
        r**m <= DEFAULT_MAX_LEN, only for k <= 4 and images of tens of
        thousands of letters."""
        kind, span, n, tiler = self.kind, self.span, 2 * self.radius, self.tiler
        need = -(-(n + 2) // span) - 2  # q - p, for some window to lie in [p, q)
        suspects = {}  # letters -> (rows of their word, start)
        for w in range(len(self.labels), len(tiler.lengths)):
            windows = tiler.lengths[w] - n + 1
            steps = {0: [0, 0], windows: [0, 0]}  # cut -> changes of (total, dirty)
            phases = rows(w)
            for j, _, row in phases:
                for p, q, letters in _segments(kind, row, need):
                    lo = max(j + (p - 1) * span + 1, 0)
                    hi = min(j + (q + 1) * span - n, windows)
                    if lo < hi:
                        found = kind.pattern(Word(BINARY, letters))
                        for cut, sign in ((lo, 1), (hi, -1)):
                            step = steps.setdefault(cut, [0, 0])
                            step[0] += sign
                            step[1] += sign if found else 0
            cuts, total, dirty, data = sorted(steps), 0, 0, b""
            for s, end in zip(cuts, cuts[1:]):
                total, dirty = total + steps[s][0], dirty + steps[s][1]
                if total != 1 or dirty:
                    data = data or tiler.letters(w)
                    for i in range(s, end):
                        suspects.setdefault(data[i : i + n], (phases, i))
        for data in sorted(suspects):
            phases, start = suspects[data]
            reason, _ = _evaluate(kind, cert, _cut(phases, span, start, start + n), "")
            if reason is not None:
                return reason, f"block:{Word(self.source.alphabet, data).text}"
        return None, ""


def _verify(kind: _Kind, lang, cert, radius: int | None) -> ParseVerdict:
    source = as_source(lang)
    if cert.c0.alphabet != source.alphabet:
        raise DomainError(f"certificate is not over alphabet {source.alphabet}")
    span = cert.span
    if radius is None:
        radius = 32 * span
    if radius < 3 * span:
        raise RangeError(f"radius {radius} below 3 tiles of {span}")
    if cert.c0 == cert.c1:
        return ParseVerdict(
            False, (), BLOCKS_EQUAL, kind.name, radius, "C0 and C1 coincide"
        )
    return _Checker(kind, source, span, radius).verdict(cert)


def verify_toeplitz_certificate(
    lang, cert: ToeplitzCertificate, radius: int | None = None
) -> ParseVerdict:
    """Check a Toeplitz certificate on every sampled window and every
    language block of length twice the radius."""
    return _verify(_TOEPLITZ, lang, cert, radius)


def verify_morse_certificate(
    lang, cert: MorseCertificate, radius: int | None = None
) -> ParseVerdict:
    """Check a Morse certificate: unique phase, carrier parity with no
    overlap among C0/C1 tokens, and the nearest-neighbor gap rule."""
    return _verify(_MORSE, lang, cert, radius)


# -- recoding -------------------------------------------------------------

#: Token -> target letter: C0 (and C0') recode to letter 0, C1 (and C1') to 1.
_PARITY = bytes(t & 1 for t in range(256))


def _recode(kind: _Kind, k: int, verdict: ParseVerdict, index: int) -> Window:
    if verdict.kind != kind.name:
        raise DomainError(f"expected a {kind.name} verdict")
    if not verdict.accepted:
        raise StateError("recode needs tokens from an accepted verdict")
    try:
        entry = verdict.phases[index]
    except IndexError:
        raise RangeError(f"verdict has no phase entry {index}") from None
    target = kind.target
    letters = entry.tokens.letters.translate(_PARITY)
    images = target._iterate(k)
    out = b"".join(images[a] for a in letters)
    origin = min(max(-entry.start, 0), len(out))
    # a (2**k + 2)-piece of the image starts in the image of some token a:
    # it lies in sigma**k(ab) for the next token b, or it is
    # last(sigma**k(a)) sigma**k(b) first(sigma**k(c)); the target maps its
    # language into itself, so only pairs and triples outside it are read
    span = 1 << k
    for width, cuts in ((2, range(span - 1)), (3, range(span - 1, span))):
        ends = range(len(letters) - width + 1)
        for block in sorted({letters[i : i + width] for i in ends}):
            if _is_factor(target, block):
                continue
            # a piece past the factor test's cap is refused, not rejected
            target._check_power(k + 1)
            x = b"".join(images[a] for a in block)[: cuts.stop + span + 1]
            o = cuts.start
            while o < cuts.stop:  # skip the pieces inside the longest factor at o
                n = _least(lambda n: not _is_factor(target, x[o : o + n]), len(x) - o + 1)
                if n <= span + 2:
                    text = Word(target.alphabet, x[o : o + span + 2]).text
                    raise ConsistencyError(
                        f"recoded block {text!r} is not a {target.spec()} factor"
                    )
                o += n - span - 2
    return Window(Word(target.alphabet, out), origin)


def recode_toeplitz(
    cert: ToeplitzCertificate, verdict: ParseVerdict, index: int = 0
) -> Window:
    """Recode an accepted token parse: C0 -> tau**k(0), C1 -> tau**k(1)."""
    return _recode(_TOEPLITZ, cert.k, verdict, index)


def recode_morse(
    cert: MorseCertificate, verdict: ParseVerdict, index: int = 0
) -> Window:
    """Recode an accepted Morse parse by identity: C0, C0' -> mu**k(0) and
    C1, C1' -> mu**k(1); gap identities come from the neighbor table."""
    return _recode(_MORSE, cert.k, verdict, index)


# -- searches -------------------------------------------------------------


def _search(kind: _Kind, lang, kmax: int):
    if kmax < 0:
        raise RangeError("kmax must be >= 0")
    if kmax >= DEFAULT_MAX_LEN.bit_length():
        raise CapacityError(f"blocks of 2**{kmax} letters exceed cap {DEFAULT_MAX_LEN}")
    source = as_source(lang)
    for k in range(kmax + 1):
        span = 1 << k
        checker = _Checker(kind, source, span, 32 * span)
        if not checker.tiler.words:  # no window and no 2R-block to parse
            continue
        # the reference word is a window or block of the system, so its tiles are blocks
        for blocks in sorted(_candidates(kind, checker.tiler.tiles(0))):
            cert = kind.certificate(k, *(Word(source.alphabet, b) for b in blocks))
            if checker.verdict(cert).accepted:
                return cert
    return None


def search_toeplitz_certificate(lang, kmax: int) -> ToeplitzCertificate | None:
    """Least certificate in (k, C0, C1) lexicographic order, or None; the
    blocks are tiles of the reference word, and no block set is read."""
    return _search(_TOEPLITZ, lang, kmax)


def search_morse_certificate(lang, kmax: int) -> MorseCertificate | None:
    """Least certificate in (k, C0, C1, C0', C1') lexicographic order, or
    None, from tiles of the reference word: no block set is read."""
    return _search(_MORSE, lang, kmax)


# -- necessary conditions -------------------------------------------------


@dataclass(frozen=True)
class NecessaryReport:
    """Cheap necessary conditions for conjugacy with Toeplitz or Morse."""

    kind: str
    injective: bool
    primitive: bool
    length: int
    length_power_of_two: bool
    alphabet_size: int
    alphabet_bound: int

    @property
    def alphabet_bound_ok(self) -> bool:
        return self.alphabet_size <= self.alphabet_bound

    @property
    def all_pass(self) -> bool:
        return (
            self.injective
            and self.primitive
            and self.length_power_of_two
            and self.alphabet_bound_ok
        )


def necessary_conditions(kind: str, sub: Substitution) -> NecessaryReport:
    if kind not in ("toeplitz", "morse"):
        raise DomainError(f"unknown certificate kind {kind!r}")
    r = sub.length
    return NecessaryReport(
        kind=kind,
        injective=sub.is_injective(),
        primitive=sub._primitive,
        length=r,
        length_power_of_two=r & (r - 1) == 0,
        alphabet_size=sub.alphabet.size,
        alphabet_bound=3 if kind == "toeplitz" else 6,
    )


# -- induced substitutions ------------------------------------------------


@dataclass(frozen=True)
class DerivedSubstitution:
    """Induced substitution on higher-block letters; ``blocks[a]`` is the
    source-language block that the derived letter a stands for."""

    substitution: Substitution
    blocks: tuple[Word, ...]
    primitive: bool


def derive_substitution(lang, rule: LocalRule, r: int) -> DerivedSubstitution:
    """Build the substitution induced by a conjugacy onto an r-fold image.

    The rule must have no memory and emit r-blocks: one window of
    anticipation m yields the r output letters of one tile.  Sliding it
    over an (m*r + 1)-block produces the (m*r + r)-block whose r
    overlapping (m*r + 1)-blocks are the images of the derived letter.
    """
    source = as_source(lang)
    if r < 2:
        raise RangeError("r must be >= 2")
    if rule.memory != 0:
        raise DomainError("the rule must have no memory")
    if rule.out_len != r:
        raise DomainError(f"the rule must emit r-blocks, emits {rule.out_len}")
    if rule.input_alphabet != source.alphabet or rule.output_alphabet != source.alphabet:
        raise DomainError("rule alphabets must match the language source")
    m = rule.anticipation
    span = m * r + 1
    lang_blocks = source.blocks(span)
    if lang_blocks is None:
        raise DomainError(f"language source provides no blocks of length {span}")
    blocks = sorted(lang_blocks)
    if len(blocks) > len(_TOKEN_SYMBOLS):
        raise CapacityError("too many block letters to name")
    if all(len(b) == 1 for b in blocks):
        symbols = tuple(b.text for b in blocks)
    else:
        symbols = tuple(_TOKEN_SYMBOLS[: len(blocks)])
    alphabet = Alphabet(symbols)
    index = {b.letters: i for i, b in enumerate(blocks)}
    width = m + 1
    images = []
    for b in blocks:
        data = b.letters
        image = b"".join(rule.lookup(data[t : t + width]) for t in range(m + 1))
        letters = bytearray()
        for t in range(r):
            piece = image[t : t + span]
            li = index.get(piece)
            if li is None:
                raise ConsistencyError(
                    f"rule image block {Word(source.alphabet, piece).text!r} "
                    "is not in the language"
                )
            letters.append(li)
        images.append(Word(alphabet, bytes(letters)))
    derived = Substitution(alphabet, tuple(images))
    return DerivedSubstitution(derived, tuple(blocks), derived._primitive)


# -- self-similarity ------------------------------------------------------


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Evidence that a substitution maps its own language properly inside
    itself: image blocks versus all blocks, and phase-uniqueness of
    desubstitution on sample windows."""

    n: int
    image_count: int
    block_count: int
    contained: bool
    proper: bool
    unique_phase: bool


def self_similarity_witness(sub: Substitution, n: int) -> SelfSimilarityReport:
    if not sub.is_injective():
        raise PreconditionError("self-similarity witness needs an injective substitution")
    r = sub.length
    lang_n = sub.language(n)
    images = {sub.apply(w) for w in lang_n}
    lang_rn = sub.language(r * n)
    contained = images <= lang_rn
    radius = max(16, 4 * r)
    unique = True
    for seed in system_seeds(sub):
        phases = sub.desubstitute(1, sub.periodic_window(seed, radius))
        if len(phases) != 1:
            unique = False
    return SelfSimilarityReport(
        n=n,
        image_count=len(images),
        block_count=len(lang_rn),
        contained=contained,
        proper=contained and len(images) < len(lang_rn),
        unique_phase=unique,
    )
