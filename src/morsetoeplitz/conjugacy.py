"""Block certificates for conjugacy with the Toeplitz and Morse systems.

A system is handed to the verifiers as a language source: either a
primitive substitution (windows come from its periodic seeds and blocks
from its language) or an explicit provider of windows and block sets.  All
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
certificate tiles; only the other windows are parsed one by one, in sorted
order, so a rejection still names the least failing block.  Searches
derive candidates from the first sampled window, which any accepted
certificate must parse: C0/C1 from the (carrier) tiles of a phase, C0'/C1'
from its gaps by the neighbor table, open slots from the language blocks.
As the derived set holds every certificate that can be accepted, verifying
it in lexicographic order still returns the least certificate.

``derive_substitution`` runs the constructive direction: from a block rule
realizing a conjugacy onto an r-fold self-similar image it builds the
induced substitution on higher-block letters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import accumulate, product
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
from .patterns import find_even_square, find_overlap
from .sliding import LocalRule
from .substitution import MORSE, TOEPLITZ, Substitution, _image, system_seeds
from .words import Alphabet, BINARY, Window, Word, phase_tokens, tile_phases

# failure reasons reported by the verifiers
NO_PHASE = "no_phase"
MULTIPLE_PHASES = "multiple_phases"
TOKEN_PATTERN = "token_pattern"
GAP_RULE = "gap_rule"
BLOCKS_EQUAL = "blocks_equal"

_TOKEN_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

#: Token alphabet of Morse parses: 0 = C0, 1 = C1, a = C0', b = C1'.
MORSE_TOKENS = Alphabet(("0", "1", "a", "b"))

#: The six ordered token pairs that may appear in an accepted Morse parse,
#: as identity indices: C0C1, C0C1', C1C0, C1C0', C0'C0, C1'C1.
MORSE_ALLOWED_PAIRS = frozenset({(0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (3, 1)})


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
        k = int(payload["k"])
        keys = ("C0", "C1", "C0p", "C1p")[: 4 if kind == "morse" else 2]
        blocks = [alphabet.word(str(payload[key])) for key in keys]
        if kind in ("toeplitz", "morse"):
            cls = ToeplitzCertificate if kind == "toeplitz" else MorseCertificate
            return cls(k, *blocks)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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

    def sample_windows(self, radius: int) -> list[tuple[str, Window]]: ...


class SubstitutionSource:
    """Windows and blocks of the minimal system of a primitive substitution."""

    def __init__(self, substitution: Substitution) -> None:
        self.substitution = substitution

    @property
    def alphabet(self) -> Alphabet:
        return self.substitution.alphabet

    def blocks(self, n: int) -> frozenset[Word] | None:
        return self.substitution.language(n)

    def sample_windows(self, radius: int) -> list[tuple[str, Window]]:
        sub = self.substitution
        return [
            (f"seed {seed}", sub.periodic_window(seed, radius))
            for seed in system_seeds(sub)
        ]


@dataclass
class ExplicitSource:
    """Hand-supplied windows and block sets for systems without a substitution."""

    alphabet: Alphabet
    windows: tuple[Window, ...]
    blocks_by_length: Mapping[int, frozenset[Word]] = field(default_factory=dict)

    def blocks(self, n: int) -> frozenset[Word] | None:
        return self.blocks_by_length.get(n)

    def sample_windows(self, radius: int) -> list[tuple[str, Window]]:
        return [(f"window[{i}]", w) for i, w in enumerate(self.windows)]


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
        PhaseParse(j, t0, Word(token_alphabet, bytes(toks)))
        for j, t0, toks in phase_tokens(win, span, index)
        if None not in toks
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

# depth of a parse check: 0 short run, 1 foreign carrier, 2 pattern, 3 gap
# rule, 4 eligible; a window with no eligible parse fails at the deepest one
_DEPTH_REASON = (NO_PHASE, TOKEN_PATTERN, TOKEN_PATTERN, GAP_RULE)


def _codes(cert) -> dict[bytes, int]:
    """Tile -> bit set of the certificate blocks it equals."""
    bits = list(enumerate(cert.blocks))
    return {b.letters: sum(1 << i for i, c in bits if c == b) for _, b in bits}


def _run(toks: list, i0: int, stride: int) -> list:
    """Tokens from carrier position i0 to the last carrier position."""
    return toks[i0 : i0 + (len(toks) - i0 - 1) // stride * stride + 1]


def _conditions(kind: _Kind, run: list) -> tuple[int, bytes]:
    """Depth reached on a run of tile codes from carrier to carrier, and
    its parse tokens, gap tokens being neighbor-table identities."""
    if len(run) < 3:
        return 0, b""
    carriers = run[:: kind.stride]
    if not all(c & 3 for c in carriers):
        return 1, b""
    letters = bytes(0 if c & 1 else 1 for c in carriers)
    if kind.pattern(Word(BINARY, letters)) is not None:
        return 2, letters
    if kind is _TOEPLITZ:
        return 4, letters
    gaps = bytes(_GAP_IDENTITY[pair] for pair in zip(letters, letters[1:]))
    if not all(code >> gap & 1 for code, gap in zip(run[1::2], gaps)):
        return 3, b""
    tokens = bytearray(run)
    tokens[::2], tokens[1::2] = letters, gaps
    return 4, bytes(tokens)


def _evaluate(kind: _Kind, cert, phases, label: str):
    """Failure reason of one window, or the parse it is accepted with."""
    depth, entries = 0, []
    for j, t0, toks in phases:
        for parity in range(kind.stride) if all(toks) else ():
            i0 = ((t0 - j) // cert.span - parity) % kind.stride
            d, tokens = _conditions(kind, _run(toks, i0, kind.stride))
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


def _segments(kind: _Kind, toks: list[int]):
    """Per carrier parity, the maximal runs [lo, hi) of one row of tile codes
    (0 off the certificate) with C0/C1 carriers and gaps that follow the
    neighbor table, widened by a certificate tile on each side for a window
    to trim away, and their carrier letters."""
    s, n = kind.stride, len(toks)
    toks = toks + [0] * s
    for first_carrier in range(s):
        first = last = -1
        for c in range(first_carrier, n + s, s):
            code = toks[c]
            letter = 0 if code & 1 else 1
            if first >= 0 and code & 3 and (
                s == 1 or toks[c - 1] >> _GAP_IDENTITY[letters[-1], letter] & 1
            ):
                letters.append(letter)
                last = c
                continue
            if first >= 0:
                lo, hi = first - (toks[first - 1] > 0), last + 1 + (toks[last + 1] > 0)
                yield lo, hi, bytes(letters)
            first = last = c if code & 3 else -1
            letters = bytearray((letter,))


def _candidates(kind: _Kind, phases, tiles: list[bytes], blocks: set[bytes]) -> set:
    """Block tuples that parse the reference window at some phase and
    parity: C0 and C1 hold the carrier tiles, each gap fixes the slot the
    neighbor table names, and a slot no tile fixes ranges over ``blocks``."""
    out = set()
    for _, _, row in phases:
        for i0 in range(kind.stride):
            run = [tiles[i] for i in _run(row, i0, kind.stride)]
            if len(run) < 3:
                continue
            carriers = run[:: kind.stride]
            seen = set(carriers)  # {C0, C1} holds it; one tile leaves C1 or C0 open
            pool = seen | blocks if len(seen) == 1 else seen if len(seen) == 2 else ()
            for c0, c1 in product(pool, repeat=2):
                if c0 == c1 or not seen <= {c0, c1}:
                    continue
                letters = bytes(0 if t == c0 else 1 for t in carriers)
                if kind.pattern(Word(BINARY, letters)) is not None:
                    continue
                slots = [c0, c1] + [None] * (kind.slots - 2)
                for i in range(1, len(run), 2) if kind is _MORSE else ():
                    slot = _GAP_IDENTITY[letters[i // 2], letters[i // 2 + 1]]
                    if slots[slot] not in (None, run[i]):
                        break
                    slots[slot] = run[i]
                else:
                    out.update(product(*(blocks if b is None else [b] for b in slots)))
    return out


# -- verification --------------------------------------------------------


class _Checker:
    """Checks certificates of one kind, span and radius R on one source,
    tiling its sampled windows and covering words once for all of them."""

    def __init__(self, kind: _Kind, source: LanguageSource, span: int, radius: int):
        self.kind, self.source, self.span, self.radius = kind, source, span, radius
        self.ids: dict[bytes, int] = {}
        self.samples = [
            (label, tile_phases(win, span, self.ids))
            for label, win in source.sample_windows(radius)
        ]
        n = 2 * radius
        if isinstance(source, SubstitutionSource):
            words = source.substitution.covering_words(n)
        else:  # each block covers itself; other lengths are checked alone
            words = source.blocks(n) or ()
        tiled = [tile_phases(Window(w, 0), span, self.ids) for w in words]
        self.covers = [(w.letters, phases) for w, phases in zip(words, tiled)]

    def verdict(self, cert) -> ParseVerdict:
        kind, radius = self.kind, self.radius
        codes = _codes(cert)
        table = [codes.get(t, 0) for t in self.ids]
        entries = []
        for label, phases in self.samples:
            toks = [(j, t0, [table[i] for i in row]) for j, t0, row in phases]
            reason, entry = _evaluate(kind, cert, toks, label)
            if reason is not None:
                break
            entries.append(entry)
        else:
            reason, label = self._failing_block(cert, codes, table)
        if reason is not None:
            return ParseVerdict(False, (), reason, kind.name, radius, label)
        return ParseVerdict(True, tuple(entries), None, kind.name, radius)

    def _failing_block(self, cert, codes, table) -> tuple[str | None, str]:
        """Reason and label of the least failing 2R-block.

        The 2R-window at s of a covering word lies in the segment [p, q) of
        residue j iff j + (p-1)*span < s < j + (q+1)*span - 2R.  A window in
        exactly one segment, whose letters are free of the pattern, passes:
        its own letters are a factor of those, and 2R >= 6*span letters hold
        5 tiles at any phase, so a Morse run keeps 3 after trimming.  Every
        other window is evaluated on its own, in sorted order."""
        kind, span, n = self.kind, self.span, 2 * self.radius
        suspects = set()
        for data, phases in self.covers:
            windows = len(data) - n + 1
            if windows != 1 and not isinstance(self.source, SubstitutionSource):
                suspects.add(data)
                continue
            total, dirty = [0] * (windows + 1), [0] * (windows + 1)
            for j, _, row in phases:
                for p, q, letters in _segments(kind, [table[i] for i in row]):
                    lo = max(j + (p - 1) * span + 1, 0)
                    hi = min(j + (q + 1) * span - n, windows)
                    if lo < hi:
                        total[lo] += 1
                        total[hi] -= 1
                        if kind.pattern(Word(BINARY, letters), max_len=len(letters)):
                            dirty[lo] += 1
                            dirty[hi] -= 1
            for s, t, d in zip(range(windows), accumulate(total), accumulate(dirty)):
                if t != 1 or d:
                    suspects.add(data[s : s + n])
        for data in sorted(suspects):
            win = Window(Word(self.source.alphabet, data), len(data) // 2)
            reason, _ = _evaluate(kind, cert, phase_tokens(win, span, codes), "")
            if reason is not None:
                ordered = sorted(self.source.blocks(n))
                i = bisect_left([b.letters for b in ordered], data)
                return reason, f"block[{i}]:{ordered[i].text}"
        return None, ""


def _verify(kind: _Kind, lang, cert, radius: int | None) -> ParseVerdict:
    source = as_source(lang)
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


def morse_identity_pairs(verdict: ParseVerdict) -> frozenset[tuple[int, int]]:
    """All ordered adjacent identity pairs across the verdict's parses."""
    pairs = set()
    for entry in verdict.phases:
        toks = entry.tokens.letters
        pairs.update(zip(toks, toks[1:]))
    return frozenset(pairs)


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
    out = _image(target._iterate(k), entry.tokens.letters.translate(_PARITY))
    origin = min(max(-entry.start, 0), len(out))
    window = Window(Word(target.alphabet, out), origin)
    depth = (1 << k) + 2
    good = target.language(depth)
    for piece in window.word.factors(min(depth, len(out))):
        if piece not in good and len(piece) == depth:
            raise ConsistencyError(
                f"recoded block {piece.text!r} is not a {target.spec()} factor"
            )
    return window


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


def _search(kind: _Kind, lang, kmax: int, max_span: int):
    if kmax < 0:
        raise RangeError("kmax must be >= 0")
    source = as_source(lang)
    for k in range(kmax + 1):
        span = 1 << k
        if span > max_span:
            raise CapacityError(f"2**{k} exceeds block cap {max_span}")
        words = {b.letters: b for b in source.blocks(span) or ()}
        checker = _Checker(kind, source, span, 32 * span)
        if checker.samples:
            ref = checker.samples[0][1]
            candidates = _candidates(kind, ref, list(checker.ids), set(words))
        else:
            candidates = product(words, repeat=kind.slots)
        for blocks in sorted(
            c for c in candidates if c[0] != c[1] and all(b in words for b in c)
        ):
            cert = kind.certificate(k, *(words[b] for b in blocks))
            if checker.verdict(cert).accepted:
                return cert
    return None


def search_toeplitz_certificate(
    lang, kmax: int, max_span: int = 1 << 16
) -> ToeplitzCertificate | None:
    """Least certificate in (k, C0, C1) lexicographic order, or None."""
    return _search(_TOEPLITZ, lang, kmax, max_span)


def search_morse_certificate(
    lang, kmax: int, max_span: int = 1 << 16
) -> MorseCertificate | None:
    """Least certificate in (k, C0, C1, C0', C1') lexicographic order."""
    return _search(_MORSE, lang, kmax, max_span)


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


def self_similarity_witness(
    sub: Substitution, n: int, radius: int | None = None
) -> SelfSimilarityReport:
    if not sub.is_injective():
        raise PreconditionError("self-similarity witness needs an injective substitution")
    r = sub.length
    lang_n = sub.language(n)
    images = {sub.apply(w) for w in lang_n}
    lang_rn = sub.language(r * n)
    contained = images <= lang_rn
    if radius is None:
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
