"""Forbidden-pattern scanners.

Two patterns are searched for:

* an overlap BBb, a square BB immediately followed by the first letter of B
  again;
* a square BB where B contains an even number of a marked letter, zero
  included.

Every factor of the Morse minimal set is overlap-free, and every factor of
the Toeplitz minimal set, with 0 marked, is free of even squares.  Only
this direction holds for finite words: 00100 has no overlap and is no Morse
factor, and 1001 has no even square and is no Toeplitz factor.  Of the
binary words of length 12, 24 avoid overlaps without being Morse factors
and 10 avoid even squares without being Toeplitz factors.

Witnesses are reported deterministically: smallest start, then smallest
half length.  A word goes first to ``substitution._is_factor``, one
substring search in the covering words of the Morse or Toeplitz language:
a Morse factor has no overlap, and a Toeplitz factor, after a renaming that
makes the marked letter 0, has no even square.  Every other word runs one
bit-parallel sweep over the half length h.  The word is
packed into one Python int per bit of the letter code, and from these one
int E_h whose bit i says w[i] == w[i + h].  An overlap of half h at i is
h + 1 consecutive ones of E_h from bit i; an even square is h ones there
whose half holds evenly many marked letters, read off a prefix-parity int.
A run of k ones takes about log2(k) shift-and steps.  The lowest set bit
gives the least start for each h, and h grows, so a later h replaces the
witness only with a strictly smaller start: the same (start, half length)
tie-break as the plain double loop over starts and half lengths.  The sweep
is quadratic in the word length, but each big-int step covers a machine
word of starts at once.

A word of at least ``_CORE_MIN`` letters that is no factor is swept only
around its non-factor core.  Factors of a factor are factors, and no
witness is a factor.  Let w have n letters, e = 1 for overlaps and e = 0
for squares, and read "factor" through the renaming above.  Four monotone
searches over the factor test give

* f, the length of the longest factor prefix, and x1, the greatest a such
  that X1 = w[x1 : f + 1] is no factor;
* g, the least start of a factor suffix, x2 = g - 1, and y2, the least b
  such that X2 = w[x2 : y2] is no factor.

(*) A span w[a:b] that is no factor has b > f and a < g: it lies neither
in the factor prefix w[:f] nor in the factor suffix w[g:].

Lemma.  If g > f - e, every witness of half h at s has x1 < s + h < y2 - e
and h < y2 - x1.

Proof.  Let m = s + h.  By (*) the witness has m + h + e > f and s < g.  Its
two copies A = w[s : m + e] and B = w[m : m + h + e] are the same word, so
both are factors or neither is.

(i) Both are factors.  B ends past f, so m <= x1 would put X1 in B; A
starts before g, so m + e >= y2 would put X2 in A.  So x1 < m < y2 - e.  A
in the prefix (m + e <= f) and B in the suffix (m >= g) would give
g <= f - e, which is excluded.  If A leaves the prefix, it ends past f and
does not hold X1, so s > x1 and h = m - s < y2 - x1.  If B leaves the
suffix, it starts at m <= x2 and does not hold X2, so m + h + e < y2 and
h < y2 - m < y2 - x1.

(ii) Neither is a factor.  By (*) for A and B, f - e < m <= x2 < y2.  So
x1 <= f < m when e = 0.  When e = 1 the copies overlap in w[m], and
w[s] = w[m] = w[m + h].  Then m = x1 = f would make the letter w[f] no
factor although it equals w[s] in the factor prefix, and m = x2 = y2 - 1
would do the same with w[m + h] in the factor suffix.  So x1 < m < y2 - e.
If s <= x1, A holds X1, so B holds its copy at x1 + h, and (*) gives
x1 + h < g, so h <= x2 - x1.  Otherwise h = m - s < m - x1 <= x2 - x1.
Both are less than y2 - x1.  []

So with top = y2 - x1 every witness lies in w[x1 - top : y2 + top] and has
half less than top: the sweep runs on that window alone, with halves
capped at top, and its starts are shifted back by the window's start.  That
keeps the (start, half length) order.  When g <= f - e, for a marked letter
other than 0 and 1, and below ``_CORE_MIN`` letters, the sweep runs on the
whole word.  The searches double and then halve, so each takes about
2 log2 k factor tests of at most 2k letters for a result k, which makes the
window cheap to find when the core is short and the word is long.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .substitution import MORSE, TOEPLITZ, Substitution, _is_factor
from .words import _SWAP01, Word

OVERLAP_KIND = "overlap_BBb"
EVEN_SQUARE_KIND = "even_square_BB"

#: Words longer than this are refused by the scanners.
DEFAULT_SCAN_CAP = 1 << 16

# Words shorter than this are swept whole.  The searches of ``_core`` take
# about 0.05 ms, as long as the whole sweep of a 64-letter word, and a word
# with witnesses all along, such as a random one, has the whole word for its
# window; from about 1,024 letters they cost under 5% of a sweep.
_CORE_MIN = 1 << 10

# digit tables for bytes.translate: plane j maps a letter to bit j of its code
_BIT_TABLES = tuple(bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8))


@dataclass(frozen=True)
class PatternWitness:
    """Location of one forbidden pattern: B = w[start : start + period]."""

    start: int
    period: int
    kind: str
    zero: int | None = None

    def matches(self, w: Word) -> bool:
        """Replay the witness against a word."""
        i, n = self.start, self.period
        data = w.letters
        if i < 0 or n < 1:
            return False
        if data[i : i + n] != data[i + n : i + 2 * n]:
            return False
        if self.kind == OVERLAP_KIND:
            return i + 2 * n < len(data) and data[i + 2 * n] == data[i]
        if self.kind == EVEN_SQUARE_KIND:
            if i + 2 * n > len(data) or self.zero is None:
                return False
            return data[i : i + n].count(self.zero) % 2 == 0
        return False


def _check_scan_len(w: Word) -> None:
    if len(w) > DEFAULT_SCAN_CAP:
        raise CapacityError(f"word of length {len(w)} exceeds scan cap {DEFAULT_SCAN_CAP}")


def _plane(data: bytes, table: bytes) -> int:
    """Bit i is the digit that ``table`` gives the letter data[i].

    Base 2 is exempt from the int-string digit limit.
    """
    return int(data[::-1].translate(table), 2)


def _least_repeat(
    data: bytes, extra: int, zero: int | None, cap: int
) -> tuple[int, int] | None:
    """Least (start, half) of a factor of length 2*half + extra with period
    half <= cap; with ``zero`` set, only those whose first half holds evenly
    many ``zero`` letters count."""
    n = len(data)
    top = min((n - extra) // 2, cap)
    if top < 1:
        return None
    planes = [_plane(data, _BIT_TABLES[j]) for j in range(max(data).bit_length())]
    full = (1 << n) - 1
    if zero is not None:
        # bit i of q: parity of the zero letters in data[: i + 1]; in a square
        # data[i] == data[i + half], so q[i] == q[i + half] says the half at i
        # holds evenly many
        marked = bytearray(b"0" * 256)
        marked[zero] = ord("1")
        q = _plane(data, marked)
        step = 1
        while step < n:
            q ^= q << step
            step <<= 1
        q &= full
    best: tuple[int, int] | None = None
    for half in range(1, top + 1):
        diff = 0
        for p in planes:
            diff |= p ^ (p >> half)
        # bit i: data[i] == data[i + half]; bits i >= n - half are junk, and
        # so are the run bits they feed, which all lie above the last start
        runs = diff ^ full
        need, have = half + extra, 1
        while have < need and runs:
            step = min(have, need - have)
            runs &= runs >> step
            have += step
        if zero is not None and runs:
            runs &= ~(q ^ (q >> half))
        if runs:
            start = (runs & -runs).bit_length() - 1
            if start <= n - 2 * half - extra and (best is None or start < best[0]):
                best = (start, half)
                if start == 0:
                    break
    return best


def _least(ok, limit: int) -> int:
    """The least k in [1, limit] with ok(k), for ok monotone: doubling, then
    halving, in about 2 log2 k calls.  ok(limit) is never called, so limit
    is returned whenever ok holds nowhere below it."""
    lo, hi = 0, 1
    while hi < limit and not ok(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, limit)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _core(target: Substitution, probe: bytes, extra: int) -> tuple[int, int, int] | None:
    """(lo, hi, top): every witness of a non-factor ``probe`` lies in
    probe[lo:hi] with half at most top; None when the lemma does not apply."""
    n = len(probe)

    def outside(i: int, j: int) -> bool:
        return not _is_factor(target, probe[i:j])

    f = _least(lambda k: outside(0, k), n) - 1
    g = n + 1 - _least(lambda k: outside(n - k, n), n)
    if g <= f - extra:
        return None
    x1 = f + 1 - _least(lambda k: outside(f + 1 - k, f + 1), f + 1)
    x2 = g - 1
    y2 = x2 + _least(lambda k: outside(x2, x2 + k), n - x2)
    top = y2 - x1
    return max(0, x1 - top), min(n, y2 + top), top


def _scan(
    target: Substitution, probe: bytes | None, data: bytes, extra: int,
    zero: int | None = None,
) -> tuple[int, int] | None:
    """Least witness in ``data``; ``probe`` is ``data`` renamed into the
    letters of ``target``, or None where no factor test applies."""
    lo, hi, top = 0, len(data), len(data)
    if probe is not None:
        if _is_factor(target, probe):
            return None
        if len(data) >= _CORE_MIN:
            lo, hi, top = _core(target, probe, extra) or (lo, hi, top)
    hit = _least_repeat(data[lo:hi], extra, zero, top)
    return None if hit is None else (hit[0] + lo, hit[1])


def find_overlap(w: Word) -> PatternWitness | None:
    """First overlap BBb in the word, or None; works over any alphabet."""
    _check_scan_len(w)
    hit = _scan(MORSE, w.letters, w.letters, 1)
    return None if hit is None else PatternWitness(*hit, OVERLAP_KIND)


def find_even_square(w: Word, zero: int = 0) -> PatternWitness | None:
    """First square BB whose half contains evenly many ``zero`` letters.

    A count of zero occurrences counts as even, so any square over letters
    other than ``zero`` is already forbidden.
    """
    _check_scan_len(w)
    if not 0 <= zero < w.alphabet.size:
        raise DomainError(f"marked letter {zero} not in alphabet {w.alphabet}")
    data = w.letters
    probe = None if zero > 1 else data.translate(_SWAP01) if zero else data
    hit = _scan(TOEPLITZ, probe, data, 0, zero)
    return None if hit is None else PatternWitness(*hit, EVEN_SQUARE_KIND, zero)


@dataclass(frozen=True)
class WordReport:
    """Classification facts about one binary word, reported independently."""

    word: Word
    overlap: PatternWitness | None
    even_square: PatternWitness | None
    morse_factor: bool
    toeplitz_factor: bool


def classify_word(w: Word) -> WordReport:
    """Run both scanners and both factor tests.

    Factor membership in the Morse and Toeplitz languages is exact for
    every word the scanners accept: one substring search in the covering
    words each.  The word must be over the binary alphabet 01.
    """
    if w.alphabet.size != 2 or w.alphabet.symbols != ("0", "1"):
        raise DomainError("classify_word expects a word over the alphabet 01")
    factors = (_is_factor(sub, w.letters) for sub in (MORSE, TOEPLITZ))
    return WordReport(w, find_overlap(w), find_even_square(w, 0), *factors)
