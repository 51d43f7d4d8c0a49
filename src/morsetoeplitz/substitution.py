"""Constant-length substitutions and the words they generate.

A substitution of length r sends every letter to a word of r letters over
the same alphabet.  Applied letterwise it maps words to words; iterated
from a periodic seed it fills a bilateral window coherently.

Conventions used throughout:

* A seed (a, b, p) asks for the two-sided point of the p-th iterate whose
  letter at bilateral index -1 is a and whose letter at index 0 is b.  It
  is admissible when the p-th image of a ends with a and the p-th image of
  b begins with b; then the leftward iterates of a and the rightward
  iterates of b grow coherently and any finite radius can be filled.
* Parse phases are residues of bilateral indices.  A window tiles at phase
  j in [0, r**k) when the blocks starting at bilateral indices congruent
  to j modulo r**k all belong to the prescribed block set.

``language`` computes the n-block language of a primitive substitution by
closing the set of 2-blocks under the substitution and then reading the
n-factors of the covering words sigma**m(ab), one per 2-block ab;
``language_brute`` is the slow iterate-and-collect oracle kept for
cross-validation and must agree with it.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from . import graphs
from .errors import (
    CapacityError,
    DegenerateError,
    DomainError,
    InsufficientWindowError,
    PrimitivityError,
    RangeError,
    SeedError,
)
from .words import Alphabet, Window, Word, _trusted_word, phase_tokens

#: Cap on the length of any materialized word.
DEFAULT_MAX_LEN = 1 << 20

#: Cap on the bytes of n-factors that ``language(n)`` may collect: n times the
#: number of factor positions in its covering words.  Morse at n = 4096 needs
#: 2**26 and change; n = 8192 would need 2**28.
LANGUAGE_BYTES_CAP = 1 << 27


@dataclass(frozen=True, order=True)
class Seed:
    """Periodic seed: letter ``left`` at index -1, ``right`` at index 0."""

    left: int
    right: int
    period: int

    def __str__(self) -> str:
        return f"({self.left}.{self.right}, p={self.period})"


@dataclass(frozen=True)
class Substitution:
    """A constant-length substitution; ``images[a]`` is the image of letter a."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.alphabet.size:
            raise DomainError("need exactly one image per letter")
        lengths = {len(im) for im in self.images}
        if lengths != {len(self.images[0])} or len(self.images[0]) < 2:
            raise DomainError("images must share one length r >= 2")
        for im in self.images:
            if im.alphabet != self.alphabet:
                raise DomainError("images must be words over the same alphabet")

    @property
    def length(self) -> int:
        """The constant image length r."""
        return len(self.images[0])

    def image(self, letter: int) -> Word:
        if not 0 <= letter < self.alphabet.size:
            raise DomainError(f"letter {letter} not in alphabet {self.alphabet}")
        return self.images[letter]

    def spec(self) -> str:
        """Render in the ``a->w;b->w`` rule format accepted by parse_substitution."""
        return ";".join(
            f"{self.alphabet.symbols[a]}->{self.images[a].text}"
            for a in range(self.alphabet.size)
        )

    def __str__(self) -> str:
        return self.spec()

    # -- application ------------------------------------------------------

    def apply(self, w: Word) -> Word:
        """Image of a word, letterwise concatenation; length multiplies by r."""
        if w.alphabet != self.alphabet:
            raise DomainError("word is over a different alphabet")
        return Word(self.alphabet, _image(self._letters, w.letters))

    def power(self, k: int, max_len: int = DEFAULT_MAX_LEN) -> Substitution:
        """The k-th iterate as a substitution of length r**k."""
        if k < 1:
            raise RangeError("power needs k >= 1")
        return Substitution(
            self.alphabet,
            tuple(Word(self.alphabet, w) for w in self._iterate(k, max_len)),
        )

    def _check_power(self, k: int, max_len: int) -> None:
        if self.length**k > max_len:
            raise CapacityError(f"r**k = {self.length}**{k} exceeds cap {max_len}")

    def _iterate(self, k: int, max_len: int = DEFAULT_MAX_LEN) -> tuple[bytes, ...]:
        """Letter images of sigma**k for k >= 0, the letters themselves at
        k = 0: the k-th image of the word of all letters, cut into r**k-blocks."""
        self._check_power(k, max_len)
        data = bytes(range(self.alphabet.size))
        for _ in range(k):
            data = _image(self._letters, data)
        span = self.length**k
        return tuple(data[i : i + span] for i in range(0, len(data), span))

    @functools.cached_property
    def _letters(self) -> tuple[bytes, ...]:
        return tuple(im.letters for im in self.images)

    # -- periodic points --------------------------------------------------

    def periodic_seeds(self, p: int) -> list[Seed]:
        """All admissible seeds for the p-th iterate, sorted by (a, b).

        Only boundary letters matter: the p-th image of a ends with a iff
        the p-fold composition of the last-letter map fixes a, and dually
        for first letters.  The seed sweep composes both maps up to p, so
        no image word is materialized here.
        """
        if p < 1:
            raise RangeError("period must be >= 1")
        for _, left, right in self._seed_sweep(p):
            pass
        return [Seed(a, b, p) for a in left for b in right]

    def _seed_sweep(self, limit: int):
        """For p = 1, ..., limit: p, the letters a whose p-th image ends with
        a, and the letters b whose p-th image begins with b, in order.

        One composition of the last-letter and first-letter maps per
        period, so a sweep up to p costs O(p * n) for n letters.
        """
        last = [w[-1] for w in self._letters]
        first = [w[0] for w in self._letters]
        letters = range(self.alphabet.size)
        fp, gp = list(letters), list(letters)
        for p in range(1, limit + 1):
            fp = [last[a] for a in fp]
            gp = [first[b] for b in gp]
            left = [a for a in letters if fp[a] == a]
            yield p, left, [b for b in letters if gp[b] == b]

    def periodic_window(
        self, seed: Seed, radius: int, max_len: int = DEFAULT_MAX_LEN
    ) -> Window:
        """Central window of the periodic point fixed by the seed.

        Covers bilateral indices [-radius, radius); the origin letter is the
        seed's right letter.
        """
        if radius < 1:
            raise RangeError("radius must be >= 1")
        n = self.alphabet.size
        if not (0 <= seed.left < n and 0 <= seed.right < n) or seed.period < 1:
            raise SeedError(f"seed {seed} is malformed for {self}")
        if seed not in set(self.periodic_seeds(seed.period)):
            raise SeedError(f"seed {seed} is not admissible for {self}")
        self._check_power(seed.period, max_len)

        def grow(word: bytes) -> bytes:
            # one round applies sigma**period; lengths only grow within a
            # round, so checking every step refuses the same radii
            while len(word) < radius:
                for _ in range(seed.period):
                    word = _image(self._letters, word)
                    if len(word) > max_len:
                        raise CapacityError(f"window growth exceeds cap {max_len}")
            return word

        body = grow(bytes([seed.left]))[-radius:] + grow(bytes([seed.right]))[:radius]
        return Window(Word(self.alphabet, body), radius)

    # -- language ---------------------------------------------------------

    def language(self, n: int) -> frozenset[Word]:
        """The set of n-blocks of the minimal system of a primitive substitution.

        Raises CapacityError before building the set when its covering words
        hold more than ``LANGUAGE_BYTES_CAP`` bytes of n-factors.
        """
        self._require_primitive(n)
        return _LANGUAGES.get(self, n)

    def covering_words(self, n: int) -> tuple[Word, ...]:
        """Words whose n-factors are exactly ``language(n)``.

        One word sigma**m(ab) per 2-block ab of the language, in sorted
        order of ab, with m the least exponent such that r**m >= n: every
        n-block lies inside the image of one 2-block.
        """
        self._require_primitive(n)
        return _covering_words(self, n)

    def _require_primitive(self, n: int) -> None:
        if n < 1:
            raise RangeError("language needs n >= 1")
        if not self._primitive:
            raise PrimitivityError(
                "language is defined for primitive substitutions only; analyze the "
                "graph, or collapse equal images with identify_equal_images first"
            )

    @functools.cached_property
    def _primitive(self) -> bool:
        return graphs.build_graph(self).is_primitive()

    # -- structure --------------------------------------------------------

    def is_injective(self) -> bool:
        """Whether all letter images are distinct words."""
        return len({im.letters for im in self.images}) == len(self.images)

    def identify_equal_images(self) -> tuple[Substitution, tuple[int, ...]]:
        """Quotient letters with identical images until injective.

        Returns the quotient substitution and the letter map from the
        original alphabet onto the quotient alphabet.  Each class is named
        after its smallest member's symbol.  Collapsing to a single letter
        raises DegenerateError.
        """
        current = self
        mapping = list(range(self.alphabet.size))
        while True:
            groups: dict[bytes, list[int]] = {}
            for a, im in enumerate(current.images):
                groups.setdefault(im.letters, []).append(a)
            if all(len(g) == 1 for g in groups.values()):
                return current, tuple(mapping)
            classes = sorted(groups.values(), key=min)
            if len(classes) < 2:
                raise DegenerateError("all letters share one image word")
            cls_of = [0] * current.alphabet.size
            for ci, members in enumerate(classes):
                for a in members:
                    cls_of[a] = ci
            alph = Alphabet(
                tuple(current.alphabet.symbols[min(m)] for m in classes)
            )
            images = tuple(
                Word(alph, bytes(cls_of[b] for b in current.images[min(m)].letters))
                for m in classes
            )
            current = Substitution(alph, images)
            mapping = [cls_of[x] for x in mapping]

    # -- desubstitution ---------------------------------------------------

    def desubstitute(
        self, k: int, win: Window, max_len: int = DEFAULT_MAX_LEN
    ) -> list[tuple[int, Word]]:
        """Phases at which the window tiles by k-th-iterate images.

        For each bilateral residue j in [0, r**k) the maximal aligned run of
        full r**k-blocks inside the window is checked; a phase is reported
        only when the run has at least 3 tiles and every tile is a letter
        image.  When two letters share an image the smaller letter is
        recovered.
        """
        if k < 0:
            raise RangeError("desubstitute needs k >= 0")
        if win.word.alphabet != self.alphabet:
            raise DomainError("window is over a different alphabet")
        span = self.length**k
        if len(win) < 3 * span:
            raise InsufficientWindowError(
                f"window of length {len(win)} is shorter than 3 tiles of {span}"
            )
        images = self._iterate(k, max_len)
        block_of: dict[bytes, int] = {}
        for a in reversed(range(self.alphabet.size)):
            block_of[images[a]] = a
        return [
            (j, Word(self.alphabet, bytes(recovered)))
            for j, _, recovered in phase_tokens(win, span, block_of)
            if None not in recovered
        ]


def _image(imgs: tuple[bytes, ...], data: bytes) -> bytes:
    """The image of ``data`` under letter images ``imgs`` of one length r.

    Offset t of every image is one translation of ``data`` through the
    table a -> imgs[a][t], written to every r-th byte of the result.
    """
    r = len(imgs[0])
    columns = b"".join(imgs)
    out = bytearray(len(data) * r)
    for t in range(r):
        out[t::r] = data.translate(columns[t::r].ljust(256, b"\0"))
    return bytes(out)


def _covering_words(sub: Substitution, n: int) -> tuple[Word, ...]:
    """2-block closure, then the image of each 2-block under an iterate
    whose letter images have length at least n."""
    imgs = sub._letters
    w0 = imgs[0]
    pairs = {w0[i : i + 2] for i in range(len(w0) - 1)}
    todo = list(pairs)
    while todo:
        u, v = todo.pop()
        x = imgs[u] + imgs[v]
        for i in range(len(x) - 1):
            uv = x[i : i + 2]
            if uv not in pairs:
                pairs.add(uv)
                todo.append(uv)
    m = next(m for m in itertools.count() if sub.length**m >= n)
    pimgs = sub._iterate(m)
    return tuple(
        Word(sub.alphabet, pimgs[u] + pimgs[v]) for u, v in sorted(pairs)
    )


def _language(sub: Substitution, n: int) -> frozenset[Word]:
    """The n-factors of the covering words, refused up front when they
    could hold more than ``LANGUAGE_BYTES_CAP`` bytes.

    A covering word sigma**m(ab) is read only at starts i < r**m: every
    n-block with n <= r**m starts inside sigma**m(a) for some 2-block ab.
    """
    words = [w.letters for w in _covering_words(sub, n)]
    size = n * sum(len(x) - n + 1 for x in words)
    if size > LANGUAGE_BYTES_CAP:
        raise CapacityError(
            f"language({n}) could hold {size} bytes of blocks, over cap "
            f"{LANGUAGE_BYTES_CAP}"
        )
    starts = range(len(words[0]) // 2)
    blocks = {x[i : i + n] for x in words for i in starts}
    return frozenset(_trusted_word(sub.alphabet, b) for b in blocks)


class _LanguageCache:
    """Languages by (substitution, n), least recently used first.

    Each entry is charged n bytes per block; once the total passes ``cap``
    the least recently used entries are dropped.  An entry never exceeds
    ``LANGUAGE_BYTES_CAP`` on its own, so with that cap the newest entry
    always stays.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.charged = 0
        self.entries: OrderedDict[tuple[Substitution, int], frozenset[Word]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, sub: Substitution, n: int) -> frozenset[Word]:
        key = (sub, n)
        with self._lock:
            blocks = self.entries.get(key)
            if blocks is not None:
                self.entries.move_to_end(key)
                return blocks
        blocks = _language(sub, n)
        with self._lock:
            if key not in self.entries:
                self.entries[key] = blocks
                self.charged += n * len(blocks)
            while self.charged > self.cap:
                (_, m), old = self.entries.popitem(last=False)
                self.charged -= m * len(old)
        return blocks


_LANGUAGES = _LanguageCache(LANGUAGE_BYTES_CAP)


def language_brute(
    sub: Substitution,
    n: int,
    letter: int = 0,
    blowup: int = 64,
    max_len: int = DEFAULT_MAX_LEN,
) -> frozenset[Word]:
    """Slow oracle for ``language``: iterate on one letter, collect factors.

    The letter is iterated until its image is at least ``blowup * n`` long;
    the n-factors of that single word are returned.  Kept deliberately
    independent of the closure algorithm.
    """
    if n < 1:
        raise RangeError("language needs n >= 1")
    if not 0 <= letter < sub.alphabet.size:
        raise DomainError(f"letter {letter} not in alphabet {sub.alphabet}")
    imgs = [im.letters for im in sub.images]
    w = bytes([letter])
    target = blowup * n
    while len(w) < target:
        w = b"".join(imgs[a] for a in w)
        if len(w) > max_len:
            raise CapacityError(f"brute-force iterate exceeds cap {max_len}")
    return frozenset(
        Word(sub.alphabet, w[i : i + n]) for i in range(len(w) - n + 1)
    )


def minimal_seed_period(sub: Substitution, limit: int | None = None) -> int:
    """Smallest p for which the substitution has an admissible seed."""
    if limit is None:
        limit = max(64, sub.alphabet.size**2)
    for p, left, right in sub._seed_sweep(limit):
        if left and right:
            return p
    raise SeedError(f"no admissible seed with period <= {limit}")


def system_seeds(sub: Substitution, limit: int | None = None) -> list[Seed]:
    """Least-period seeds whose fixed points lie in the minimal system.

    An admissible seed (a, b) yields a point of the substitution's minimal
    set exactly when the center block ab is in the language; other seeds
    still fix two-sided points, but of the full shift only.  One seed sweep
    serves every period up to ``limit``: the admissible pairs of each
    period are filtered by the 2-blocks of the language, and the first
    period with a pair left wins.  Requires a primitive substitution.
    """
    if limit is None:
        limit = max(64, sub.alphabet.size**2)
    lang2 = sub.language(2)
    for p, left, right in sub._seed_sweep(limit):
        good = [
            Seed(a, b, p)
            for a in left
            for b in right
            if Word(sub.alphabet, bytes((a, b))) in lang2
        ]
        if good:
            return good
    raise SeedError(f"no system seed with period <= {limit} for {sub}")


_RULE = re.compile(r"^(.)->(.+)$")


def parse_substitution(text: str) -> Substitution:
    """Parse the rule format ``a->w;b->w``; letters appear in rule order."""
    rules = []
    for part in text.split(";"):
        part = part.strip()
        m = _RULE.match(part)
        if m is None:
            raise DomainError(f"bad substitution rule {part!r}, expected 'a->word'")
        rules.append((m.group(1), m.group(2)))
    names = [lhs for lhs, _ in rules]
    if len(set(names)) != len(names):
        raise DomainError("duplicate letter on the left-hand side")
    alphabet = Alphabet(tuple(names))
    images = tuple(alphabet.word(rhs) for _, rhs in rules)
    return Substitution(alphabet, images)


#: The Morse substitution 0 -> 01, 1 -> 10.
MORSE = parse_substitution("0->01;1->10")

#: The Toeplitz substitution 0 -> 01, 1 -> 00.
TOEPLITZ = parse_substitution("0->01;1->00")
