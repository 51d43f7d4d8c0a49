"""Constant-length substitutions and the words they generate.

A substitution of length r sends every letter to a word of r letters over
the same alphabet.  Applied letterwise it maps words to words; iterated
on the center pair of a periodic seed it fills a bilateral window.

Conventions used throughout:

* A seed (a, b, p) asks for the two-sided point of the p-th iterate whose
  letter at bilateral index -1 is a and whose letter at index 0 is b.  It
  is admissible when the p-th image of a ends with a and the p-th image of
  b begins with b.  For every j, with e = -j mod p, the point is then
  sigma**j of the point whose center letters are the last of sigma**e(a)
  and the first of sigma**e(b) (``Substitution.periodic_window``).
* Parse phases are residues of bilateral indices.  A window tiles at phase
  j in [0, r**k) when the blocks starting at bilateral indices congruent
  to j modulo r**k all belong to the prescribed block set.

``language`` computes the n-block language of a primitive substitution
from the 2-blocks, closed under the substitution, by levels: the n-blocks
are the n-slices at offsets below r**d of the sigma**d-images of the blocks
of about sqrt(n) letters, d about half the least m with r**m >= n, so each
block is read about once.  ``language_brute`` is the slow
iterate-and-collect oracle kept for cross-validation and must agree with it.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from . import graphs
from .errors import (
    CapacityError,
    DomainError,
    InsufficientWindowError,
    PrimitivityError,
    RangeError,
    SeedError,
)
from .words import _LETTERS, Alphabet, Window, Word, _trusted_word, _window_codes

#: Cap on the length of any materialized word.
DEFAULT_MAX_LEN = 1 << 20

#: Cap on ``language(n)``, checked before any block is read: n times the
#: number of factor positions in the covering words sigma**m(ab) of the
#: 2-blocks, with m the least exponent such that r**m >= n.  Morse at n = 4096
#: comes to 2**26 and change; n = 8192 would come to 2**28.
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

    def power(self, k: int) -> Substitution:
        """The k-th iterate as a substitution of length r**k."""
        if k < 1:
            raise RangeError("power needs k >= 1")
        images = tuple(Word(self.alphabet, w) for w in self._iterate(k))
        return Substitution(self.alphabet, images)

    def _check_power(self, k: int) -> None:
        # r**k >= 2**k, so a k past the cap's bit length is refused without
        # building r**k
        cap = DEFAULT_MAX_LEN
        if k >= cap.bit_length() or self.length**k > cap:
            raise CapacityError(f"r**k = {self.length}**{k} exceeds cap {cap}")

    def _exponent(self, n: int) -> int:
        """The least m with r**m >= n, refused as ``_check_power(m)`` refuses it."""
        m = next(m for m in itertools.count() if self.length**m >= n)
        self._check_power(m)
        return m

    def _iterate(self, k: int) -> tuple[bytes, ...]:
        """Letter images of sigma**k for k >= 0, the letters themselves at
        k = 0: the k-th image of the word of all letters, cut into r**k-blocks."""
        self._check_power(k)
        data = bytes(range(self.alphabet.size))
        for _ in range(k):
            data = _image(self._letters, data)
        span = self.length**k
        return tuple(data[i : i + span] for i in range(0, len(data), span))

    @functools.cached_property
    def _letters(self) -> tuple[bytes, ...]:
        return tuple(im.letters for im in self.images)

    @functools.cached_property
    def _covers(self) -> dict[int, bytes]:
        """By m, the covering words of r**m joined by byte 255, filled by
        ``_is_factor``."""
        return {}

    @functools.cached_property
    def _level_view(self) -> dict:
        """What certificate checks of every kind, span and radius share, by
        key: ``"seeds"`` the system seeds; ``("window", s, j)`` the level
        word of level seed s for every level radius up to r**j, sigma**j of
        its center pair; ``("cover", e)`` the images of the 2-blocks under
        sigma**e, the level covering words; ``("keys", c, width)`` the key
        index of ``_Levels`` at c tiles per level block of that width, with
        the key row of each level word tiled there, bytes when the keys'
        codes fit a byte.  An entry is replaced, never changed, so a
        reader's key index and rows always agree; of two checks that extend
        one entry at once the last write is kept, and what the other added
        is built again when next asked.

        It stays bounded whatever is asked: level seeds are letter pairs,
        j and e are at most 20, as ``_check_power`` refuses r**21, and c
        divides a span of at most 2**20; each key index holds blocks of the
        language of one width.  Every value is a level word or one of its
        rows: no image of sigma**d and no tile row is held."""
        return {}

    @functools.cached_property
    def _pairs(self) -> frozenset[bytes]:
        """The 2-blocks of the first letter's image, closed under taking the
        2-factors of images: the 2-blocks of the language when primitive."""
        imgs = self._letters
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
        return frozenset(pairs)

    # -- periodic points --------------------------------------------------

    def periodic_seeds(self, p: int) -> list[Seed]:
        """All admissible seeds for the p-th iterate, sorted by (a, b).

        Only boundary letters matter: the p-th image of a ends with a iff
        the p-fold composition of the last-letter map fixes a, and dually
        for first letters, so no image word is materialized here.
        """
        if p < 1:
            raise RangeError("period must be >= 1")
        last, first = self._boundary_maps(p)
        letters = range(self.alphabet.size)
        right = [b for b in letters if first[b] == b]
        return [Seed(a, b, p) for a in letters if last[a] == a for b in right]

    def _boundary_maps(self, p: int) -> tuple[list[int], list[int]]:
        """The last-letter and first-letter maps of sigma**p for p >= 0, by
        repeated squaring: O(n log p) for n letters."""
        letters = range(self.alphabet.size)
        last, first = [w[-1] for w in self._letters], [w[0] for w in self._letters]
        last_p, first_p = list(letters), list(letters)
        while p:
            if p & 1:
                last_p = [last[a] for a in last_p]
                first_p = [first[b] for b in first_p]
            last = [last[a] for a in last]
            first = [first[b] for b in first]
            p >>= 1
        return last_p, first_p

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

    def periodic_window(self, seed: Seed, radius: int) -> Window:
        """Central window of the periodic point fixed by the seed.

        Covers bilateral indices [-radius, radius); the origin letter is the
        seed's right letter.  Refused exactly when r**j passes the length
        cap, j the least exponent with r**j >= radius.

        Let x be the point fixed by sigma**p with x[-1] = a and x[0] = b, and
        e = -j mod p.  Then z = sigma**e(x) is fixed by sigma**p, its center
        letters are the last letter of sigma**e(a) and the first of
        sigma**e(b), and sigma**j(z) = sigma**(j+e)(x) = x, as p divides
        j + e.  So x[-r**j : r**j] is sigma**j of z's center pair, whatever
        p is, and the window is its middle 2 * radius letters.
        """
        if radius < 1:
            raise RangeError("radius must be >= 1")
        n = self.alphabet.size
        if not (0 <= seed.left < n and 0 <= seed.right < n) or seed.period < 1:
            raise SeedError(f"seed {seed} is malformed for {self}")
        last, first = self._boundary_maps(seed.period)
        if last[seed.left] != seed.left or first[seed.right] != seed.right:
            raise SeedError(f"seed {seed} is not admissible for {self}")
        j = self._exponent(radius)
        half = self.length**j
        body = self._center_image(seed, j)
        return Window(Word(self.alphabet, body[half - radius : half + radius]), radius)

    def _center_image(self, seed: Seed, j: int) -> bytes:
        """x[-r**j : r**j] for the point x of an admissible seed: sigma**j
        of the center pair of z = sigma**e(x), e = -j mod p."""
        last, first = self._boundary_maps(-j % seed.period)
        body = bytes((last[seed.left], first[seed.right]))
        for _ in range(j):
            body = _image(self._letters, body)
        return body

    # -- language ---------------------------------------------------------

    def language(self, n: int) -> frozenset[Word]:
        """The set of n-blocks of the minimal system of a primitive substitution.

        Raises CapacityError before reading any block when its covering
        words would hold more than ``LANGUAGE_BYTES_CAP`` bytes of n-factors.
        """
        self._require_primitive(n)
        return frozenset(_trusted_word(self.alphabet, b) for b in _blocks(self, n))

    def _require_primitive(self, n: int) -> None:
        if n < 1:
            raise RangeError("language needs n >= 1")
        if not self._primitive:
            raise PrimitivityError(
                "language is defined for primitive substitutions only; analyze the graph"
            )

    @functools.cached_property
    def _primitive(self) -> bool:
        return graphs.build_graph(self).is_primitive()

    # -- structure --------------------------------------------------------

    def is_injective(self) -> bool:
        """Whether all letter images are distinct words."""
        return len({im.letters for im in self.images}) == len(self.images)

    # -- desubstitution ---------------------------------------------------

    def desubstitute(self, k: int, win: Window) -> list[tuple[int, Word]]:
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
        # r**k >= 2**k, so a k past the window's bit length is refused without
        # building r**k
        r = self.length
        if k >= len(win).bit_length() or 3 * r**k > len(win):
            raise InsufficientWindowError(
                f"window of length {len(win)} is shorter than 3 tiles of "
                f"r**k = {r}**{k}"
            )
        images = self._iterate(k)
        block_of = {images[a]: a for a in reversed(range(self.alphabet.size))}
        return [
            (j, Word(self.alphabet, letters))
            for j, _, letters in _tile_tokens(win, r**k, block_of)
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


def _covering_words(sub: Substitution, n: int, d: int = 0) -> tuple[bytes, ...]:
    """The image of each 2-block under sigma**(m-d), with m the least
    exponent whose letter images have length at least n: the letters of the
    covering words of n at d = 0, and for d <= m words whose d-th images
    are those, refused where those are."""
    pimgs = sub._iterate(sub._exponent(n) - d)
    return tuple(pimgs[u] + pimgs[v] for u, v in sorted(sub._pairs))


def _is_factor(sub: Substitution, data: bytes) -> bool:
    """Whether ``data`` is a factor of the language of a primitive ``sub``.

    With m the least exponent such that r**m >= len(data), the covering
    words sigma**m(ab) hold exactly the factors of length at most r**m, so
    one substring search in them, joined by byte 255, decides.  A foreign
    letter, byte 255 included, answers False, so no match crosses a joint.
    False also for a non-primitive substitution, and for a word whose
    covering words would pass ``DEFAULT_MAX_LEN``: not decided.
    """
    r = sub.length
    if data.translate(None, _LETTERS[: sub.alphabet.size]) or not sub._primitive:
        return False
    m = next(m for m in itertools.count() if r**m >= len(data))
    if r**m > DEFAULT_MAX_LEN:
        return False
    cover = sub._covers.get(m)
    if cover is None:
        cover = sub._covers[m] = b"\xff".join(_covering_words(sub, r**m))
    return data in cover


def _blocks(sub: Substitution, n: int) -> set[bytes]:
    """The n-blocks of a primitive ``sub`` as bytes, read at level d from
    the blocks of about sqrt(n) letters.

    With m the least exponent such that r**m >= n, the request is refused
    up front as ``_check_power(m)`` refuses it, or when the covering words
    sigma**m(ab) of the 2-blocks ab would hold more than
    ``LANGUAGE_BYTES_CAP`` bytes of n-factors, n * |pairs| * (2r**m - n + 1).
    At n <= 2 the blocks are the 2-blocks or their first letters.

    Otherwise, with d = ceil(m/2), R = r**d and l = ceil((n + R - 1)/R) < n,
    L(n) = {sigma**d(u)[o : o + n] : u in L(l), 0 <= o < R}.  Each slice is
    an n-block, as sigma maps L into L.  Conversely, sigma**d(X) is closed
    and T**R sigma**d(y) = sigma**d(Ty), so the union of T**o sigma**d(X)
    over o < R is a closed, shift-invariant, non-empty subset of X, hence X
    by minimality.  An n-block of X is therefore x[0 : n] with x = T**o
    sigma**d(y), o < R, y in X, which is sigma**d(y[0 : l])[o : o + n], as
    o + n <= R - 1 + n <= l * R.  The images of every l-block are one
    image of their concatenation, read at stride l * R.
    """
    r = sub.length
    m = sub._exponent(n)
    size = n * len(sub._pairs) * (2 * r**m - n + 1)
    if size > LANGUAGE_BYTES_CAP:
        raise CapacityError(
            f"language({n}) could hold {size} bytes of blocks, over cap "
            f"{LANGUAGE_BYTES_CAP}"
        )
    if n <= 2:
        return {ab[:n] for ab in sub._pairs}
    d = (m + 1) // 2
    span = r**d
    ell = (n + 2 * span - 2) // span
    data = _image(sub._iterate(d), b"".join(_blocks(sub, ell)))
    return {
        data[i : i + n]
        for s in range(0, len(data), ell * span)
        for i in range(s, s + span)
    }


# -- the tiler -------------------------------------------------------------


class _Levels:
    """Tiles of words given as sigma**d of level words, from the letter
    images of sigma**d, of a length ``size`` dividing the span c*size.  The
    tile at bilateral index t0 is the image of the level (c+1)-block at the
    level position of t0, read from offset t0 mod size; the last block of a
    level word is padded with letter 0, which the last tile, at offset 0,
    never reads.  At size 1 the images are the identity, and a tile is its
    own level c-block.  Each word is the row of its level-block keys,
    indices in one dict, so a tile is one (offset, key) pair and no slice
    is hashed per window.  When the keys' codes over the n letters fit a
    byte (n**width <= 256), the row is bytes: ``_window_codes`` gives every
    key's code and one translation maps codes to key ids, a new key taking
    the next id at its first occurrence, as a read key by key would number
    it.  Wider keys are read key by key into a list.

    A certificate block sits at offset o of a tile only where it occurs at
    o in a key's image, so ``bytes.find`` over the images gives one code
    table per offset, and a byte key row's codes are one translation
    through it.  A phase whose offset holds no certificate tile is all
    code 0: neither ``_evaluate`` nor ``_segments`` reads it, so it is
    skipped.  Only phases of at least 3 tiles are read, as no reader
    parses a shorter run.  ``words`` are as ``LanguageSource.level_words``
    gives them.  Given a substitution's ``_level_view``, the key index and
    rows come from it and new ones go back to it, so only the images of
    the keys are built per span."""

    def __init__(
        self, images: tuple[bytes, ...], span: int, words: list[tuple], view=None
    ):
        self.span, self.size = span, len(images[0])
        self.c = c = span // self.size
        width = c + (self.size > 1)
        view = {} if view is None else view
        index, rows = view.get(("keys", c, width), ({}, {}))
        fresh = dict.fromkeys(level for level, *_ in words if level not in rows)
        if fresh:  # a new pair, as another reader may hold the old one
            index, rows = dict(index), dict(rows)
            for level in fresh:
                padded = level + bytes(width - c)
                codes = _window_codes(padded, len(images), width)
                if codes is None:
                    rows[level] = [
                        index.setdefault(padded[q : q + width], len(index))
                        for q in range(len(level) - c + 1)
                    ]
                else:
                    table = bytearray(256)
                    for q in sorted(map(codes.find, set(codes))):  # first occurrences
                        key = padded[q : q + width]
                        table[codes[q]] = index.setdefault(key, len(index))
                    rows[level] = codes.translate(table)
            view["keys", c, width] = index, rows
        self.words = [(level, rows[level], *rest) for level, *rest in words]
        self.lengths = [hi - lo for *_, lo, hi in words]
        self.letter_images = images
        self.images = [self._expand(key) for key in index]

    def _expand(self, level: bytes) -> bytes:
        if self.size == 1:
            return level
        return b"".join(self.letter_images[a] for a in level)

    def letters(self, w: int) -> bytes:
        level, _, base, lo, hi = self.words[w]
        return self._expand(level)[lo - base : hi - base]

    def _phases(self, w: int, js):
        """(phase, start, offset, keys) of word w at those phases js that
        hold at least 3 tiles, and none for a word shorter than 3 tiles: no
        reader parses a shorter run."""
        _, keys, base, lo, hi = self.words[w]
        span, size, c = self.span, self.size, self.c
        if hi - lo < 3 * span:
            return
        for j in js:
            t0 = lo + (j - lo) % span
            q0, count = (t0 - base) // size, (hi - t0) // span
            if count >= 3:
                yield j, t0, j % size, keys[q0 : q0 + count * c : c]

    def tiles(self, w: int):
        """Rows of tiles of word w, one phase at a time."""
        for _, _, o, keys in self._phases(w, range(self.span)):
            cut = {key: self.images[key][o : o + self.span] for key in set(keys)}
            yield [cut[key] for key in keys]

    def coder(self, cert):
        """Byte rows of tile codes of word w, as (phase, start, row) at every
        phase whose offset holds a certificate tile."""
        size, stop = self.size, self.size + self.span - 1
        tables: dict[int, bytearray] = {}
        for bit, block in enumerate(cert.blocks):
            for key, image in enumerate(self.images):
                o = image.find(block.letters, 0, stop)
                while o >= 0:
                    table = tables.setdefault(o, bytearray(max(len(self.images), 256)))
                    table[key] |= 1 << bit
                    o = image.find(block.letters, o + 1, stop)
        js = [t * size + o for t in range(self.c) for o in sorted(tables)]
        return lambda w: [
            (j, t0, _translate(keys, tables[o]))
            for j, t0, o, keys in self._phases(w, js)
        ]


def _translate(keys, table: bytearray) -> bytes:
    """``table`` at each key of a key row: one translation of a byte row,
    key by key for a row of wider keys."""
    if isinstance(keys, bytes):
        return keys.translate(table)
    return bytes([table[key] for key in keys])


def _tile_tokens(
    win: Window, span: int, index: dict[bytes, int]
) -> list[tuple[int, int, bytes]]:
    """(phase, start, tokens) for each bilateral residue j in [0, span), in
    ascending j, whose aligned run of span-tiles in the window holds at
    least 3 tiles, all keys of ``index``: ``start`` is the bilateral index of
    the first tile, and the tokens are the tiles mapped through ``index``.
    The window is its own level word, under identity images."""
    identity = tuple(bytes((a,)) for a in range(win.word.alphabet.size))
    tiler = _Levels(identity, span, [(win.word.letters, win.start, win.start, win.stop)])
    tokens = [index.get(tile) for tile in tiler.images]
    rows = []
    for j, t0, _, keys in tiler._phases(0, range(span)):
        row = [tokens[key] for key in keys]
        if None not in row:
            rows.append((j, t0, bytes(row)))
    return rows


def language_brute(
    sub: Substitution,
    n: int,
    letter: int = 0,
    blowup: int = 64,
) -> frozenset[Word]:
    """Slow oracle for ``language``: iterate on one letter, collect factors.

    The letter is iterated until its image is at least ``blowup * n`` long;
    the n-factors of that single word are returned; an iterate longer than
    ``DEFAULT_MAX_LEN`` is refused.  Kept deliberately independent of the
    closure algorithm.
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
        if len(w) > DEFAULT_MAX_LEN:
            raise CapacityError(f"brute-force iterate exceeds cap {DEFAULT_MAX_LEN}")
    return frozenset(
        Word(sub.alphabet, w[i : i + n]) for i in range(len(w) - n + 1)
    )


def minimal_seed_period(sub: Substitution) -> int:
    """Smallest p for which the substitution has an admissible seed.

    At most n**2 for n letters: the last-letter and first-letter maps have
    cycles of lengths c, c' <= n, and p = lcm(c, c') admits a seed.
    """
    sweep = sub._seed_sweep(sub.alphabet.size**2)
    return next(p for p, left, right in sweep if left and right)


def system_seeds(sub: Substitution) -> list[Seed]:
    """Least-period seeds whose fixed points lie in the minimal system.

    An admissible seed (a, b) yields a point of the substitution's minimal
    set exactly when the center block ab is in the language; other seeds
    still fix two-sided points, but of the full shift only.  The first
    period with an admissible 2-block of the language wins.  It is at most
    the number N of 2-blocks: F(ab) = (last letter of sigma(a), first letter
    of sigma(b)) is a 2-factor of sigma(ab), so F maps 2-blocks to 2-blocks,
    and some 2-block lies on an F-cycle of length c <= N, a seed of period
    c.  Requires a primitive substitution.
    """
    sub._require_primitive(2)
    pairs = sub._pairs
    seeds = (
        [Seed(a, b, p) for a in left for b in right if bytes((a, b)) in pairs]
        for p, left, right in sub._seed_sweep(len(pairs))
    )
    return next(filter(None, seeds))


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
