"""Alphabets, finite words, and origin-marked windows.

Letters are small integer indices into an :class:`Alphabet`.  A :class:`Word`
stores them packed in ``bytes``, so slicing, hashing, and comparison are
cheap and words of up to 255 distinct letters cost one byte per letter.

A :class:`Window` is a finite excerpt of a bilaterally infinite sequence:
the letter at position ``origin`` carries bilateral index 0, positions to
its left carry -1, -2, and so on.  Windows render with a decimal point
written immediately before index 0, as in ``"10010110.01101001"``.

All three types are immutable and safe to share between threads.  Rule
and certificate JSON is read by ``load_json``, and its fields are checked
by ``json_field``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import DomainError, RangeError

MAX_ALPHABET_SIZE = 255


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of at least two distinct single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 2 <= len(self.symbols) <= MAX_ALPHABET_SIZE:
            raise DomainError(
                f"alphabet needs between 2 and {MAX_ALPHABET_SIZE} letters, "
                f"got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise DomainError("alphabet symbols must be distinct")
        for sym in self.symbols:
            if len(sym) != 1 or not sym.isprintable() or sym == ".":
                raise DomainError(f"bad alphabet symbol {sym!r}")

    @classmethod
    def from_names(cls, names: str) -> Alphabet:
        return cls(tuple(names))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        """Letter index of a symbol, or a domain error for foreign symbols."""
        try:
            return self.symbols.index(name)
        except ValueError:
            raise DomainError(f"symbol {name!r} is not in alphabet {self}") from None

    def name(self, letter: int) -> str:
        if not 0 <= letter < len(self.symbols):
            raise DomainError(f"letter {letter} is not in alphabet {self}")
        return self.symbols[letter]

    def word(self, text: str) -> Word:
        """Parse a word from its rendered text."""
        return Word(self, bytes(self.index(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(self.symbols)


#: The two-letter alphabet 0, 1 used by the Morse and Toeplitz systems.
BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class Word:
    """An immutable finite word; letters are indices into ``alphabet``."""

    alphabet: Alphabet
    letters: bytes

    def __post_init__(self) -> None:
        # deleting every in-range letter leaves exactly the out-of-range ones
        if self.letters.translate(None, _LETTERS[: self.alphabet.size]):
            raise DomainError(
                f"letter {max(self.letters)} out of range for alphabet {self.alphabet}"
            )

    def __hash__(self) -> int:
        # equal words have equal letters, so the alphabet need not be hashed
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.alphabet, self.letters[item])
        return self.letters[item]

    def __add__(self, other: Word) -> Word:
        if other.alphabet != self.alphabet:
            raise DomainError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __lt__(self, other: Word):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters < other.letters

    @property
    def text(self) -> str:
        return "".join(self.alphabet.symbols[a] for a in self.letters)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"

    def factors(self, n: int) -> set[Word]:
        """All length-n factors (contiguous subwords), as a set."""
        if not 1 <= n <= len(self.letters):
            raise RangeError(f"factor length {n} out of range 1..{len(self.letters)}")
        data = self.letters
        seen = {data[i : i + n] for i in range(len(data) - n + 1)}
        return {_trusted_word(self.alphabet, b) for b in seen}

    def complement(self) -> Word:
        """Swap the two letters of a binary word (the bar map)."""
        if self.alphabet.size != 2:
            raise DomainError("complement is only defined over a two-letter alphabet")
        return Word(self.alphabet, self.letters.translate(_SWAP01))


def _trusted_word(alphabet: Alphabet, letters: bytes) -> Word:
    """A Word that skips the letter check of ``Word.__post_init__``; only for
    letters sliced from a word over the same alphabet, which passed it."""
    word = object.__new__(Word)
    # set attributes one by one: touching __dict__ would give every word a
    # dict of its own, about 150 bytes more per block
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "letters", letters)
    return word


def _window_codes(data: bytes, size: int, width: int) -> bytes | None:
    """The base-``size`` code of every ``width``-window of ``data``, in
    order, or None when size**width > 256: some code would need more than a
    byte.

    Window i has the code c_i = sum_k data[i + k] * size**(width - 1 - k).
    Term k over all windows is one integer read off data[k : k + count];
    ``width`` big-int multiply-adds sum the terms, and as no code overflows
    its byte no carry crosses bytes, so the integer's bytes are the codes in
    order.  An alphabet has 2 letters or more, so no code of more than 8
    letters fits, and no large power is built to tell."""
    if width > 8 or size**width > 256:
        return None
    count = max(len(data) - width + 1, 0)
    code = 0
    for k in range(width):
        code = code * size + int.from_bytes(data[k : k + count], "big")
    return code.to_bytes(count, "big")


_SWAP01 = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_LETTERS = bytes(range(256))


@dataclass(frozen=True)
class Window:
    """A word plus the position that carries bilateral index 0.

    ``origin`` may equal ``len(word)``: then every letter sits at a negative
    bilateral index and the decimal point renders at the far right.
    """

    word: Word
    origin: int

    def __post_init__(self) -> None:
        if not 0 <= self.origin <= len(self.word):
            raise RangeError(
                f"origin {self.origin} outside window of length {len(self.word)}"
            )

    def __len__(self) -> int:
        return len(self.word)

    @property
    def start(self) -> int:
        """Bilateral index of the first letter."""
        return -self.origin

    @property
    def stop(self) -> int:
        """Bilateral index one past the last letter."""
        return len(self.word) - self.origin

    @property
    def text(self) -> str:
        body = self.word.text
        return body[: self.origin] + "." + body[self.origin :]

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Window({self.text!r})"


def parse_window(text: str, alphabet: Alphabet) -> Window:
    """Parse a rendered window such as ``"1001.0110"``."""
    if text.count(".") != 1:
        raise DomainError("a window needs exactly one '.' marking the origin")
    left, right = text.split(".")
    return Window(alphabet.word(left + right), len(left))


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def json_field(value, kind: type):
    """``value`` when it has the JSON type ``kind`` (str, int, list or dict),
    else ValueError: a boolean is no integer, nor is a whole float."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not {_JSON_TYPES[kind]}")


def load_json(text: str):
    """The JSON in the file at path ``text``, else ``text`` itself when it
    holds an inline JSON object."""
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            raise DomainError(f"cannot read JSON file {text}: {exc}") from None
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"malformed inline JSON: {exc}") from None
    raise DomainError(f"expected a JSON file or inline JSON object, got {text!r}")
