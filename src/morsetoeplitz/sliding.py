"""Sliding block codes given by explicit finite local rules.

A local rule with memory m and anticipation a reads the input letters at
bilateral indices i - m .. i + a to produce the output at index i, so rules
are plain tables from (m + a + 1)-words to outputs and serialize to JSON.
Applying a rule to a window trims m letters on the left and a on the
right; the origin moves so that bilateral indices are preserved.

Table values are words.  Every sliding-code operation in this module needs
letter-valued tables (output length 1); longer values exist so that the
same type and file format can carry the block-to-block rules consumed by
the conjugacy constructions, where one input window emits a whole r-block.

The Oxtoby rule u, v -> u + v + 1 mod 2 (memory 0, anticipation 1) is the
built-in two-to-one code from the Morse onto the Toeplitz minimal set.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CapacityError, DomainError, RangeError
from .words import Alphabet, BINARY, Window, Word

#: Cap on candidate expansions while enumerating preimages.
DEFAULT_PREIMAGE_CAP = 1 << 22

_MAX_WIDTH = 16


@dataclass(frozen=True)
class LocalRule:
    """An explicit finite table from input windows to output words.

    The table must cover exactly the declared domain: all input words of
    the window width when ``domain`` is None, otherwise exactly the words
    in ``domain``.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    memory: int
    anticipation: int
    table: Mapping[bytes, bytes] = field(hash=False)
    domain: frozenset[bytes] | None = None

    def __post_init__(self) -> None:
        if self.memory < 0 or self.anticipation < 0:
            raise DomainError("memory and anticipation must be >= 0")
        width = self.width
        if width > _MAX_WIDTH:
            raise CapacityError(f"window width {width} exceeds {_MAX_WIDTH}")
        if not self.table:
            raise DomainError("a rule needs a nonempty table")
        out_lens = set()
        for key, value in self.table.items():
            if len(key) != width:
                raise DomainError(f"table key of length {len(key)}, expected {width}")
            if key and max(key) >= self.input_alphabet.size:
                raise DomainError("table key uses a letter outside the input alphabet")
            if value and max(value) >= self.output_alphabet.size:
                raise DomainError("table value uses a letter outside the output alphabet")
            out_lens.add(len(value))
        if len(out_lens) != 1 or 0 in out_lens:
            raise DomainError("table values must share one positive length")
        if self.domain is None:
            expected = self.input_alphabet.size**width
            if len(self.table) != expected:
                raise DomainError(
                    f"total rule must cover all {expected} windows, has {len(self.table)}"
                )
        else:
            if set(self.table.keys()) != set(self.domain):
                raise DomainError("table keys must cover exactly the declared domain")
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    @property
    def width(self) -> int:
        return self.memory + self.anticipation + 1

    @property
    def out_len(self) -> int:
        return len(next(iter(self.table.values())))

    @functools.cached_property
    def _code_table(self) -> bytes | None:
        """Output letters by window code, as a 256-byte translation table.

        A window's code reads its letters as base-s digits, s the input
        alphabet size.  Byte 255, never a letter of an alphabet of at most
        255 letters, marks undefined windows.  None when some code needs
        more than one byte.
        """
        size = self.input_alphabet.size
        if size**self.width > 256:
            return None
        table = bytearray(b"\xff" * 256)
        for key, value in self.table.items():
            code = 0
            for letter in key:
                code = code * size + letter
            table[code] = value[0]
        return bytes(table)

    def lookup(self, window: bytes) -> bytes:
        value = self.table.get(window)
        if value is None:
            word = Word(self.input_alphabet, window)
            raise DomainError(f"rule is undefined on window {word.text!r}")
        return value


def oxtoby_rule() -> LocalRule:
    """u, v -> u + v + 1 mod 2 with memory 0 and anticipation 1."""
    table = {
        bytes((u, v)): bytes([(u + v + 1) % 2]) for u in (0, 1) for v in (0, 1)
    }
    return LocalRule(BINARY, BINARY, 0, 1, table)


def identity_rule(alphabet: Alphabet) -> LocalRule:
    table = {bytes([a]): bytes([a]) for a in range(alphabet.size)}
    return LocalRule(alphabet, alphabet, 0, 0, table)


def projection_rule(
    alphabet: Alphabet, memory: int, anticipation: int, offset: int = 0
) -> LocalRule:
    """Rule that outputs the window letter ``offset`` steps into the window."""
    width = memory + anticipation + 1
    if not 0 <= offset < width:
        raise RangeError(f"offset {offset} outside window of width {width}")
    table = {
        bytes(win): bytes([win[offset]])
        for win in product(range(alphabet.size), repeat=width)
    }
    return LocalRule(alphabet, alphabet, memory, anticipation, table)


def _require_letter_valued(rule: LocalRule) -> None:
    if rule.out_len != 1:
        raise DomainError("sliding application needs a letter-valued rule")


def apply_to_word(rule: LocalRule, w: Word) -> Word:
    """Slide the rule along a word; output is m + a letters shorter."""
    _require_letter_valued(rule)
    if w.alphabet != rule.input_alphabet:
        raise DomainError("word is over a different alphabet than the rule input")
    width = rule.width
    if len(w) < width:
        raise RangeError(f"word of length {len(w)} shorter than window width {width}")
    return Word(rule.output_alphabet, _slide(rule, w.letters))


def _slide(rule: LocalRule, data: bytes) -> bytes:
    """The output letter of every window of ``data``, in order.

    Window i has the code c_i = sum_k data[i + k] * s**(w - 1 - k).  When
    every code fits a byte, term k over all windows is one integer read off
    data[k : k + len(data) - w + 1]; w big-int multiply-adds sum the terms,
    no code overflows its byte, so no carry crosses bytes, and the
    integer's bytes are the codes in order.  One translation maps them to
    letters.  Wider codes go window by window.
    """
    width = rule.width
    table = rule._code_table
    if table is None:
        return b"".join(
            rule.lookup(data[i : i + width]) for i in range(len(data) - width + 1)
        )
    count = len(data) - width + 1
    size = rule.input_alphabet.size
    code = 0
    for k in range(width):
        code = code * size + int.from_bytes(data[k : k + count], "big")
    out = code.to_bytes(count, "big").translate(table)
    bad = out.find(255)
    if bad >= 0:
        rule.lookup(data[bad : bad + width])
    return out


def apply_code(rule: LocalRule, win: Window) -> Window:
    """Apply the code to a window, preserving bilateral indices.

    The output letter at bilateral index i is computed from input indices
    i - m .. i + a, so the output origin is the input origin minus the
    memory; it must stay inside the output window.
    """
    word = apply_to_word(rule, win.word)
    origin = win.origin - rule.memory
    if not 0 <= origin <= len(word):
        raise RangeError("origin leaves the window after coding")
    return Window(word, origin)


def preimage_blocks(
    rule: LocalRule, w: Word, cap: int = DEFAULT_PREIMAGE_CAP
) -> set[Word]:
    """All input words of length len(w) + m + a that map onto w.

    The fibre is the set of paths through the rule's de Bruijn automaton,
    whose states are the last m + a input letters.  A forward pass over w
    records the states reached at each position with the number of
    prefixes reaching them; a backward pass spells the fibre from the end,
    keeping suffixes only at states from which the rest of w can be
    emitted, so every suffix extends to a preimage.  Suffixes share their
    tails, memory stays bounded by the fibre, and the work is linear in
    len(w).  ``cap`` bounds the letter extensions that a depth-first
    enumeration with early filtering would try, dead ends included;
    exceeding it raises CapacityError.
    """
    _require_letter_valued(rule)
    if w.alphabet != rule.output_alphabet:
        raise DomainError("word is over a different alphabet than the rule output")
    k = rule.width - 1
    size = rule.input_alphabet.size
    target = w.letters
    # a depth-first enumeration tries every k-letter seed, then every letter
    # after every prefix that still maps onto the front of w
    budget = cap - sum(size**i for i in range(1, k + 1))
    if budget < 0:
        raise CapacityError(f"preimage enumeration exceeded cap {cap}")
    if not target:
        seeds = product(range(size), repeat=k)
        return {Word(rule.input_alphabet, bytes(seed)) for seed in seeds}
    moves: dict[tuple[bytes, int], list[tuple[int, bytes]]] = {}
    for key, value in rule.table.items():
        moves.setdefault((key[:k], value[0]), []).append((key[k], key[1:]))
    live = size**k
    counts = {s: 1 for s, out in moves if out == target[0]}  # state -> prefixes
    reached: list[dict[bytes, int]] = []
    for out in target:
        budget -= size * live
        if budget < 0:
            raise CapacityError(f"preimage enumeration exceeded cap {cap}")
        reached.append(counts)
        nxt: dict[bytes, int] = {}
        for s, n in counts.items():
            for _, t in moves.get((s, out), ()):
                nxt[t] = nxt.get(t, 0) + n
        counts = nxt
        live = sum(nxt.values())
    # a suffix is a chain (letter, rest) sharing its rest with its siblings
    suffixes: dict[bytes, list] = {s: [None] for s in counts}
    for out, states in zip(reversed(target), reversed(reached)):
        grown: dict[bytes, list] = {}
        for s in states:
            for c, t in moves.get((s, out), ()):
                for rest in suffixes.get(t, ()):
                    grown.setdefault(s, []).append((c, rest))
        suffixes = grown
    fibre = set()
    for seed, chains in suffixes.items():
        for chain in chains:
            letters = bytearray(seed)
            while chain is not None:
                c, chain = chain
                letters.append(c)
            fibre.add(Word(rule.input_alphabet, bytes(letters)))
    return fibre


def image_language(rule: LocalRule, lang: Iterable[Word]) -> set[Word]:
    """Image of a set of equal-length words under the sliding code."""
    words = list(lang)
    if not words:
        return set()
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise DomainError("image_language needs words of one common length")
    return {apply_to_word(rule, w) for w in words}


# -- serialization --------------------------------------------------------


def rule_to_json(rule: LocalRule) -> dict:
    payload = {
        "memory": rule.memory,
        "anticipation": rule.anticipation,
        "input": str(rule.input_alphabet),
        "output": str(rule.output_alphabet),
        "table": {
            Word(rule.input_alphabet, k).text: Word(rule.output_alphabet, v).text
            for k, v in sorted(rule.table.items())
        },
    }
    if rule.domain is not None:
        payload["domain"] = sorted(
            Word(rule.input_alphabet, d).text for d in rule.domain
        )
    return payload


def rule_from_json(payload: dict) -> LocalRule:
    try:
        memory = int(payload["memory"])
        anticipation = int(payload["anticipation"])
        input_alphabet = Alphabet.from_names(str(payload["input"]))
        output_alphabet = Alphabet.from_names(str(payload["output"]))
        raw_table = payload["table"]
        names = [str(d) for d in payload["domain"]] if "domain" in payload else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed rule payload: {exc}") from None
    if not isinstance(raw_table, dict):
        raise DomainError("rule table must be an object")
    table = {
        input_alphabet.word(str(k)).letters: output_alphabet.word(str(v)).letters
        for k, v in raw_table.items()
    }
    domain = None
    if names is not None:
        domain = frozenset(input_alphabet.word(d).letters for d in names)
    return LocalRule(input_alphabet, output_alphabet, memory, anticipation, table, domain)


def load_rule(source: str | Path) -> LocalRule:
    """Load a rule from a JSON file; the builtin name "oxtoby" is accepted."""
    if str(source) == "oxtoby":
        return oxtoby_rule()
    path = Path(source)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise DomainError(f"cannot read rule file {source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"rule file {source} is not valid JSON: {exc}") from None
    return rule_from_json(payload)
