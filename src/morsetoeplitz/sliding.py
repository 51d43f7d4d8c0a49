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
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import CapacityError, DomainError, RangeError
from .substitution import DEFAULT_MAX_LEN
from .words import Alphabet, BINARY, Window, Word, _window_codes, json_field, load_json

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
        width = self.width
        codes = _window_codes(b"".join(self.table), self.input_alphabet.size, width)
        if codes is None:
            return None
        table = bytearray(b"\xff" * 256)
        for code, value in zip(codes[::width], self.table.values()):
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
    """The output letter of every window of ``data``, in order: when every
    window's code fits a byte, ``_window_codes`` gives them all and one
    translation maps them to letters.  Wider codes go window by window.
    """
    width = rule.width
    table = rule._code_table
    if table is None:
        return b"".join(
            rule.lookup(data[i : i + width]) for i in range(len(data) - width + 1)
        )
    out = _window_codes(data, rule.input_alphabet.size, width).translate(table)
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


def preimage_blocks(rule: LocalRule, w: Word) -> set[Word]:
    """All input words of length len(w) + m + a that map onto w.

    The fibre is the set of paths through the rule's de Bruijn automaton,
    whose states are the last m + a input letters.  A forward pass over w
    records the states reached at each position with the number of
    prefixes reaching them; a backward pass spells the fibre from the end,
    keeping suffixes only at states from which the rest of w can be
    emitted, so every suffix extends to a preimage.  Suffixes share their
    tails, and the work is linear in len(w).  CapacityError refuses words
    longer than ``DEFAULT_MAX_LEN`` up front, and a forward pass keeping
    more states, or a fibre holding more letters, than two such words:
    the Oxtoby code's fibre.  The fibre is counted before it is spelled.
    """
    _require_letter_valued(rule)
    if w.alphabet != rule.output_alphabet:
        raise DomainError("word is over a different alphabet than the rule output")
    k = rule.width - 1
    size = rule.input_alphabet.size
    target = w.letters
    letters, cap = len(target) + k, 2 * DEFAULT_MAX_LEN
    if letters > DEFAULT_MAX_LEN:
        raise CapacityError(f"preimage words of {letters} letters exceed cap {cap >> 1}")
    full = f"preimage fibre exceeds cap {cap} letters"
    if not target:
        if k * size**k > cap:
            raise CapacityError(full)
        seeds = product(range(size), repeat=k)
        return {Word(rule.input_alphabet, bytes(seed)) for seed in seeds}
    moves: dict[tuple[bytes, int], list[tuple[int, bytes]]] = {}
    for key, value in rule.table.items():
        moves.setdefault((key[:k], value[0]), []).append((key[k], key[1:]))
    counts = {s: 1 for s, out in moves if out == target[0]}  # state -> prefixes
    reached: list[dict[bytes, int]] = []
    kept = 0
    for out in target:
        kept += len(counts)
        if kept > cap:
            raise CapacityError(f"preimage search keeps over {cap} states")
        reached.append(counts)
        nxt: dict[bytes, int] = {}
        for s, n in counts.items():
            for _, t in moves.get((s, out), ()):
                nxt[t] = nxt.get(t, 0) + n
        counts = nxt
        if sum(nxt.values()) > cap:  # counts past the cap all refuse alike
            counts = {t: min(n, cap + 1) for t, n in nxt.items()}
    if sum(counts.values()) * letters > cap:
        raise CapacityError(full)
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
        memory = json_field(payload["memory"], int)
        anticipation = json_field(payload["anticipation"], int)
        input_alphabet = Alphabet.from_names(json_field(payload["input"], str))
        output_alphabet = Alphabet.from_names(json_field(payload["output"], str))
        raw_table = json_field(payload["table"], dict)
        pairs = [(json_field(k, str), json_field(v, str)) for k, v in raw_table.items()]
        names = None
        if "domain" in payload:
            names = [json_field(d, str) for d in json_field(payload["domain"], list)]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed rule payload: {exc}") from None
    table = {
        input_alphabet.word(k).letters: output_alphabet.word(v).letters for k, v in pairs
    }
    domain = None
    if names is not None:
        domain = frozenset(input_alphabet.word(d).letters for d in names)
    return LocalRule(input_alphabet, output_alphabet, memory, anticipation, table, domain)


def load_rule(source: str | Path) -> LocalRule:
    """The builtin rule "oxtoby", else the rule JSON in the file at path
    ``source`` or inline in ``source`` itself."""
    text = str(source)
    return oxtoby_rule() if text == "oxtoby" else rule_from_json(load_json(text))
