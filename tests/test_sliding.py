"""Sliding block codes and the two-to-one map onto the Toeplitz system."""

import itertools
import json
import random

import pytest

import sliding_oracle as oracle
from morsetoeplitz import (
    BINARY,
    Alphabet,
    CapacityError,
    DomainError,
    LocalRule,
    RangeError,
    Seed,
    Word,
    apply_code,
    apply_to_word,
    identity_rule,
    image_language,
    load_rule,
    oxtoby_rule,
    preimage_blocks,
    projection_rule,
    rule_from_json,
    rule_to_json,
)
from morsetoeplitz.words import Window, parse_window


def all_binary_words(n):
    for x in range(1 << n):
        yield Word(BINARY, bytes((x >> i) & 1 for i in range(n)))


def dfs_preimages(rule, w, cap):
    """Depth-first enumeration with early filtering, one cap unit per
    letter tried: the oracle for the frontier enumeration."""
    width = rule.width
    target = w.letters
    results = set()
    budget = cap

    def spend():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise CapacityError(f"preimage enumeration exceeded cap {cap}")

    def extend(prefix):
        pos = len(prefix) - width + 1
        if pos == len(target):
            results.add(Word(rule.input_alphabet, prefix))
            return
        for c in range(rule.input_alphabet.size):
            spend()
            cand = prefix + bytes([c])
            value = rule.table.get(cand[pos : pos + width])
            if value is not None and value[0] == target[pos]:
                extend(cand)

    def seed(prefix):
        if len(prefix) == width - 1:
            extend(prefix)
            return
        for c in range(rule.input_alphabet.size):
            spend()
            seed(prefix + bytes([c]))

    seed(b"")
    return results


def random_rule(rng):
    size = rng.choice((2, 3))
    alphabet = Alphabet.from_names("012"[:size])
    memory, anticipation = rng.choice(((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)))
    keys = [
        bytes(t)
        for t in itertools.product(range(size), repeat=memory + anticipation + 1)
    ]
    domain = None
    if rng.random() < 0.3:
        keys = [k for k in keys if rng.random() < 0.7] or keys[:1]
        domain = frozenset(keys)
    table = {k: bytes([rng.randrange(size)]) for k in keys}
    return LocalRule(alphabet, alphabet, memory, anticipation, table, domain)


def random_word(rng, rule, longest):
    size = rule.output_alphabet.size
    data = bytes(rng.randrange(size) for _ in range(rng.randrange(longest)))
    return Word(rule.output_alphabet, data)


class TestLocalRule:
    def test_oxtoby_table(self, oxtoby):
        assert (oxtoby.memory, oxtoby.anticipation) == (0, 1)
        assert oxtoby.width == 2
        assert oxtoby.out_len == 1
        for u in (0, 1):
            for v in (0, 1):
                assert oxtoby.lookup(bytes((u, v))) == bytes([(u + v + 1) % 2])

    def test_identity_and_projection(self):
        ident = identity_rule(BINARY)
        assert apply_to_word(ident, BINARY.word("0110")).text == "0110"
        last = projection_rule(BINARY, 0, 1, offset=1)
        assert apply_to_word(last, BINARY.word("0110")).text == "110"

    def test_projection_offset_validated(self):
        with pytest.raises(RangeError):
            projection_rule(BINARY, 0, 1, offset=2)

    def test_total_rule_must_cover_every_window(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 1, {b"\x00\x00": b"\x00"})

    def test_partial_rule_covers_exactly_its_domain(self):
        table = {b"\x00\x01": b"\x01", b"\x01\x00": b"\x00"}
        rule = LocalRule(BINARY, BINARY, 0, 1, table, frozenset(table))
        assert rule.lookup(b"\x00\x01") == b"\x01"
        with pytest.raises(DomainError):
            rule.lookup(b"\x01\x01")
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 1, table, frozenset({b"\x00\x01"}))

    def test_values_share_one_positive_length(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00", b"\x01": b"\x00\x01"})
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"", b"\x01": b""})

    def test_letters_validated_against_alphabets(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x02", b"\x01": b"\x00"})
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 0, {b"\x02": b"\x00", b"\x01": b"\x00"})

    def test_key_width_checked(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 1, {b"\x00": b"\x00", b"\x01": b"\x01"})

    def test_geometry_bounds(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, -1, 0, {b"\x00": b"\x00"})
        with pytest.raises(CapacityError):
            LocalRule(BINARY, BINARY, 8, 9, {})

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            LocalRule(BINARY, BINARY, 0, 0, {})

    def test_equal_rules_hash_alike(self):
        first, second = oxtoby_rule(), oxtoby_rule()
        assert first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_rules_differing_in_their_table_only_are_unequal(self):
        swap = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x01", b"\x01": b"\x00"})
        ident = identity_rule(BINARY)
        assert swap != ident
        assert len({swap, ident}) == 2


class TestApply:
    def test_oxtoby_on_the_displayed_window(self, morse, oxtoby):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        out = apply_code(oxtoby, win)
        assert out.text == "01000101.0100010"

    def test_word_image(self, oxtoby):
        w = BINARY.word("0110100110010110")
        assert apply_to_word(oxtoby, w).text == "010001010100010"

    def test_anticipation_shortens_on_the_right_only(self, oxtoby):
        win = Window(BINARY.word("0110100110010110"), 0)
        out = apply_code(oxtoby, win)
        assert out.text == ".010001010100010"

    def test_memory_shortens_on_the_left(self):
        first = projection_rule(BINARY, 1, 0, offset=1)
        win = Window(BINARY.word("0110"), 2)
        out = apply_code(first, win)
        assert (out.start, out.text) == (-1, "1.10")

    def test_origin_must_survive(self):
        first = projection_rule(BINARY, 1, 0, offset=1)
        with pytest.raises(RangeError):
            apply_code(first, Window(BINARY.word("0110"), 0))

    def test_word_shorter_than_window(self, oxtoby):
        with pytest.raises(RangeError):
            apply_to_word(oxtoby, BINARY.word("0"))

    def test_alphabet_mismatch(self, oxtoby):
        with pytest.raises(DomainError):
            apply_to_word(oxtoby, Alphabet.from_names("012").word("01"))

    def test_block_valued_rules_do_not_slide(self):
        doubler = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        with pytest.raises(DomainError):
            apply_to_word(doubler, BINARY.word("01"))

    def test_sliding_commutes_with_the_shift(self, oxtoby):
        rng = random.Random(7)
        for _ in range(50):
            w = Word(BINARY, bytes(rng.randrange(2) for _ in range(12)))
            assert apply_to_word(oxtoby, w[1:]) == apply_to_word(oxtoby, w)[1:]


class TestPreimages:
    def test_displayed_preimages(self, oxtoby):
        cases = {
            "0100": {"01101", "10010"},
            "0000": {"01010", "10101"},
            "0101": {"01100", "10011"},
            "1111": {"00000", "11111"},
            "": {"0", "1"},
        }
        for text, expected in cases.items():
            got = {w.text for w in preimage_blocks(oxtoby, BINARY.word(text))}
            assert got == expected, text

    def test_always_two_complementary_preimages(self, oxtoby):
        for n in range(9):
            for w in all_binary_words(n):
                pre = preimage_blocks(oxtoby, w)
                assert len(pre) == 2
                a, b = sorted(pre)
                assert a.complement() == b

    def test_preimages_map_back(self, oxtoby):
        for n in range(1, 9):
            for w in all_binary_words(n):
                for x in preimage_blocks(oxtoby, w):
                    assert apply_to_word(oxtoby, x) == w

    def test_cap_is_enforced(self, oxtoby):
        with pytest.raises(CapacityError):
            preimage_blocks(oxtoby, BINARY.word("0" * 12), cap=4)

    def test_alphabet_mismatch(self, oxtoby):
        with pytest.raises(DomainError):
            preimage_blocks(oxtoby, Alphabet.from_names("012").word("01"))

    def test_long_toeplitz_word(self, toeplitz, oxtoby):
        word = toeplitz.periodic_window(Seed(0, 0, 2), 600).word
        pre = preimage_blocks(oxtoby, word)
        assert len(pre) == 2
        a, b = sorted(pre)
        assert a.complement() == b
        assert apply_to_word(oxtoby, a) == word

    def test_frontier_matches_the_depth_first_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            rule = random_rule(rng)
            w = random_word(rng, rule, 8)
            cap = rng.choice((10, 50, 200, 1 << 20))
            try:
                expected = dfs_preimages(rule, w, cap)
            except CapacityError:
                with pytest.raises(CapacityError):
                    preimage_blocks(rule, w, cap)
                continue
            assert preimage_blocks(rule, w, cap) == expected

    def test_cap_counts_every_letter_tried(self):
        rng = random.Random(12)
        for _ in range(40):
            rule = random_rule(rng)
            w = random_word(rng, rule, 6)
            fits = (c for c in itertools.count() if _fits(dfs_preimages, rule, w, c))
            need = next(fits)
            assert _fits(preimage_blocks, rule, w, need)
            if need:
                assert not _fits(preimage_blocks, rule, w, need - 1)

    def test_width_one_rules(self):
        swap = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x01", b"\x01": b"\x00"})
        pre = preimage_blocks(swap, BINARY.word("10"))
        assert {w.text for w in pre} == {"01"}


def _fits(enumerate_fibre, rule, w, cap):
    try:
        enumerate_fibre(rule, w, cap)
    except CapacityError:
        return False
    return True


class TestImageLanguage:
    def test_oxtoby_maps_morse_onto_toeplitz(self, morse, toeplitz, oxtoby):
        for n in range(1, 10):
            image = image_language(oxtoby, morse.language(n + 1))
            assert image == toeplitz.language(n)

    def test_empty_language(self, oxtoby):
        assert image_language(oxtoby, []) == set()

    def test_mixed_lengths_rejected(self, oxtoby):
        with pytest.raises(DomainError):
            image_language(oxtoby, [BINARY.word("010"), BINARY.word("01")])


SYMBOLS = tuple(chr(0x4E00 + i) for i in range(255))

#: (alphabet size s, window width w): codes that fit one byte (s**w <= 256)
#: run through the translation kernel, wider ones window by window.
KERNEL_SHAPES = [
    (2, 1), (2, 3), (2, 8), (2, 9), (2, 12),
    (3, 2), (3, 5), (3, 6), (3, 11),
    (4, 4), (4, 5), (4, 9),
    (5, 3), (5, 4), (5, 7), (5, 14),
    (17, 1), (17, 2), (17, 4), (17, 8), (17, 16),
    (255, 1), (255, 2), (255, 3), (255, 5), (255, 9),
]

#: Rules with at most this many windows are total, wider ones partial.
TOTAL_WINDOWS = 4096


def kernel_rule(rng, size, width, memory, keys, out_size):
    """A letter-valued rule on ``keys``, total when they are every window;
    the last output letter is always used."""
    total = len(keys) == size**width
    table = {k: bytes([rng.randrange(out_size)]) for k in keys}
    table[rng.choice(sorted(keys))] = bytes([out_size - 1])
    return LocalRule(
        Alphabet(SYMBOLS[:size]),
        Alphabet(SYMBOLS[:out_size]),
        memory,
        width - 1 - memory,
        table,
        None if total else frozenset(keys),
    )


def kernel_keys(rng, size, width, words):
    """Every window when there are few, else the windows of ``words`` and
    a few more."""
    if size**width <= TOTAL_WINDOWS:
        return {bytes(t) for t in itertools.product(range(size), repeat=width)}
    keys = {w[i : i + width] for w in words for i in range(len(w) - width + 1)}
    return keys | {bytes(rng.randrange(size) for _ in range(width)) for _ in range(20)}


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, RangeError) as err:
        return type(err).__name__, str(err)


class TestKernelAgreesWithJoinOracle:
    def test_shapes_cover_both_paths(self):
        assert {s**w <= 256 for s, w in KERNEL_SHAPES} == {True, False}
        assert {s for s, w in KERNEL_SHAPES if s**w <= 256} == {2, 3, 4, 5, 17, 255}
        assert (2, 8) in KERNEL_SHAPES and (2, 9) in KERNEL_SHAPES
        assert {s for s, _ in KERNEL_SHAPES} == {2, 3, 4, 5, 17, 255}

    @pytest.mark.parametrize("size,width", KERNEL_SHAPES)
    def test_every_memory_split(self, size, width):
        rng = random.Random(size * 100 + width)
        for memory in range(width):
            words = [
                bytes([size - 1]) + bytes(rng.randrange(size) for _ in range(n - 1))
                for n in (width, width, width + 1, width + 2, width + 97)
            ]
            keys = kernel_keys(rng, size, width, words)
            rule = kernel_rule(rng, size, width, memory, keys, (2, 3, 255)[memory % 3])
            for data in words:
                word = Word(rule.input_alphabet, data)
                assert apply_to_word(rule, word).letters == oracle.apply(rule, data)
                for origin in sorted({0, memory, len(data) // 2, len(data)}):
                    got = outcome(apply_code, rule, Window(word, origin))
                    if isinstance(got, Window):
                        got = got.word.letters, got.origin
                    assert got == outcome(oracle.apply_code, rule, data, origin)
            same = [w for w in words if len(w) == width]
            image = image_language(rule, [Word(rule.input_alphabet, w) for w in same])
            assert {w.letters for w in image} == oracle.image_language(rule, same)

    @pytest.mark.parametrize("size,width", KERNEL_SHAPES)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_undefined_window_raises(self, size, width, where):
        rng = random.Random(size * 100 + width)
        top = size - 1
        # the one run of `width` top letters is the one undefined window
        data = bytearray(rng.randrange(top) for _ in range(width + 40))
        at = {"first": 0, "middle": 20, "last": 40}[where]
        data[at : at + width] = bytes([top]) * width
        data = bytes(data)
        hole = bytes([top]) * width
        keys = kernel_keys(rng, size, width, [data]) - {hole}
        rule = kernel_rule(rng, size, width, width // 2, keys, 3)
        word = Word(rule.input_alphabet, data)
        text = f"rule is undefined on window {Word(rule.input_alphabet, hole).text!r}"
        assert outcome(oracle.apply, rule, data) == ("DomainError", text)
        assert outcome(apply_to_word, rule, word) == ("DomainError", text)
        assert outcome(apply_code, rule, Window(word, 0)) == ("DomainError", text)
        clean = data[:width] if where == "last" else data[-width:]
        blocks = [Word(rule.input_alphabet, b) for b in (clean, hole)]
        assert outcome(image_language, rule, blocks) == ("DomainError", text)


class TestSerialization:
    def test_round_trip_total_rule(self, oxtoby):
        payload = rule_to_json(oxtoby)
        assert payload["memory"] == 0
        assert payload["anticipation"] == 1
        assert payload["input"] == "01"
        assert payload["table"]["01"] == "0"
        assert "domain" not in payload
        again = rule_from_json(json.loads(json.dumps(payload)))
        assert again == oxtoby

    def test_round_trip_partial_rule(self):
        table = {b"\x00\x01": b"\x01", b"\x01\x00": b"\x00"}
        rule = LocalRule(BINARY, BINARY, 0, 1, table, frozenset(table))
        payload = rule_to_json(rule)
        assert payload["domain"] == ["01", "10"]
        assert rule_from_json(payload) == rule

    def test_round_trip_block_valued_rule(self):
        rule = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        assert rule_from_json(rule_to_json(rule)) == rule

    def test_malformed_payloads(self):
        with pytest.raises(DomainError):
            rule_from_json({"memory": 0})
        with pytest.raises(DomainError):
            rule_from_json(
                {"memory": 0, "anticipation": 0, "input": "01", "output": "01", "table": []}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory", '"x"'),
            ("memory", "NaN"),
            ("memory", "1e400"),
            ("anticipation", "-1e400"),
            ("domain", "5"),
            ("domain", "null"),
        ],
    )
    def test_malformed_field_values(self, oxtoby, field, value):
        payload = rule_to_json(oxtoby) | {field: json.loads(value)}
        with pytest.raises(DomainError, match="malformed rule payload"):
            rule_from_json(payload)

    def test_load_rule_by_name(self, oxtoby):
        assert load_rule("oxtoby") == oxtoby

    def test_load_rule_from_file(self, oxtoby, tmp_path):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(rule_to_json(oxtoby)))
        assert load_rule(path) == oxtoby

    def test_load_rule_missing_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_rule(tmp_path / "absent.json")

    def test_load_rule_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(DomainError):
            load_rule(path)
