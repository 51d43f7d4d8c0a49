"""Alphabet, Word, and Window basics."""

import functools
import random

import pytest

from morsetoeplitz import Alphabet, BINARY, DomainError, RangeError, Word, parse_window
from morsetoeplitz.words import Window, _window_codes


class TestAlphabet:
    def test_binary_symbols(self):
        assert BINARY.symbols == ("0", "1")
        assert BINARY.size == 2
        assert len(BINARY) == 2
        assert str(BINARY) == "01"

    def test_from_names(self):
        a = Alphabet.from_names("abc")
        assert a.symbols == ("a", "b", "c")
        assert a.index("b") == 1
        assert a.name(2) == "c"

    def test_index_of_foreign_symbol(self):
        with pytest.raises(DomainError):
            BINARY.index("2")

    def test_name_of_foreign_letter(self):
        with pytest.raises(DomainError):
            BINARY.name(2)

    def test_too_small(self):
        with pytest.raises(DomainError):
            Alphabet(("0",))

    def test_duplicate_symbols(self):
        with pytest.raises(DomainError):
            Alphabet(("0", "0"))

    def test_multichar_symbol(self):
        with pytest.raises(DomainError):
            Alphabet(("ab", "c"))

    def test_dot_reserved_for_windows(self):
        with pytest.raises(DomainError):
            Alphabet((".", "x"))

    def test_separately_built_alphabets_hash_equal(self):
        symbols = tuple(chr(0x4E00 + i) for i in range(255))
        a, b = Alphabet(symbols), Alphabet(tuple(list(symbols)))
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert hash(Alphabet.from_names("01")) == hash(BINARY)
        assert Alphabet.from_names("10") != BINARY
        assert {a: 1}[b] == 1

    def test_word_parsing_round_trip(self):
        w = BINARY.word("0110")
        assert w.letters == b"\x00\x01\x01\x00"
        assert w.text == "0110"
        with pytest.raises(DomainError):
            BINARY.word("012")


class TestWord:
    def test_letters_validated(self):
        with pytest.raises(DomainError):
            Word(BINARY, b"\x02")

    @pytest.mark.parametrize("size", [2, 3, 255])
    def test_letter_range_at_the_alphabet_edge(self, size):
        alphabet = Alphabet(tuple(chr(0x4E00 + i) for i in range(size)))
        assert Word(alphabet, bytes([size - 1])).letters == bytes([size - 1])
        assert Word(alphabet, b"").letters == b""
        for bad in sorted({size, 255} - {size - 1}):
            message = f"letter {bad} out of range for alphabet {alphabet}"
            with pytest.raises(DomainError) as err:
                Word(alphabet, bytes([0, bad, size - 1, 0]))
            assert str(err.value) == message
        # the message names the largest letter, not the first bad one
        with pytest.raises(DomainError) as err:
            Word(alphabet, bytes([size, 255, 0]))
        assert str(err.value) == f"letter 255 out of range for alphabet {alphabet}"

    def test_bytearray_letters(self):
        w = Word(BINARY, bytearray(b"\x00\x01\x01"))
        assert isinstance(w.letters, bytearray)
        assert w.text == "011"
        with pytest.raises(DomainError) as err:
            Word(BINARY, bytearray(b"\x00\x03\x02"))
        assert str(err.value) == "letter 3 out of range for alphabet 01"

    def test_len_iter_getitem(self):
        w = BINARY.word("010")
        assert len(w) == 3
        assert list(w) == [0, 1, 0]
        assert w[1] == 1
        assert w[1:].text == "10"
        assert isinstance(w[1:], Word)

    def test_concatenation(self):
        assert (BINARY.word("01") + BINARY.word("10")).text == "0110"

    def test_concatenation_needs_one_alphabet(self):
        with pytest.raises(DomainError):
            BINARY.word("01") + Alphabet.from_names("012").word("2")

    def test_ordering_is_letterwise(self):
        words = [BINARY.word(t) for t in ("10", "00", "01")]
        assert [w.text for w in sorted(words)] == ["00", "01", "10"]

    def test_factors(self):
        w = BINARY.word("0110")
        assert {f.text for f in w.factors(2)} == {"01", "11", "10"}
        assert {f.text for f in w.factors(4)} == {"0110"}

    def test_factors_are_checked_words(self):
        three = Alphabet.from_names("012")
        w = three.word("0120210")
        for n in (1, 3, 7):
            factors = w.factors(n)
            checked = {Word(three, w.letters[i : i + n]) for i in range(len(w) - n + 1)}
            assert factors == checked
            assert {hash(f) for f in factors} == {hash(c) for c in checked}
            assert all(f.alphabet is three and type(f.letters) is bytes for f in factors)

    def test_sets_and_dicts_of_words(self):
        three = Alphabet.from_names("012")
        other = Alphabet.from_names("abc")
        words = [three.word("01"), Alphabet.from_names("012").word("01"), other.word("ab")]
        assert len(set(words)) == 2
        assert {words[0]: "x"}[words[1]] == "x"
        assert words[2] not in {words[0]}
        assert words[2].letters == words[0].letters

    def test_hash_reads_the_letters_only(self):
        """Words with the same letters over different alphabets hash alike,
        stay unequal and are kept apart in one set."""
        words = [BINARY.word("0110"), Alphabet.from_names("ab").word("abba")]
        assert hash(words[0]) == hash(words[1]) == hash(b"\x00\x01\x01\x00")
        assert words[0] != words[1]
        assert len(set(words)) == 2 and all(w in set(words) for w in words)

    def test_factors_length_out_of_range(self):
        w = BINARY.word("01")
        with pytest.raises(RangeError):
            w.factors(0)
        with pytest.raises(RangeError):
            w.factors(3)

    def test_complement(self):
        assert BINARY.word("0110").complement().text == "1001"
        with pytest.raises(DomainError):
            Alphabet.from_names("012").word("012").complement()


class TestWindowCodes:
    @pytest.mark.parametrize("size", [2, 3, 5, 16, 17, 255])
    def test_codes_are_base_size_numbers(self, size):
        """Each width-window's code is its letters read in base ``size``;
        a word shorter than the width has no window, and codes past a byte
        give None."""
        rng = random.Random(size)
        for width in range(1, 10):
            for n in (0, width - 1, width, width + 1, 300):
                data = bytes(rng.randrange(size) for _ in range(n))
                got = _window_codes(data, size, width)
                if size**width > 256:
                    assert got is None
                    continue
                want = [
                    functools.reduce(lambda code, a: code * size + a, data[i : i + width])
                    for i in range(len(data) - width + 1)
                ]
                assert list(got) == want, (width, n)


class TestWindow:
    def test_bilateral_indexing(self):
        win = Window(BINARY.word("0110"), 2)
        assert win.start == -2
        assert win.stop == 2
        assert len(win) == 4

    def test_origin_bounds(self):
        # origin == len(word) is legal: all letters sit left of the point
        assert Window(BINARY.word("01"), 2).text == "01."
        with pytest.raises(RangeError):
            Window(BINARY.word("01"), 3)

    def test_text_round_trip(self):
        win = parse_window("1001.0110", BINARY)
        assert win.origin == 4
        assert win.text == "1001.0110"
        assert parse_window(".01", BINARY).start == 0

    def test_parse_window_needs_one_dot(self):
        with pytest.raises(DomainError):
            parse_window("0110", BINARY)
        with pytest.raises(DomainError):
            parse_window("0.1.0", BINARY)
