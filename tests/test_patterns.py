"""Forbidden-pattern scanners against a brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from morsetoeplitz import (
    MORSE,
    TOEPLITZ,
    Alphabet,
    BINARY,
    CapacityError,
    DomainError,
    EVEN_SQUARE_KIND,
    OVERLAP_KIND,
    PatternWitness,
    Seed,
    Word,
    classify_word,
    find_even_square,
    find_overlap,
)
from morsetoeplitz import patterns
from patterns_oracle import _even_square_small, _overlap_small


def brute_overlap(data):
    """Reference scan, written independently of the library's loop."""
    hits = []
    for i in range(len(data)):
        for n in range(1, len(data)):
            if i + 2 * n < len(data):
                if data[i : i + n] == data[i + n : i + 2 * n] and data[i + 2 * n] == data[i]:
                    hits.append((i, n))
    return min(hits) if hits else None


def brute_even_square(data, zero=0):
    hits = []
    for i in range(len(data)):
        for n in range(1, len(data)):
            if i + 2 * n <= len(data):
                half = data[i : i + n]
                if half == data[i + n : i + 2 * n] and half.count(zero) % 2 == 0:
                    hits.append((i, n))
    return min(hits) if hits else None


def all_binary(n):
    for x in range(1 << n):
        yield bytes((x >> i) & 1 for i in range(n))


def binary(data):
    return Word(BINARY, data)


def loc(witness):
    return None if witness is None else (witness.start, witness.period)


class TestFindOverlap:
    def test_squares_alone_are_not_overlaps(self):
        assert find_overlap(BINARY.word("0110")) is None
        assert find_overlap(BINARY.word("010011")) is None

    def test_simple_overlaps(self):
        w = find_overlap(BINARY.word("00011"))
        assert (w.start, w.period, w.kind) == (0, 1, OVERLAP_KIND)
        assert loc(find_overlap(BINARY.word("010101"))) == (0, 2)

    def test_reports_the_leftmost_shortest_witness(self):
        # the only overlap in 0110110 is the period-3 one at the start
        assert loc(find_overlap(BINARY.word("0110110"))) == (0, 3)

    def test_short_words(self):
        assert find_overlap(BINARY.word("")) is None
        assert find_overlap(BINARY.word("00")) is None
        assert loc(find_overlap(BINARY.word("000"))) == (0, 1)

    def test_works_over_larger_alphabets(self):
        abc = Alphabet.from_names("012")
        assert loc(find_overlap(abc.word("0120120"))) == (0, 3)

    def test_scan_cap(self, morse, monkeypatch):
        # the cap is read at call time: a word at the cap is answered
        monkeypatch.setattr(patterns, "DEFAULT_SCAN_CAP", 64)
        letters = morse.periodic_window(Seed(0, 0, 2), 64).word.letters
        assert find_overlap(binary(letters[:64])) is None
        with pytest.raises(CapacityError, match="^word of length 65 exceeds scan cap 64$"):
            find_overlap(binary(letters[:65]))

    def test_exhaustive_small_binary(self):
        for n in range(15):
            for data in all_binary(n):
                assert loc(find_overlap(binary(data))) == brute_overlap(data), data

    def test_morse_window_is_overlap_free(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 256)
        assert find_overlap(win.word) is None


class TestFindEvenSquare:
    def test_examples(self):
        w = find_even_square(BINARY.word("0110"))
        assert (w.start, w.period, w.kind, w.zero) == (1, 1, EVEN_SQUARE_KIND, 0)
        assert loc(find_even_square(BINARY.word("00011"))) == (3, 1)
        assert loc(find_even_square(BINARY.word("010011"))) == (4, 1)

    def test_zero_count_of_zero_is_even(self):
        # a square over the other letter alone is already forbidden
        assert loc(find_even_square(BINARY.word("11"))) == (0, 1)

    def test_odd_zero_squares_are_allowed(self):
        assert find_even_square(BINARY.word("00")) is None
        assert find_even_square(BINARY.word("0101")) is None

    def test_marked_letter_selectable(self):
        assert find_even_square(BINARY.word("00"), zero=1) is not None
        assert find_even_square(BINARY.word("11"), zero=1) is None

    def test_marked_letter_validated(self):
        with pytest.raises(DomainError):
            find_even_square(BINARY.word("01"), zero=2)

    def test_scan_cap(self, toeplitz, monkeypatch):
        monkeypatch.setattr(patterns, "DEFAULT_SCAN_CAP", 64)
        letters = toeplitz.periodic_window(Seed(0, 0, 2), 64).word.letters
        assert find_even_square(binary(letters[:64])) is None
        with pytest.raises(CapacityError, match="^word of length 65 exceeds scan cap 64$"):
            find_even_square(binary(letters[:65]))

    def test_short_words(self):
        assert find_even_square(BINARY.word("")) is None
        assert find_even_square(BINARY.word("1")) is None

    def test_exhaustive_small_binary(self):
        for n in range(15):
            for data in all_binary(n):
                assert loc(find_even_square(binary(data))) == brute_even_square(data), data

    def test_toeplitz_window_admits_no_even_square(self, toeplitz):
        win = toeplitz.periodic_window(Seed(0, 0, 2), 256)
        assert find_even_square(win.word) is None


class TestAgreesWithTheLoopOracle:
    """Same witnesses as the quadratic loop in ``patterns_oracle``."""

    @staticmethod
    def agree(data, size, zero=0):
        word = Word(Alphabet.from_names("01234"[:size]), data)
        overlap, square = find_overlap(word), find_even_square(word, zero)
        assert loc(overlap) == loc(_overlap_small(data)), data
        assert loc(square) == loc(_even_square_small(data, zero)), (data, zero)
        for hit in (overlap, square):
            assert hit is None or hit.matches(word)

    def test_random_words(self):
        rng = random.Random(20240817)
        for size in (2, 3, 4, 5):
            for n in (64, 100, 255, 512, 1024, 2048):
                data = bytes(rng.randrange(size) for _ in range(n))
                self.agree(data, size, rng.randrange(size))

    def test_planted_witnesses(self, morse, toeplitz):
        """One pattern planted late in a pattern-free word, so the sweep runs
        through many half lengths before it meets it."""
        rng = random.Random(7)
        m = morse.periodic_window(Seed(0, 0, 2), 512).word.letters
        t = toeplitz.periodic_window(Seed(0, 0, 2), 512).word.letters
        for _ in range(12):
            half = rng.randrange(1, 100)
            at = rng.randrange(len(m) - 2 * half - 1)
            data = bytearray(m)
            data[at + half : at + 2 * half + 1] = data[at : at + half + 1]
            self.agree(bytes(data), 2)
            data = bytearray(t)
            data[at + half : at + 2 * half] = data[at : at + half]
            if data[at : at + half].count(0) % 2:
                data[at] = data[at + half] = 1 - data[at]
            self.agree(bytes(data), 2)

    def test_larger_letter_codes(self):
        """Letters that use every bit plane of a byte, with a marked letter
        that need not occur."""
        rng = random.Random(3)
        letters = (0, 1, 128, 254)
        alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(255)))
        for n in (64, 300, 1000):
            data = bytes(rng.choice(letters) for _ in range(n))
            word = Word(alphabet, data)
            for zero in (0, 254, 7):
                assert loc(find_even_square(word, zero)) == loc(
                    _even_square_small(data, zero)
                )
            assert loc(find_overlap(word)) == loc(_overlap_small(data))

    def test_pattern_free_long_words(self, morse, toeplitz):
        m = morse.periodic_window(Seed(0, 0, 2), 2048).word
        t = toeplitz.periodic_window(Seed(0, 0, 2), 2048).word
        assert len(m) == len(t) == 4096
        assert find_overlap(m) is None and _overlap_small(m.letters) is None
        assert find_even_square(t) is None and _even_square_small(t.letters, 0) is None


class TestWitnessReplay:
    def test_found_witnesses_match(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randrange(0, 40)
            w = binary(bytes(rng.randrange(2) for _ in range(n)))
            for hit in (find_overlap(w), find_even_square(w)):
                if hit is not None:
                    assert hit.matches(w)

    def test_replay_rejects_wrong_locations(self):
        w = BINARY.word("00011")
        assert not PatternWitness(0, 1, EVEN_SQUARE_KIND, 0).matches(w)
        assert not PatternWitness(1, 1, OVERLAP_KIND).matches(w)
        assert not PatternWitness(-1, 1, OVERLAP_KIND).matches(w)
        assert not PatternWitness(0, 1, "unknown").matches(w)
        assert not PatternWitness(3, 1, EVEN_SQUARE_KIND, None).matches(w)


class TestClassifyWord:
    def test_examples(self):
        r = classify_word(BINARY.word("0110"))
        assert r.overlap is None
        assert loc(r.even_square) == (1, 1)
        assert r.morse_factor is True
        assert r.toeplitz_factor is False

        r = classify_word(BINARY.word("00011"))
        assert loc(r.overlap) == (0, 1)
        assert r.morse_factor is False and r.toeplitz_factor is False

        r = classify_word(BINARY.word("010011"))
        assert r.overlap is None
        assert r.morse_factor is True and r.toeplitz_factor is False

    def test_empty_word_is_a_factor_of_both(self):
        r = classify_word(BINARY.word(""))
        assert r.morse_factor is True and r.toeplitz_factor is True

    def test_factor_fields_are_answered_at_every_length(self, morse, toeplitz):
        """Past 16 letters too: every block of either language, and each
        with one letter flipped, at lengths 17 to 64."""
        rng = random.Random(64)
        for n in range(17, 65):
            morse_blocks, toeplitz_blocks = morse.language(n), toeplitz.language(n)
            words = set()
            for w in morse_blocks | toeplitz_blocks:
                flipped = bytearray(w.letters)
                flipped[rng.randrange(n)] ^= 1
                words.update((w.letters, bytes(flipped)))
            for data in words:
                r = classify_word(binary(data))
                assert r.morse_factor is (r.word in morse_blocks)
                assert r.toeplitz_factor is (r.word in toeplitz_blocks)

    def test_requires_the_binary_alphabet(self):
        with pytest.raises(DomainError):
            classify_word(Alphabet.from_names("012").word("01"))
        with pytest.raises(DomainError):
            classify_word(Alphabet.from_names("ab").word("ab"))

    def test_factor_flags_match_the_language(self, morse, toeplitz):
        for n in (3, 5):
            for data in all_binary(n):
                r = classify_word(binary(data))
                assert r.morse_factor == (r.word in morse.language(n))
                assert r.toeplitz_factor == (r.word in toeplitz.language(n))


class TestArbitraryWords:
    """Oracle agreement on words too long and too varied to enumerate."""

    sized = st.integers(2, 4).flatmap(
        lambda size: st.tuples(
            st.just(size), st.lists(st.integers(0, size - 1), max_size=60)
        )
    )

    @settings(derandomize=True, max_examples=300)
    @given(sized)
    def test_scanners_match_the_oracle(self, case):
        size, letters = case
        data = bytes(letters)
        word = Word(Alphabet.from_names("0123"[:size]), data)
        for hit, expected in (
            (find_overlap(word), brute_overlap(data)),
            (find_even_square(word, 0), brute_even_square(data, 0)),
        ):
            assert loc(hit) == expected
            if hit is not None:
                assert hit.matches(word)


class TestProvedFactors:
    """Morse and Toeplitz factors are answered by ``_is_factor`` alone; every
    other word still gets the sweep's least witness."""

    @staticmethod
    def no_sweep(monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep ran on a proved factor")

        monkeypatch.setattr(patterns, "_least_repeat", refuse)

    def test_long_factors_skip_the_sweep(self, morse, toeplitz, monkeypatch):
        m = morse.periodic_window(Seed(0, 0, 2), 1 << 16).word.letters
        t = toeplitz.periodic_window(Seed(0, 0, 2), 1 << 16).word.letters
        self.no_sweep(monkeypatch)
        assert find_overlap(binary(m[: 1 << 16])) is None
        assert find_overlap(binary(m[1 << 16 :]).complement()) is None
        assert find_even_square(binary(t[1 << 15 : 3 << 15])) is None
        assert find_even_square(binary(t[: 1 << 16]).complement(), 1) is None

    def test_other_words_still_sweep(self, monkeypatch):
        self.no_sweep(monkeypatch)
        with pytest.raises(AssertionError):
            find_overlap(BINARY.word("00100"))
        with pytest.raises(AssertionError):
            find_even_square(BINARY.word("1001"))
        with pytest.raises(AssertionError):
            find_even_square(Alphabet.from_names("012").word("0110"), 2)

    factors = st.tuples(
        st.sampled_from([MORSE, TOEPLITZ]),
        st.integers(0, 1 << 12),
        st.integers(0, 160),
        st.none() | st.tuples(st.integers(0, 159), st.integers(0, 2)),
        st.booleans(),
        st.integers(2, 3),
    )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(factors)
    def test_edited_and_renamed_factors_match_the_oracle(self, case):
        """Factors, factors with one letter changed (to 2 as well), their
        0/1 renamings, over two or three letters, with every letter marked
        in turn."""
        base, at, n, edit, swap, size = case
        data = bytearray(base.periodic_window(Seed(0, 0, 2), 4096).word.letters)
        data = data[at : at + n]
        if edit is not None and edit[0] < len(data):
            data[edit[0]] = edit[1] % size
        data = bytes(data)
        if swap:
            data = data.translate(bytes.maketrans(b"\0\1", b"\1\0"))
        word = Word(Alphabet.from_names("012"[:size]), data)
        assert loc(find_overlap(word)) == loc(_overlap_small(data)), data
        for zero in range(size):
            assert loc(find_even_square(word, zero)) == loc(
                _even_square_small(data, zero)
            ), (data, zero)


class TestCore:
    """Non-factors of at least ``_CORE_MIN`` letters are swept only around
    their non-factor core; the whole-word sweep and the loop oracle must
    give the same witness."""

    @staticmethod
    def sweep(data, extra, zero=None):
        return patterns._least_repeat(data, extra, zero, len(data))

    def agree(self, data, size=2):
        word = Word(Alphabet.from_names("012"[:size]), data)
        assert loc(find_overlap(word)) == self.sweep(data, 1), data
        for zero in range(size):
            assert loc(find_even_square(word, zero)) == self.sweep(data, 0, zero), (data, zero)

    @staticmethod
    def edited(rng, source, n):
        """A slice of ``source`` with one to three planted repeats, flips,
        insertions and deletions."""
        at = rng.randrange(len(source) - n)
        data = bytearray(source[at : at + n])
        for _ in range(rng.randrange(1, 4)):
            op, i = rng.randrange(4), rng.randrange(len(data))
            if op == 0:
                half = rng.randrange(1, 40)
                i = min(i, len(data) - 2 * half - 1)
                data[i + half : i + 2 * half + 1] = data[i : i + half + 1]
            elif op == 1:
                data[i] ^= 1
            elif op == 2:
                data.insert(i, rng.randrange(2))
            else:
                del data[i]
        return bytes(data)

    def test_edited_slices_match_the_whole_sweep(self, morse, toeplitz):
        rng = random.Random(19)
        m = morse.periodic_window(Seed(0, 0, 2), 4096).word.letters
        t = toeplitz.periodic_window(Seed(0, 0, 2), 4096).word.letters
        for n in (1024, 1500, 2048, 4000, 8000):
            for source in (m, t, m.translate(patterns._SWAP01), t.translate(patterns._SWAP01)):
                for _ in range(3):
                    self.agree(self.edited(rng, source, n))

    def test_edited_slices_match_the_loop_oracle(self, morse, toeplitz, monkeypatch):
        monkeypatch.setattr(patterns, "_CORE_MIN", 0)
        rng = random.Random(20)
        m = morse.periodic_window(Seed(0, 0, 2), 512).word.letters
        t = toeplitz.periodic_window(Seed(0, 0, 2), 512).word.letters
        for _ in range(60):
            for source in (m, t):
                data = self.edited(rng, source, rng.randrange(40, 300))
                word = binary(data)
                assert loc(find_overlap(word)) == loc(_overlap_small(data)), data
                for zero in (0, 1):
                    assert loc(find_even_square(word, zero)) == loc(
                        _even_square_small(data, zero)
                    ), (data, zero)

    def test_ternary_words(self, morse, toeplitz):
        rng = random.Random(21)
        m = morse.periodic_window(Seed(0, 0, 2), 2048).word.letters
        t = toeplitz.periodic_window(Seed(0, 0, 2), 2048).word.letters
        for source in (m, t):
            for n in (1024, 3000):
                data = bytearray(self.edited(rng, source, n))
                for _ in range(rng.randrange(1, 3)):
                    data[rng.randrange(len(data))] = 2
                self.agree(bytes(data), 3)

    def test_every_witness_lies_in_the_window(self, monkeypatch):
        """The lemma of the module docstring, on every binary word of up to
        12 letters, through the scanners' own path."""
        monkeypatch.setattr(patterns, "_CORE_MIN", 0)
        for n in range(13):
            for data in all_binary(n):
                word = binary(data)
                assert loc(find_overlap(word)) == brute_overlap(data), data
                for zero in (0, 1):
                    assert loc(find_even_square(word, zero)) == brute_even_square(data, zero)
                for target, extra, probe, zero in (
                    (MORSE, 1, data, None),
                    (TOEPLITZ, 0, data, 0),
                    (TOEPLITZ, 0, data.translate(patterns._SWAP01), 1),
                ):
                    if patterns._is_factor(target, probe):
                        continue
                    core = patterns._core(target, probe, extra)
                    if core is None:
                        continue
                    lo, hi, top = core
                    for s in range(n):
                        for h in range(1, (n - s - extra) // 2 + 1):
                            span = data[s : s + 2 * h + extra]
                            if span[: h + extra] != span[h:] or (
                                zero is not None and span[:h].count(zero) % 2
                            ):
                                continue
                            assert lo <= s and s + 2 * h + extra <= hi and h <= top, (
                                data, s, h, core,
                            )

    def test_a_long_minimal_non_factor_sweeps_the_whole_word(self, morse):
        """mu^k(00)0 is an overlap whose proper factors are Morse factors,
        so at the end of a Morse slice it is the only minimal non-factor, the
        factor prefix and suffix overlap, and the lemma does not apply."""
        m = morse.periodic_window(Seed(0, 0, 2), 4096).word.letters
        for k in (4, 9):
            block = morse._iterate(k)[0] * 2
            at = m.index(block, 1500)
            data = m[at - 1500 : at + len(block)] + b"\0"
            assert len(data) >= patterns._CORE_MIN
            assert patterns._core(MORSE, data, 1) is None
            assert loc(find_overlap(binary(data))) == (1500, 1 << k)
            self.agree(data)

    def test_the_crossover(self, morse, monkeypatch):
        """One letter below ``_CORE_MIN`` the word is swept whole; at it the
        sweep runs on the core's window."""
        m = morse.periodic_window(Seed(0, 0, 2), 2048).word.letters
        calls = []
        core = patterns._core
        monkeypatch.setattr(
            patterns, "_core", lambda *args: calls.append(args) or core(*args)
        )
        for n in (patterns._CORE_MIN - 1, patterns._CORE_MIN):
            data = bytearray(m[:n])
            data[700:705] = data[695:700]
            data = bytes(data)
            calls.clear()
            assert loc(find_overlap(binary(data))) == loc(_overlap_small(data))
            assert len(calls) == (n == patterns._CORE_MIN)
