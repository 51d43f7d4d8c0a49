"""Constant-length substitutions: parsing, periodic points, and languages."""

import random
import time

import pytest

import substitution_oracle as oracle
from morsetoeplitz import (
    CapacityError,
    DegenerateError,
    DomainError,
    InsufficientWindowError,
    PrimitivityError,
    RangeError,
    Seed,
    SeedError,
    Substitution,
    BINARY,
    Alphabet,
    Word,
    language_brute,
    minimal_seed_period,
    parse_substitution,
    system_seeds,
)
from morsetoeplitz import graphs
from morsetoeplitz.substitution import LANGUAGE_BYTES_CAP, _LANGUAGES, _LanguageCache
from morsetoeplitz.words import Window


class TestParsing:
    def test_round_trip(self, morse):
        assert morse.spec() == "0->01;1->10"
        assert str(morse) == "0->01;1->10"
        assert parse_substitution(morse.spec()) == morse

    def test_letters_appear_in_rule_order(self):
        sub = parse_substitution("b->ab;a->ba")
        assert sub.alphabet.symbols == ("b", "a")
        assert sub.image(0).text == "ab"

    def test_bad_rule_shape(self):
        with pytest.raises(DomainError):
            parse_substitution("0=01")
        with pytest.raises(DomainError):
            parse_substitution("0->01;1->")

    def test_duplicate_lhs(self):
        with pytest.raises(DomainError):
            parse_substitution("0->01;0->10")

    def test_image_over_foreign_letter(self):
        with pytest.raises(DomainError):
            parse_substitution("0->01;1->12")

    def test_images_must_share_a_length(self):
        with pytest.raises(DomainError):
            parse_substitution("0->01;1->100")

    def test_length_one_images_rejected(self):
        with pytest.raises(DomainError):
            parse_substitution("0->1;1->0")

    def test_need_one_image_per_letter(self):
        with pytest.raises(DomainError):
            Substitution(BINARY, (BINARY.word("01"),))


class TestApplication:
    def test_apply(self, morse):
        assert morse.apply(BINARY.word("01")).text == "0110"
        assert morse.apply(BINARY.word("")).text == ""

    def test_apply_needs_matching_alphabet(self, morse, three_letter):
        with pytest.raises(DomainError):
            morse.apply(three_letter.alphabet.word("012"))

    def test_power_squares(self, morse, toeplitz):
        assert morse.power(2).spec() == "0->0110;1->1001"
        assert toeplitz.power(2).spec() == "0->0100;1->0101"
        assert morse.power(1) == morse

    def test_power_bounds(self, morse):
        with pytest.raises(RangeError):
            morse.power(0)
        with pytest.raises(CapacityError):
            morse.power(4, max_len=8)

    def test_image_accessor(self, morse):
        assert morse.image(1).text == "10"
        with pytest.raises(DomainError):
            morse.image(2)


def random_substitution(rng, size, r):
    """Random images of length r; letters 0 and size - 1 occur in them."""
    imgs = [bytearray(rng.randrange(size) for _ in range(r)) for _ in range(size)]
    imgs[rng.randrange(size)][rng.randrange(r)] = 0
    imgs[rng.randrange(size)][rng.randrange(r)] = size - 1
    alphabet = Alphabet(tuple(chr(0x4E00 + i) for i in range(size)))
    return Substitution(alphabet, tuple(Word(alphabet, bytes(im)) for im in imgs))


def letters(sub):
    return [im.letters for im in sub.images]


def first_seed(sub):
    for p in range(1, 9):
        seeds = sub.periodic_seeds(p)
        if seeds:
            return seeds[0]
    return None


def window_outcome(sub, seed, radius, max_len=1 << 20):
    """Letters of the library's window and of the oracle's, or their
    CapacityError texts."""
    try:
        win = sub.periodic_window(seed, radius, max_len=max_len)
        assert win.origin == radius
        got = win.word.letters
    except CapacityError as err:
        got = str(err)
    try:
        want = oracle.periodic_window(
            letters(sub), seed.left, seed.right, seed.period, radius, max_len
        )
    except CapacityError as err:
        want = str(err)
    return got, want


KERNEL_SHAPES = [(size, r) for size in (2, 3, 255) for r in range(2, 6)]


class TestByteKernelsAgreeWithJoinOracle:
    @pytest.mark.parametrize("size,r", KERNEL_SHAPES)
    def test_apply(self, size, r):
        rng = random.Random(size * 10 + r)
        for _ in range(4):
            sub = random_substitution(rng, size, r)
            for n in (0, 1, 2, 7, 300):
                data = bytes([0, size - 1]) + bytes(rng.randrange(size) for _ in range(n))
                word = Word(sub.alphabet, data)
                assert sub.apply(word).letters == oracle.image(letters(sub), data)

    @pytest.mark.parametrize("size,r", KERNEL_SHAPES)
    def test_power(self, size, r):
        rng = random.Random(size * 100 + r)
        sub = random_substitution(rng, size, r)
        k = 1
        while r ** (k + 1) <= 1024:
            k += 1
        for j in range(1, k + 1):
            assert letters(sub.power(j)) == oracle.power(letters(sub), j)

    @pytest.mark.parametrize("size,r", KERNEL_SHAPES)
    def test_periodic_window(self, size, r):
        rng = random.Random(size * 1000 + r)
        tested = 0
        for _ in range(6):
            sub = random_substitution(rng, size, r)
            seed = first_seed(sub)
            if seed is None:
                continue
            for radius in (1, 2, 7, 100, 5000):
                got, want = window_outcome(sub, seed, radius)
                assert got == want
            tested += isinstance(want, bytes)
        assert tested >= 2

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_window_cap_refuses_the_same_radii(self, r):
        rng = random.Random(r)
        sub = random_substitution(rng, 3, r)
        while first_seed(sub) is None or first_seed(sub).period > 2:
            sub = random_substitution(rng, 3, r)
        seed = first_seed(sub)
        # one letter grows in rounds to step**j letters; the cap sits one
        # below such a length, so growing to exactly max_len + 1 is refused
        step = r**seed.period
        max_len = step * step
        while max_len < 200:
            max_len *= step
        max_len -= 1
        refused = 0
        for radius in range(1, 3 * max_len):
            got, want = window_outcome(sub, seed, radius, max_len)
            assert got == want
            refused += isinstance(want, str)
        assert 0 < refused < 3 * max_len - 1

    def test_power_cap_message(self, morse):
        with pytest.raises(CapacityError) as err:
            morse.periodic_window(Seed(0, 0, 22), 4)
        assert str(err.value) == "r**k = 2**22 exceeds cap 1048576"
        with pytest.raises(CapacityError) as err:
            morse.power(21)
        assert str(err.value) == "r**k = 2**21 exceeds cap 1048576"


class TestPeriodicSeeds:
    def test_morse_census(self, morse):
        assert morse.periodic_seeds(1) == []
        assert morse.periodic_seeds(2) == [
            Seed(a, b, 2) for a in (0, 1) for b in (0, 1)
        ]

    def test_toeplitz_census(self, toeplitz):
        assert toeplitz.periodic_seeds(1) == []
        assert toeplitz.periodic_seeds(2) == [Seed(0, 0, 2), Seed(1, 0, 2)]

    def test_least_period_two(self, morse, toeplitz):
        assert minimal_seed_period(morse) == 2
        assert minimal_seed_period(toeplitz) == 2

    def test_three_letter_seeds(self, three_letter):
        assert three_letter.periodic_seeds(1) == []
        assert three_letter.periodic_seeds(2) == [
            Seed(0, 0, 2),
            Seed(0, 1, 2),
            Seed(2, 0, 2),
            Seed(2, 1, 2),
        ]

    def test_period_must_be_positive(self, morse):
        with pytest.raises(RangeError):
            morse.periodic_seeds(0)


class TestSystemSeeds:
    """Map-admissible seeds whose center block also lies in the language."""

    def test_morse_keeps_all_four(self, morse):
        assert system_seeds(morse) == morse.periodic_seeds(2)

    def test_toeplitz_keeps_both(self, toeplitz):
        assert system_seeds(toeplitz) == toeplitz.periodic_seeds(2)

    def test_three_letter_drops_foreign_centers(self, three_letter):
        # "01" and "20" are not 2-blocks of the system
        assert system_seeds(three_letter) == [Seed(0, 0, 2), Seed(2, 1, 2)]

    def test_fixed_seed_filtering(self):
        sub = parse_substitution("0->010;1->101")
        assert minimal_seed_period(sub) == 1
        assert len(sub.periodic_seeds(1)) == 4
        assert system_seeds(sub) == [Seed(0, 1, 1), Seed(1, 0, 1)]
        assert sorted(w.text for w in sub.language(2)) == ["01", "10"]

    def test_long_least_period_in_one_sweep(self, long_period_spec):
        # one seed sweep up to p = 3540, not one sweep per period
        sub = parse_substitution(long_period_spec)
        assert minimal_seed_period(sub) == 3540
        start = time.perf_counter()
        seeds = system_seeds(sub)
        assert time.perf_counter() - start < 5
        assert len(seeds) == 3540
        assert {s.period for s in seeds} == {3540}


class TestPeriodicWindow:
    def test_displayed_morse_window(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        assert win.text == "10010110.01101001"

    def test_other_morse_windows(self, morse):
        assert morse.periodic_window(Seed(1, 0, 2), 8).text == "01101001.01101001"
        assert morse.periodic_window(Seed(0, 1, 2), 4).text == "0110.1001"
        assert morse.periodic_window(Seed(1, 1, 2), 4).text == "1001.1001"

    def test_toeplitz_windows(self, toeplitz):
        assert toeplitz.periodic_window(Seed(0, 0, 2), 8).text == "01000100.01000101"
        assert toeplitz.periodic_window(Seed(1, 0, 2), 8).text == "01000101.01000101"

    def test_windows_are_coherent_across_radii(self, morse, toeplitz):
        for sub in (morse, toeplitz):
            for seed in system_seeds(sub):
                big = sub.periodic_window(seed, 16)
                assert big.restrict(-8, 8).text == sub.periodic_window(seed, 8).text

    def test_window_is_fixed_by_the_iterate(self, morse):
        # the image of the radius-R window is the radius-rR window
        seed = Seed(0, 0, 2)
        sq = morse.power(2)
        w8 = morse.periodic_window(seed, 8)
        assert Window(sq.apply(w8.word), 32).text == morse.periodic_window(seed, 32).text

    def test_inadmissible_seed(self, morse):
        with pytest.raises(SeedError):
            morse.periodic_window(Seed(0, 0, 1), 8)
        with pytest.raises(SeedError):
            morse.periodic_window(Seed(0, 2, 2), 8)

    def test_radius_must_be_positive(self, morse):
        with pytest.raises(RangeError):
            morse.periodic_window(Seed(0, 0, 2), 0)


class TestLanguage:
    def test_morse_block_counts(self, morse):
        assert [len(morse.language(n)) for n in (1, 2, 3, 4, 8)] == [2, 4, 6, 10, 22]

    def test_toeplitz_block_counts(self, toeplitz):
        assert [len(toeplitz.language(n)) for n in (1, 2, 3, 4, 8)] == [2, 3, 5, 6, 12]

    def test_toeplitz_two_blocks(self, toeplitz):
        assert sorted(w.text for w in toeplitz.language(2)) == ["00", "01", "10"]

    def test_three_letter_two_blocks(self, three_letter):
        assert sorted(w.text for w in three_letter.language(2)) == [
            "00",
            "02",
            "10",
            "12",
            "21",
        ]

    def test_agrees_with_brute_oracle(self, morse, toeplitz, three_letter):
        # squares and an r = 3 system cross every r**m boundary up to 70
        bases = (morse, toeplitz, three_letter)
        systems = bases + tuple(sub.power(2) for sub in bases)
        for sub in systems + (parse_substitution("0->012;1->201;2->110"),):
            for n in range(1, 71):
                assert sub.language(n) == language_brute(sub, n), (sub.spec(), n)

    def test_blocks_are_checked_words(self, morse, three_letter):
        for sub in (morse, three_letter):
            for n in (1, 5, 33):
                blocks = sub.language(n)
                checked = {Word(sub.alphabet, b.letters) for b in blocks}
                assert blocks == checked
                assert {hash(b) for b in blocks} == {hash(c) for c in checked}
                assert all(b.alphabet == sub.alphabet and len(b) == n for b in blocks)

    def test_brute_oracle_start_letter_is_irrelevant(self, morse):
        for letter in range(morse.alphabet.size):
            assert language_brute(morse, 6, letter=letter) == morse.language(6)

    def test_morse_language_is_complement_closed(self, morse):
        for n in (1, 4, 9):
            lang = morse.language(n)
            assert {w.complement() for w in lang} == lang

    def test_needs_positive_length(self, morse):
        with pytest.raises(RangeError):
            morse.language(0)

    def test_needs_primitivity(self):
        with pytest.raises(PrimitivityError):
            parse_substitution("0->11;1->00").language(2)

    def test_size_cap_refuses_before_building(self, morse):
        start = time.perf_counter()
        for n in (8192, 65536):
            with pytest.raises(CapacityError, match=rf"language\({n}\)"):
                morse.language(n)
        assert time.perf_counter() - start < 1

    def test_primitivity_is_checked_once(self, monkeypatch):
        built = []
        real = graphs.build_graph

        def counting(sub):
            built.append(sub)
            return real(sub)

        monkeypatch.setattr(graphs, "build_graph", counting)
        sub = parse_substitution("0->01;1->10")
        for n in (1, 2, 3, 2, 1, 3):
            sub.language(n)
        sub.covering_words(5)
        assert len(built) == 1

    def test_cache_evicts_the_least_recently_used(self, morse, toeplitz):
        # charged n * blocks: morse 4 -> 40, morse 8 -> 176, toeplitz 8 -> 96,
        # morse 5 -> 60
        cache = _LanguageCache(300)
        first = cache.get(morse, 4)
        cache.get(morse, 8)
        cache.get(toeplitz, 8)
        assert list(cache.entries) == [(morse, 8), (toeplitz, 8)]
        assert cache.charged == 272
        cache.get(morse, 8)
        cache.get(morse, 5)
        assert list(cache.entries) == [(morse, 8), (morse, 5)]
        assert cache.charged == 236
        again = cache.get(morse, 4)
        assert again == first and again is not first
        assert again == language_brute(morse, 4)
        assert list(cache.entries) == [(morse, 8), (morse, 5), (morse, 4)]
        assert _LANGUAGES.cap == LANGUAGE_BYTES_CAP

    def test_size_cap_admits_morse_at_4096(self, morse):
        n = 4096
        bound = n * sum(len(w) - n + 1 for w in morse.covering_words(n))
        assert bound <= LANGUAGE_BYTES_CAP


class TestStructure:
    def test_injectivity(self, morse, toeplitz):
        assert morse.is_injective()
        assert toeplitz.is_injective()
        assert not parse_substitution("0->01;1->01").is_injective()

    def test_identify_equal_images(self):
        sub = parse_substitution("0->01;1->10;2->01")
        quotient, mapping = sub.identify_equal_images()
        assert quotient.spec() == "0->01;1->10"
        assert mapping == (0, 1, 0)

    def test_identify_on_injective_is_identity(self, morse):
        quotient, mapping = morse.identify_equal_images()
        assert quotient == morse
        assert mapping == (0, 1)

    def test_identify_refuses_total_collapse(self):
        with pytest.raises(DegenerateError):
            parse_substitution("0->01;1->01").identify_equal_images()


class TestDesubstitute:
    def test_unique_phase_on_morse_window(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        phases = morse.desubstitute(1, win)
        assert len(phases) == 1
        j, recovered = phases[0]
        assert j == 0
        assert morse.apply(recovered).letters == win.word.letters

    def test_order_zero_returns_the_window(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 4)
        assert morse.desubstitute(0, win) == [(0, win.word)]

    def test_window_must_hold_three_tiles(self, morse):
        with pytest.raises(InsufficientWindowError):
            morse.desubstitute(2, morse.periodic_window(Seed(0, 0, 2), 4))

    def test_rejects_negative_order(self, morse):
        with pytest.raises(RangeError):
            morse.desubstitute(-1, morse.periodic_window(Seed(0, 0, 2), 8))

    def test_rejects_foreign_alphabet(self, morse, three_letter):
        win = three_letter.periodic_window(Seed(0, 0, 2), 8)
        with pytest.raises(DomainError):
            morse.desubstitute(1, win)

    def test_shared_images_recover_the_smaller_letter(self):
        sub = parse_substitution("0->01;1->10;2->01")
        win = Window(sub.alphabet.word("010110"), 3)
        phases = sub.desubstitute(1, win)
        assert [(j, w.text) for j, w in phases] == [(1, "001")]
