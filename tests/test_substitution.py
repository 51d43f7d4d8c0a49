"""Constant-length substitutions: parsing, periodic points, and languages."""

import time

import pytest

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
    Word,
    language_brute,
    minimal_seed_period,
    parse_substitution,
    system_seeds,
)
from morsetoeplitz.substitution import LANGUAGE_BYTES_CAP
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
        for sub in (morse, toeplitz, three_letter):
            for n in range(1, 11):
                assert sub.language(n) == language_brute(sub, n)

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
