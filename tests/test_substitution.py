"""Constant-length substitutions: parsing, periodic points, and languages."""

import gc
import itertools
import math
import random
import time
import weakref

import pytest

import substitution_oracle as oracle
from morsetoeplitz import (
    CapacityError,
    DomainError,
    InsufficientWindowError,
    PrimitivityError,
    RangeError,
    Seed,
    SeedError,
    Substitution,
    BINARY,
    MORSE,
    TOEPLITZ,
    Alphabet,
    Word,
    find_even_square,
    find_overlap,
    language_brute,
    minimal_seed_period,
    parse_substitution,
    system_seeds,
)
from morsetoeplitz import graphs, substitution
from morsetoeplitz.substitution import (
    DEFAULT_MAX_LEN,
    LANGUAGE_BYTES_CAP,
    _is_factor,
)
from morsetoeplitz.words import Window


class TestParsing:
    def test_round_trip(self, morse):
        assert morse.spec() == "0->01;1->10"
        assert str(morse) == "0->01;1->10"
        assert parse_substitution(morse.spec()) == morse

    def test_letters_appear_in_rule_order(self):
        sub = parse_substitution("b->ab;a->ba")
        assert sub.alphabet.symbols == ("b", "a")
        assert sub.images[0].text == "ab"

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

    def test_power_bounds(self, morse, monkeypatch):
        with pytest.raises(RangeError):
            morse.power(0)
        monkeypatch.setattr(substitution, "DEFAULT_MAX_LEN", 8)
        assert len(morse.power(3).images[0]) == 8
        with pytest.raises(CapacityError):
            morse.power(4)


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


def window_outcome(sub, seed, radius, max_len=DEFAULT_MAX_LEN):
    """Letters of the library's window, or its CapacityError text, and what
    they should be: the refusal when r**j passes ``max_len``, j the least
    exponent with r**j >= radius, else the uncapped oracle's letters.  The
    library's cap must be set to ``max_len``."""
    try:
        win = sub.periodic_window(seed, radius)
        assert win.origin == radius
        got = win.word.letters
    except CapacityError as err:
        got = str(err)
    r = sub.length
    j = next(j for j in itertools.count() if r**j >= radius)
    if r**j > max_len:
        return got, f"r**k = {r}**{j} exceeds cap {max_len}"
    want = oracle.periodic_window(
        letters(sub), seed.left, seed.right, seed.period, radius, math.inf
    )
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
    def test_window_cap_refuses_the_same_radii(self, r, monkeypatch):
        rng = random.Random(r)
        sub = random_substitution(rng, 3, r)
        while first_seed(sub) is None or first_seed(sub).period > 2:
            sub = random_substitution(rng, 3, r)
        seed = first_seed(sub)
        # the cap sits one below a power of r, so a radius whose least
        # r**j >= radius is exactly max_len + 1 is refused
        max_len = next(r**j for j in itertools.count() if r**j >= 200) - 1
        monkeypatch.setattr(substitution, "DEFAULT_MAX_LEN", max_len)
        refused = 0
        for radius in range(1, 3 * max_len):
            got, want = window_outcome(sub, seed, radius, max_len)
            assert got == want
            refused += isinstance(want, str)
        assert 0 < refused < 3 * max_len - 1

    def test_power_cap_message(self, morse):
        # a window is refused by the power of sigma it reads, not the period
        assert morse.periodic_window(Seed(0, 0, 22), 4).text == "0110.0110"
        with pytest.raises(CapacityError) as err:
            morse.periodic_window(Seed(0, 0, 22), (1 << 20) + 1)
        assert str(err.value) == "r**k = 2**21 exceeds cap 1048576"
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

    def test_non_primitive_is_refused(self):
        text = "language is defined for primitive substitutions only; analyze the graph"
        with pytest.raises(PrimitivityError) as info:
            system_seeds(parse_substitution("0->11;1->00"))
        assert str(info.value) == text

    def test_long_least_period_in_one_sweep(self, long_period_spec):
        # one seed sweep up to p = 3540, not one sweep per period
        sub = parse_substitution(long_period_spec)
        assert minimal_seed_period(sub) == 3540
        start = time.perf_counter()
        seeds = system_seeds(sub)
        assert time.perf_counter() - start < 5
        assert len(seeds) == 3540
        assert {s.period for s in seeds} == {3540}
        # at n**2 = 3600 and 3542 2-blocks, the sweeps' bounds are nearly tight
        assert len(sub._pairs) == 3542
        # the 62 2-blocks of the brute-force language reach F's 3540-cycle
        pairs = {tuple(w.letters) for w in language_brute(sub, 2)}
        want = oracle.system_seeds(letters(sub), pairs)
        assert [(s.left, s.right, s.period) for s in seeds] == want
        assert oracle.least_seed_period(letters(sub)) == 3540

    def test_seeds_agree_with_the_cycle_oracle(self):
        """The least seed period is the least lcm of cycle lengths of the
        boundary maps, at most n**2 for n letters; the system seeds are the
        2-blocks on the shortest cycles of F(ab) = (last letter of sigma(a),
        first letter of sigma(b)), of period at most the number of 2-blocks."""
        rng = random.Random(15)
        primitive = 0
        for _ in range(400):
            size, r = rng.randint(2, 8), rng.randint(2, 4)
            sub = random_substitution(rng, size, r)
            p = minimal_seed_period(sub)
            assert p == oracle.least_seed_period(letters(sub)) <= size * size
            if not sub._primitive:
                continue
            primitive += 1
            pairs = {tuple(w.letters) for w in language_brute(sub, 2, blowup=512)}
            seeds = system_seeds(sub)
            want = oracle.system_seeds(letters(sub), pairs)
            assert [(s.left, s.right, s.period) for s in seeds] == want
            assert seeds[0].period <= len(pairs)
        assert primitive > 100


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
                middle = Window(big.word[big.origin - 8 : big.origin + 8], 8)
                assert middle.text == sub.periodic_window(seed, 8).text

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

    def test_seed_check_builds_no_seed_list(self, monkeypatch):
        """On a -> a(a+1)a over 255 letters every one of the 65,025 pairs is
        a seed of period 1; checking one seed must not list them."""
        n = 255
        alphabet = Alphabet(tuple(chr(0x4E00 + a) for a in range(n)))
        sub = Substitution(
            alphabet,
            tuple(Word(alphabet, bytes((a, (a + 1) % n, a))) for a in range(n)),
        )
        calls = []
        for name in ("periodic_seeds", "_seed_sweep"):
            monkeypatch.setattr(
                Substitution, name, lambda *args, name=name: calls.append(name)
            )
        seed = Seed(0, 0, 1)
        got = sub.periodic_window(seed, 4).word.letters
        assert calls == []
        assert got == oracle.periodic_window(letters(sub), 0, 0, 1, 4, 1 << 20)

    def test_huge_periods_are_checked_by_squaring(self, morse):
        # seed 0.0 of Morse is admissible exactly at even periods
        start = time.perf_counter()
        win = morse.periodic_window(Seed(0, 0, 10**9), 4)
        assert win.text == morse.periodic_window(Seed(0, 0, 2), 4).text == "0110.0110"
        with pytest.raises(SeedError, match="is not admissible"):
            morse.periodic_window(Seed(0, 0, 10**9 + 1), 4)
        assert morse.periodic_seeds(10**9 + 1) == []
        assert len(morse.periodic_seeds(10**18)) == 4
        assert time.perf_counter() - start < 1


class TestBoundaryMaps:
    def test_squaring_agrees_with_the_sweep(self):
        rng = random.Random(7)
        for size, r in ((2, 2), (3, 2), (5, 3), (17, 4)):
            sub = random_substitution(rng, size, r)
            for p, left, right in sub._seed_sweep(40):
                assert sub.periodic_seeds(p) == [
                    Seed(a, b, p) for a in left for b in right
                ]


LEVEL_SPECS = ("0->01;1->10", "0->01;1->00", "0->12;1->02;2->10")

# the systems of test_agrees_with_brute_oracle, and the 4-block presentation
# of Toeplitz, which is not injective
ORACLE_SYSTEMS = {
    **{spec: parse_substitution(spec) for spec in LEVEL_SPECS},
    **{f"({spec})**2": parse_substitution(spec).power(2) for spec in LEVEL_SPECS},
    "0->012;1->201;2->110": parse_substitution("0->012;1->201;2->110"),
    "toeplitz_4_block": parse_substitution("a->df;b->df;c->ce;d->ce;e->ab;f->ab"),
}


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
        assert len(built) == 1

    def test_languages_are_not_kept(self, morse):
        blocks = weakref.ref(morse.language(64))
        gc.collect()
        assert blocks() is None

    def test_size_cap_admits_morse_at_4096(self, morse):
        n = 4096
        bound = n * sum(len(w) - n + 1 for w in substitution._covering_words(morse, n))
        assert bound <= LANGUAGE_BYTES_CAP

    def test_refusals_keep_their_text(self, morse):
        # the covering words' bound, and _check_power past the length cap
        texts = {
            8192: "language(8192) could hold 268468224 bytes of blocks, over cap 134217728",
            65536: "language(65536) could hold 17180131328 bytes of blocks, over cap 134217728",
            (1 << 20) + 1: "r**k = 2**21 exceeds cap 1048576",
        }
        for n, text in texts.items():
            with pytest.raises(CapacityError) as err:
                morse.language(n)
            assert str(err.value) == text

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_agrees_with_the_covering_word_read(self, name):
        sub = ORACLE_SYSTEMS[name]
        for n in range(1, 301):
            assert sub.language(n) == oracle.covering_language(sub, n), n

    @pytest.mark.parametrize("spec", LEVEL_SPECS)
    def test_squares_agree_with_the_covering_word_read_near_powers_of_2(self, spec):
        sub = parse_substitution(spec).power(2)
        for n in (511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049):
            assert sub.language(n) == oracle.covering_language(sub, n), n

    def test_morse_counts_follow_the_closed_form(self, morse):
        """The factor complexity of Thue-Morse (Brlek 1989; de Luca and
        Varricchio 1989): p(1) = 2, p(2) = 4, and for n = 2**m + q + 1 with
        0 < q <= 2**m, p(n) = 3 * 2**m + 4q if 2q <= 2**m, else 4 * 2**m + 2q."""

        def complexity(n):
            if n <= 2:
                return 2 * n
            m = (n - 2).bit_length() - 1
            q = n - 1 - (1 << m)
            return 3 * (1 << m) + 4 * q if 2 * q <= 1 << m else 4 * (1 << m) + 2 * q

        assert [complexity(n) for n in (33, 2048, 4096)] == [96, 6142, 12286]
        sizes = [*range(1, 300), 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096]
        for n in sizes:
            assert len(morse.language(n)) == complexity(n), n


class TestStructure:
    def test_injectivity(self, morse, toeplitz):
        assert morse.is_injective()
        assert toeplitz.is_injective()
        assert not parse_substitution("0->01;1->01").is_injective()


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

    @pytest.mark.parametrize(
        "spec, k", [("0->01;1->10", 10**6), ("0->010;1->101", 10**7)]
    )
    def test_huge_order_is_refused_without_building_the_span(self, spec, k):
        # 3**(10**7) alone takes seconds to build
        sub = parse_substitution(spec)
        win = sub.periodic_window(Seed(0, 0, 2), 8)
        start = time.perf_counter()
        with pytest.raises(InsufficientWindowError) as err:
            sub.desubstitute(k, win)
        assert time.perf_counter() - start < 1
        assert str(err.value) == (
            f"window of length 16 is shorter than 3 tiles of r**k = {sub.length}**{k}"
        )

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


class TestIsFactor:
    """``_is_factor`` decides membership: against ``language``, and against
    the independent ``language_brute``."""

    @pytest.mark.parametrize(
        "spec, size, top",
        [
            ("0->01;1->10", 2, 14),
            ("0->01;1->00", 2, 14),
            ("0->12;1->02;2->10", 3, 8),
            ("0->010011010;1->101100101", 2, 8),
        ],
    )
    def test_exact_against_the_brute_force_language(self, spec, size, top):
        sub = parse_substitution(spec)
        for n in range(1, top + 1):
            blocks = {w.letters for w in language_brute(sub, n)}
            for letters in itertools.product(range(size), repeat=n):
                data = bytes(letters)
                assert _is_factor(sub, data) == (data in blocks), data

    @pytest.mark.parametrize("name", ["morse", "toeplitz"])
    def test_sound_on_every_short_binary_word(self, name, request):
        sub = request.getfixturevalue(name)
        for n in range(1, 15):
            blocks = {w.letters for w in sub.language(n)}
            for x in range(1 << n):
                data = bytes((x >> i) & 1 for i in range(n))
                assert not _is_factor(sub, data) or data in blocks, data

    @pytest.mark.parametrize("name", ["morse", "toeplitz", "three_letter"])
    def test_sound_on_edited_factors(self, name, request):
        """Factors of 33 to 300 letters with up to three letter pairs
        rewritten, so that both answers are common."""
        sub = request.getfixturevalue(name)
        source = sub.periodic_window(Seed(0, 0, 2), 4096).word.letters
        rng = random.Random(len(name))
        proved = refused = 0
        for n in (33, 47, 64, 100, 130, 200, 300):
            blocks = {w.letters for w in sub.language(n)}
            for _ in range(400):
                at = rng.randrange(len(source) - n)
                data = bytearray(source[at : at + n])
                for _ in range(rng.randrange(4)):
                    i = rng.randrange(n - 1)
                    data[i : i + 2] = bytes(rng.randrange(sub.alphabet.size) for _ in "ab")
                data = bytes(data)
                found = data in blocks
                assert _is_factor(sub, data) == found, data
                proved += found
                refused += not found
        assert proved > 400 and refused > 400

    @pytest.mark.parametrize("name", ["morse", "toeplitz", "three_letter"])
    def test_proves_every_block_up_to_128(self, name, request):
        sub = request.getfixturevalue(name)
        assert _is_factor(sub, b"")
        for n in range(1, 129):
            for block in sub.language(n):
                assert _is_factor(sub, block.letters), block.text

    @pytest.mark.parametrize("name", ["morse", "toeplitz"])
    def test_proves_long_slices(self, name, request):
        sub = request.getfixturevalue(name)
        data = sub.periodic_window(Seed(0, 0, 2), 1 << 17).word.letters
        rng = random.Random(11)
        for _ in range(4):
            at = rng.randrange(len(data) - (1 << 16))
            assert _is_factor(sub, data[at : at + (1 << 16)])

    def test_not_proved_outside_its_domain(self, morse):
        assert not _is_factor(morse, bytes([0, 1, 2]))
        assert not _is_factor(parse_substitution("0->01;1->01;2->10"), b"0110")
        assert not _is_factor(parse_substitution("0->00;1->11"), b"\0\0")
        nine = parse_substitution("0->010011010;1->101100101")
        assert _is_factor(nine, nine.images[0].letters)

    def test_byte_255_and_words_past_the_cap(self, morse, three_letter):
        assert not _is_factor(morse, b"\x01\xff\x00")
        assert not _is_factor(three_letter, b"\x02\xff")
        # mu**20(01) is a factor, but the covering words of its length
        # would pass the cap: not decided, and nothing raised
        m0, m1 = morse._iterate(20)
        assert len(m0) == DEFAULT_MAX_LEN
        assert not _is_factor(morse, m0 + m1[:1])
        assert _is_factor(morse, m0)

    def test_covering_words_are_built_once_per_power(self, monkeypatch):
        built = []

        def counted(sub, n, d=0):
            built.append((sub.spec(), n))
            return covering(sub, n, d)

        covering = substitution._covering_words
        monkeypatch.setattr(substitution, "_covering_words", counted)
        for sub in (MORSE, TOEPLITZ):
            monkeypatch.delitem(sub.__dict__, "_covers", raising=False)
        m = MORSE.periodic_window(Seed(0, 0, 2), 4096).word.letters
        t = TOEPLITZ.periodic_window(Seed(0, 0, 2), 4096).word.letters
        for at in range(0, 2000, 100):
            for n in (513, 700, 1024):
                assert find_overlap(Word(BINARY, m[at : at + n])) is None
                assert find_even_square(Word(BINARY, t[at : at + n])) is None
        assert sorted(built) == [("0->01;1->00", 1024), ("0->01;1->10", 1024)]
