"""The twelve release gates, one test and one printed verdict line each.

Every gate restates its requirement locally and measures its own runtime
where a budget applies, so this module stands alone as the release check:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

from click.testing import CliRunner

from morsetoeplitz import (
    BINARY,
    LocalRule,
    MORSE,
    MorseCertificate,
    Seed,
    SubstitutionGraph,
    TOEPLITZ,
    ToeplitzCertificate,
    apply_to_word,
    build_graph,
    derive_substitution,
    find_even_square,
    find_overlap,
    language_brute,
    minimal_seed_period,
    necessary_conditions,
    oxtoby_rule,
    parse_substitution,
    preimage_blocks,
    recode_morse,
    recode_toeplitz,
    search_morse_certificate,
    search_toeplitz_certificate,
    self_similarity_witness,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)
from morsetoeplitz.cli import main

THREE = parse_substitution("0->12;1->02;2->10")

#: The six ordered token pairs that may appear in an accepted Morse parse,
#: as identity indices: C0C1, C0C1', C1C0, C1C0', C0'C0, C1'C1.
SIX_PAIRS = frozenset({(0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (3, 1)})


def passed(number, text):
    print(f"[PASS] criterion {number:02d}: {text}")


def tcert(k, c0, c1, alphabet=BINARY):
    return ToeplitzCertificate(k, alphabet.word(c0), alphabet.word(c1))


def mcert(k, c0, c1, c0p, c1p):
    return MorseCertificate(
        k, BINARY.word(c0), BINARY.word(c1), BINARY.word(c0p), BINARY.word(c1p)
    )


def identity_pairs(verdict):
    """All ordered adjacent identity pairs across the verdict's parses."""
    pairs = set()
    for entry in verdict.phases:
        pairs.update(itertools.pairwise(entry.tokens.letters))
    return pairs


def test_c01_displayed_morse_window():
    started = time.perf_counter()
    result = CliRunner().invoke(
        main,
        ["generate", "--sub", "0->01;1->10", "--seed", "0.0", "--period", "2",
         "--radius", "8"],
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    assert result.output == "10010110.01101001\n"
    assert elapsed < 1.0
    passed(1, f"generate prints 10010110.01101001 in {elapsed:.3f}s")


def test_c02_periodic_point_census():
    morse_two = MORSE.periodic_seeds(2)
    assert len(morse_two) == 4
    assert morse_two == [Seed(a, b, 2) for a in (0, 1) for b in (0, 1)]
    assert TOEPLITZ.periodic_seeds(2) == [Seed(0, 0, 2), Seed(1, 0, 2)]
    assert MORSE.periodic_seeds(1) == []
    assert TOEPLITZ.periodic_seeds(1) == []
    assert minimal_seed_period(MORSE) == 2
    assert minimal_seed_period(TOEPLITZ) == 2
    passed(2, "seed censuses: 4 and 2 at period 2, none at period 1")


def test_c03_forbidden_patterns_at_scale():
    started = time.perf_counter()
    morse_window = MORSE.periodic_window(Seed(0, 0, 2), 2048)
    assert find_overlap(morse_window.word) is None
    for n in range(1, 13):
        for block in MORSE.language(n):
            assert find_overlap(block) is None
    toeplitz_window = TOEPLITZ.periodic_window(Seed(0, 0, 2), 2048)
    assert find_even_square(toeplitz_window.word, 0) is None
    for n in range(1, 13):
        for block in TOEPLITZ.language(n):
            assert find_even_square(block, 0) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(3, f"no overlap / even square out to radius 2048 in {elapsed:.1f}s")


def test_c04_two_to_one_factor_map():
    oxtoby = oxtoby_rule()
    for n in range(1, 13):
        upstairs = MORSE.language(n + 1)
        downstairs = TOEPLITZ.language(n)
        assert {apply_to_word(oxtoby, w) for w in upstairs} == downstairs
        for word in downstairs:
            fibre = preimage_blocks(oxtoby, word)
            assert len(fibre) == 2
            first, second = sorted(fibre)
            assert second == first.complement()
            assert fibre <= upstairs
    passed(4, "factor map is onto with complementary two-point fibres, n <= 12")


def test_c05_preimage_dichotomy():
    started = time.perf_counter()
    oxtoby = oxtoby_rule()
    for length in range(1, 7):
        for letters in itertools.product((0, 1), repeat=length):
            base = BINARY.word("".join(map(str, letters)))
            even_zeros = base.letters.count(0) % 2 == 0
            fibre = preimage_blocks(oxtoby, base + base)
            assert len(fibre) == 2
            first, second = sorted(fibre)
            assert second == first.complement()
            for block in (first, second):
                head, tail = block[:length], block[length : 2 * length]
                assert block[2 * length] == head[0]
                assert tail == (head if even_zeros else head.complement())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(5, f"square preimages split by zero parity, |B| <= 6, {elapsed:.2f}s")


def test_c06_three_letter_certificate():
    cert = tcert(1, "21", "00", THREE.alphabet)
    assert verify_toeplitz_certificate(THREE, cert, 64).accepted
    found = search_toeplitz_certificate(THREE, 2)
    assert found is not None
    assert verify_toeplitz_certificate(THREE, found).accepted
    report = necessary_conditions("toeplitz", THREE)
    assert report.length == 2
    assert report.length_power_of_two
    assert report.alphabet_size == 3
    assert report.alphabet_bound == 3
    assert report.all_pass
    passed(6, "three-letter system certified as a Toeplitz recoding")


def test_c07_morse_identity_certificate():
    verdict = verify_morse_certificate(MORSE, mcert(0, "0", "1", "0", "1"), 64)
    assert verdict.accepted
    assert identity_pairs(verdict) == SIX_PAIRS
    for blocks in (("01", "10", "01", "10"), ("11", "00", "10", "01")):
        other = verify_morse_certificate(MORSE, mcert(1, *blocks))
        assert other.accepted
        assert identity_pairs(other) <= SIX_PAIRS
    passed(7, "identity certificate accepted; parses use only the six pairs")


def test_c08_recoding_soundness():
    toeplitz_certs = [
        (TOEPLITZ, tcert(0, "0", "1")),
        (TOEPLITZ, tcert(1, "01", "00")),
        (THREE, tcert(1, "21", "00", THREE.alphabet)),
    ]
    for system, cert in toeplitz_certs:
        verdict = verify_toeplitz_certificate(system, cert)
        assert verdict.accepted
        for index in range(len(verdict.phases)):
            out = recode_toeplitz(cert, verdict, index)
            for n in range(1, 2 ** cert.k + 3):
                assert out.word.factors(n) <= TOEPLITZ.language(n)
    morse_certs = [
        mcert(0, "0", "1", "0", "1"),
        mcert(1, "01", "10", "01", "10"),
        mcert(1, "11", "00", "10", "01"),
    ]
    for cert in morse_certs:
        verdict = verify_morse_certificate(MORSE, cert)
        assert verdict.accepted
        for index in range(len(verdict.phases)):
            out = recode_morse(cert, verdict, index)
            for n in range(1, 2 ** cert.k + 3):
                assert out.word.factors(n) <= MORSE.language(n)
    passed(8, "recoded windows factor into the target languages")


def test_c09_graph_primitivity_routes():
    started = time.perf_counter()
    assert build_graph(MORSE).is_primitive()
    assert build_graph(TOEPLITZ).is_primitive()
    flip = build_graph(parse_substitution("0->11;1->00"))
    assert flip.is_strongly_connected()
    assert flip.period() == 2
    assert not flip.is_primitive()
    for n in range(1, 5):
        for mask in range(1 << (n * n)):
            arcs = tuple(
                tuple(bool(mask >> (i * n + j) & 1) for j in range(n))
                for i in range(n)
            )
            graph = SubstitutionGraph(arcs)
            assert graph.is_primitive() == graph.is_primitive_by_powers()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    passed(9, f"both primitivity routes agree on all graphs <= 4 in {elapsed:.1f}s")


def test_c10_induced_substitutions():
    morse_rule = LocalRule(
        BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"}
    )
    assert derive_substitution(MORSE, morse_rule, 2).substitution == MORSE
    toeplitz_rule = LocalRule(
        BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x00\x00"}
    )
    assert derive_substitution(TOEPLITZ, toeplitz_rule, 2).substitution == TOEPLITZ
    for system in (MORSE, TOEPLITZ):
        report = self_similarity_witness(system, 4)
        assert report.contained and report.proper and report.unique_phase
    passed(10, "table rules induce the substitutions back; containment proper")


def test_c11_language_oracle_equivalence():
    for system in (MORSE, TOEPLITZ, THREE):
        for n in range(1, 11):
            assert system.language(n) == language_brute(system, n)
    passed(11, "closure language matches the brute-force oracle, n <= 10")


def test_c12_negative_searches():
    assert search_toeplitz_certificate(MORSE, 2) is None
    assert search_morse_certificate(TOEPLITZ, 1) is None
    passed(12, "no false certificates for the opposite systems")
