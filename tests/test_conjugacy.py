"""Certificate verification, recoding, searches, and induced substitutions."""

import pytest

from morsetoeplitz import (
    BINARY,
    Alphabet,
    CapacityError,
    ConsistencyError,
    DomainError,
    ExplicitSource,
    InsufficientWindowError,
    LocalRule,
    MORSE_ALLOWED_PAIRS,
    MORSE_TOKENS,
    MorseCertificate,
    ParseVerdict,
    PhaseParse,
    PreconditionError,
    RangeError,
    Seed,
    StateError,
    SubstitutionSource,
    ToeplitzCertificate,
    Word,
    as_source,
    certificate_from_json,
    certificate_to_json,
    derive_substitution,
    morse_identity_pairs,
    necessary_conditions,
    parse_phases,
    parse_substitution,
    recode_morse,
    recode_toeplitz,
    search_morse_certificate,
    search_toeplitz_certificate,
    self_similarity_witness,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)
from morsetoeplitz.words import Window


def tcert(k, c0, c1, alphabet=BINARY):
    return ToeplitzCertificate(k, alphabet.word(c0), alphabet.word(c1))


def mcert(k, c0, c1, c0p, c1p, alphabet=BINARY):
    return MorseCertificate(
        k,
        alphabet.word(c0),
        alphabet.word(c1),
        alphabet.word(c0p),
        alphabet.word(c1p),
    )


def window_source(text, origin):
    return ExplicitSource(BINARY, (Window(BINARY.word(text), origin),))


class TestCertificates:
    def test_span(self):
        assert tcert(0, "0", "1").span == 1
        assert tcert(3, "01010101", "00000000").span == 8

    def test_block_lengths_validated(self):
        with pytest.raises(DomainError):
            tcert(1, "0", "1")
        with pytest.raises(DomainError):
            mcert(0, "0", "1", "01", "1")

    def test_scale_validated(self):
        with pytest.raises(DomainError):
            ToeplitzCertificate(-1, BINARY.word("0"), BINARY.word("1"))

    def test_alphabets_must_agree(self):
        abc = Alphabet.from_names("012")
        with pytest.raises(DomainError):
            ToeplitzCertificate(0, BINARY.word("0"), abc.word("2"))

    def test_json_round_trip_toeplitz(self, three_letter):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        payload = certificate_to_json(cert)
        assert payload == {"kind": "toeplitz", "k": 1, "C0": "21", "C1": "00"}
        assert certificate_from_json(payload, three_letter.alphabet) == cert

    def test_json_round_trip_morse(self):
        cert = mcert(1, "01", "10", "00", "11")
        payload = certificate_to_json(cert)
        assert payload["kind"] == "morse"
        assert payload["C0p"] == "00"
        assert certificate_from_json(payload, BINARY) == cert

    def test_json_rejects_malformed_payloads(self):
        with pytest.raises(DomainError):
            certificate_from_json({"kind": "fourier", "k": 0, "C0": "0", "C1": "1"}, BINARY)
        with pytest.raises(DomainError):
            certificate_from_json({"kind": "morse", "k": 0, "C0": "0", "C1": "1"}, BINARY)
        with pytest.raises(DomainError):
            certificate_from_json({"kind": "toeplitz", "k": "x", "C0": "0", "C1": "1"}, BINARY)

    @pytest.mark.parametrize("k", [float("inf"), float("-inf")])
    def test_json_rejects_non_finite_scales(self, k):
        payload = {"kind": "toeplitz", "k": k, "C0": "0", "C1": "1"}
        with pytest.raises(DomainError, match="malformed certificate payload"):
            certificate_from_json(payload, BINARY)

    def test_huge_scale_is_checked_without_building_the_span(self):
        payload = {"kind": "toeplitz", "k": 10**8, "C0": "0", "C1": "1"}
        with pytest.raises(DomainError, match=r"length 2\*\*k = 2\*\*100000000"):
            certificate_from_json(payload, BINARY)


class TestParsePhases:
    def test_three_letter_window(self, three_letter):
        alphabet = three_letter.alphabet
        win = Window(alphabet.word("0210021212100210"), 3)
        assert win.text == "021.0021212100210"
        phases = parse_phases(win, [alphabet.word("21"), alphabet.word("00")], 2)
        assert [(p.phase, p.start, p.tokens.text) for p in phases] == [(0, -2, "0100010")]

    def test_morse_window(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        blocks = {BINARY.word("01"), BINARY.word("10")}
        phases = parse_phases(win, blocks, 2)
        assert [(p.phase, p.start, p.tokens.text) for p in phases] == [(0, -8, "10010110")]

    def test_no_phase_on_foreign_letters(self):
        win = Window(BINARY.word("1" * 12), 6)
        assert parse_phases(win, [BINARY.word("01"), BINARY.word("10")], 2) == []

    def test_duplicate_blocks_are_collapsed(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        blocks = [BINARY.word("01"), BINARY.word("10"), BINARY.word("01")]
        assert parse_phases(win, blocks, 2)[0].tokens.text == "10010110"

    def test_needs_two_distinct_blocks(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        with pytest.raises(DomainError):
            parse_phases(win, [BINARY.word("01")], 2)

    def test_blocks_must_match_the_span(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        with pytest.raises(DomainError):
            parse_phases(win, [BINARY.word("0"), BINARY.word("01")], 1)

    def test_window_must_hold_three_tiles(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 2)
        with pytest.raises(InsufficientWindowError):
            parse_phases(win, [BINARY.word("01"), BINARY.word("10")], 2)

    def test_token_names_are_finite(self):
        four = Alphabet.from_names("0123")
        words = [
            Word(four, bytes((a, b, c)))
            for a in range(4)
            for b in range(4)
            for c in range(4)
        ]
        win = Window(four.word("0" * 9), 4)
        with pytest.raises(CapacityError):
            parse_phases(win, words[:63], 3)


class TestToeplitzVerification:
    def test_identity_certificate(self, toeplitz):
        verdict = verify_toeplitz_certificate(toeplitz, tcert(0, "0", "1"))
        assert verdict.accepted
        assert verdict.kind == "toeplitz"
        assert verdict.radius == 32
        assert verdict.failure_reason is None
        assert len(verdict.phases) == 2
        entry = verdict.phases[0]
        assert (entry.phase, entry.start, entry.parity) == (0, -32, None)
        window = toeplitz.periodic_window(Seed(0, 0, 2), 32)
        assert entry.tokens.text == window.word.text

    def test_swapped_blocks_fail_the_token_pattern(self, toeplitz):
        verdict = verify_toeplitz_certificate(toeplitz, tcert(0, "1", "0"))
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_scale_one_certificate(self, toeplitz):
        verdict = verify_toeplitz_certificate(toeplitz, tcert(1, "01", "00"))
        assert verdict.accepted
        assert [(p.phase, p.start) for p in verdict.phases] == [(0, -64), (0, -64)]

    def test_three_letter_certificate(self, three_letter, toeplitz):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        verdict = verify_toeplitz_certificate(three_letter, cert, 64)
        assert verdict.accepted
        assert [(p.phase, p.start) for p in verdict.phases] == [(1, -63), (1, -63)]
        # the token stream of the recoding is the Toeplitz sequence itself
        assert verdict.phases[0].tokens.text.startswith("0100010101000100")
        lang8 = toeplitz.language(8)
        for entry in verdict.phases:
            assert entry.tokens.factors(8) <= lang8

    def test_equal_blocks_rejected_up_front(self, toeplitz):
        verdict = verify_toeplitz_certificate(toeplitz, tcert(1, "00", "00"))
        assert not verdict.accepted
        assert verdict.failure_reason == "blocks_equal"

    def test_no_phase(self):
        source = window_source("1" * 32, 16)
        verdict = verify_toeplitz_certificate(source, tcert(1, "01", "00"), 16)
        assert not verdict.accepted
        assert verdict.failure_reason == "no_phase"
        assert verdict.detail == "window[0]"

    def test_token_pattern_on_constant_tokens(self):
        source = window_source("01" * 16, 16)
        verdict = verify_toeplitz_certificate(source, tcert(1, "01", "00"), 16)
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_two_long_parses_are_multiple_phases(self):
        # "0101..." tiles as C0 C0 ... at phase 0 and C1 C1 ... at phase 1
        source = window_source("01" * 16, 16)
        verdict = verify_toeplitz_certificate(source, tcert(1, "01", "10"), 16)
        assert not verdict.accepted
        assert verdict.failure_reason == "multiple_phases"

    def test_radius_must_hold_three_tiles(self, toeplitz):
        with pytest.raises(RangeError):
            verify_toeplitz_certificate(toeplitz, tcert(1, "01", "00"), 5)

    def test_morse_system_rejects_toeplitz_certificates(self, morse):
        verdict = verify_toeplitz_certificate(morse, tcert(0, "0", "1"))
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"


class TestMorseVerification:
    def test_identity_certificate_scale_zero(self, morse):
        verdict = verify_morse_certificate(morse, mcert(0, "0", "1", "0", "1"), 64)
        assert verdict.accepted
        assert verdict.kind == "morse"
        assert len(verdict.phases) == 4
        for entry in verdict.phases:
            assert (entry.phase, entry.parity, entry.start) == (0, 0, -64)
            assert entry.tokens.alphabet == MORSE_TOKENS

    def test_identity_certificate_scale_one(self, morse):
        verdict = verify_morse_certificate(morse, mcert(1, "01", "10", "01", "10"))
        assert verdict.accepted
        assert [(p.phase, p.parity) for p in verdict.phases] == [(0, 0)] * 4
        assert verdict.phases[0].tokens.text.startswith("0b101a0b1a01")

    def test_complement_certificates_accepted(self, morse):
        for blocks in (("10", "01", "10", "01"), ("11", "00", "10", "01"), ("00", "11", "01", "10")):
            verdict = verify_morse_certificate(morse, mcert(1, *blocks))
            assert verdict.accepted, blocks

    def test_straddling_blocks_fail_the_gap_rule(self, morse):
        verdict = verify_morse_certificate(morse, mcert(1, "01", "10", "00", "11"))
        assert not verdict.accepted
        assert verdict.failure_reason == "gap_rule"

    def test_toeplitz_system_rejects_morse_certificates(self, toeplitz):
        verdict = verify_morse_certificate(toeplitz, mcert(0, "0", "1", "0", "1"))
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_equal_carrier_blocks_rejected(self, morse):
        verdict = verify_morse_certificate(morse, mcert(0, "0", "0", "1", "1"))
        assert verdict.failure_reason == "blocks_equal"

    def test_no_phase_without_three_aligned_tiles(self):
        source = ExplicitSource(BINARY, (Window(BINARY.word("110110"), 3),))
        verdict = verify_morse_certificate(source, mcert(1, "01", "10", "01", "10"), 6)
        assert not verdict.accepted
        assert verdict.failure_reason == "no_phase"

    def test_foreign_carriers_fail_membership(self):
        source = window_source("0" * 10, 5)
        verdict = verify_morse_certificate(source, mcert(1, "01", "10", "00", "11"), 6)
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_overlapping_carriers_fail(self):
        source = window_source("1" * 32, 16)
        verdict = verify_morse_certificate(source, mcert(0, "0", "1", "0", "1"), 16)
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_radius_must_hold_three_tiles(self, morse):
        with pytest.raises(RangeError):
            verify_morse_certificate(morse, mcert(1, "01", "10", "01", "10"), 4)


class TestIdentityPairs:
    def test_identity_parse_realizes_all_six_pairs(self, morse):
        verdict = verify_morse_certificate(morse, mcert(0, "0", "1", "0", "1"), 64)
        assert morse_identity_pairs(verdict) == MORSE_ALLOWED_PAIRS

    def test_every_accepted_parse_stays_inside_the_six(self, morse):
        certs = [
            mcert(0, "0", "1", "0", "1"),
            mcert(1, "01", "10", "01", "10"),
            mcert(1, "11", "00", "10", "01"),
        ]
        for cert in certs:
            verdict = verify_morse_certificate(morse, cert)
            assert verdict.accepted
            assert morse_identity_pairs(verdict) <= MORSE_ALLOWED_PAIRS

    def test_six_pair_table_contents(self):
        assert MORSE_ALLOWED_PAIRS == frozenset(
            {(0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (3, 1)}
        )


class TestRecoding:
    def test_identity_recode_reproduces_the_window(self, toeplitz):
        cert = tcert(0, "0", "1")
        verdict = verify_toeplitz_certificate(toeplitz, cert)
        out = recode_toeplitz(cert, verdict, 0)
        assert out.text == toeplitz.periodic_window(Seed(0, 0, 2), 32).text

    def test_scale_one_recode_reproduces_the_window(self, toeplitz):
        cert = tcert(1, "01", "00")
        verdict = verify_toeplitz_certificate(toeplitz, cert)
        out = recode_toeplitz(cert, verdict, 0)
        assert out.text == toeplitz.periodic_window(Seed(0, 0, 2), 64).text

    def test_morse_identity_recode_matches_the_run(self, morse):
        cert = mcert(0, "0", "1", "0", "1")
        verdict = verify_morse_certificate(morse, cert, 64)
        entry = verdict.phases[0]
        out = recode_morse(cert, verdict, 0)
        window = morse.periodic_window(Seed(0, 0, 2), 64)
        assert out.text == window.restrict(entry.start, entry.start + len(entry.tokens)).text

    def test_scale_one_morse_recode_matches_the_run(self, morse):
        cert = mcert(1, "01", "10", "01", "10")
        verdict = verify_morse_certificate(morse, cert)
        entry = verdict.phases[0]
        out = recode_morse(cert, verdict, 0)
        window = morse.periodic_window(Seed(0, 0, 2), 64)
        span = window.restrict(entry.start, entry.start + 2 * len(entry.tokens))
        assert out.text == span.text

    def test_three_letter_recode_lands_in_the_toeplitz_language(self, three_letter, toeplitz):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        verdict = verify_toeplitz_certificate(three_letter, cert, 64)
        out = recode_toeplitz(cert, verdict, 0)
        assert len(out.word) == 2 * len(verdict.phases[0].tokens)
        assert out.origin == 63
        assert out.word.factors(4) <= toeplitz.language(4)

    def test_recode_of_a_manual_parse(self, three_letter):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        verdict = ParseVerdict(
            True, (PhaseParse(1, -3, BINARY.word("0100010")),), None, "toeplitz", 64
        )
        out = recode_toeplitz(cert, verdict)
        assert out.text == "010.00101010001"

    def test_single_token_recode_gives_one_image(self, three_letter):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        verdict = ParseVerdict(
            True, (PhaseParse(0, 0, BINARY.word("0")),), None, "toeplitz", 64
        )
        assert recode_toeplitz(cert, verdict).text == ".01"

    def test_recode_postcondition_rejects_foreign_blocks(self, three_letter):
        cert = tcert(1, "21", "00", three_letter.alphabet)
        verdict = ParseVerdict(
            True, (PhaseParse(0, 0, BINARY.word("11")),), None, "toeplitz", 64
        )
        with pytest.raises(ConsistencyError):
            recode_toeplitz(cert, verdict)

    def test_rejected_verdicts_cannot_be_recoded(self, toeplitz):
        cert = tcert(0, "1", "0")
        verdict = verify_toeplitz_certificate(toeplitz, cert)
        assert not verdict.accepted
        with pytest.raises(StateError):
            recode_toeplitz(cert, verdict)

    def test_entry_index_is_checked(self, toeplitz):
        cert = tcert(0, "0", "1")
        verdict = verify_toeplitz_certificate(toeplitz, cert)
        with pytest.raises(RangeError):
            recode_toeplitz(cert, verdict, 5)

    def test_verdict_kind_is_checked(self, morse):
        cert = mcert(0, "0", "1", "0", "1")
        verdict = verify_morse_certificate(morse, cert)
        with pytest.raises(DomainError):
            recode_toeplitz(tcert(0, "0", "1"), verdict)
        with pytest.raises(DomainError):
            recode_morse(cert, ParseVerdict(True, (), None, "toeplitz", 32))


class TestSearches:
    def test_toeplitz_search_finds_the_identity(self, toeplitz):
        assert search_toeplitz_certificate(toeplitz, 1) == tcert(0, "0", "1")

    def test_three_letter_search(self, three_letter):
        cert = search_toeplitz_certificate(three_letter, 2)
        assert cert == tcert(1, "21", "00", three_letter.alphabet)
        assert verify_toeplitz_certificate(three_letter, cert).accepted

    def test_morse_search_finds_the_identity(self, morse):
        assert search_morse_certificate(morse, 1) == mcert(0, "0", "1", "0", "1")

    def test_negative_searches(self, morse, toeplitz, three_letter):
        assert search_toeplitz_certificate(morse, 2) is None
        assert search_morse_certificate(toeplitz, 1) is None
        assert search_morse_certificate(three_letter, 1) is None

    def test_kmax_validated(self, morse):
        with pytest.raises(RangeError):
            search_toeplitz_certificate(morse, -1)
        with pytest.raises(RangeError):
            search_morse_certificate(morse, -1)

    def test_span_cap(self, morse):
        with pytest.raises(CapacityError):
            search_toeplitz_certificate(morse, 3, max_span=4)


class TestNecessaryConditions:
    def test_three_letter_passes_toeplitz_bounds(self, three_letter):
        report = necessary_conditions("toeplitz", three_letter)
        assert report.length == 2
        assert report.length_power_of_two
        assert report.alphabet_size == 3
        assert report.alphabet_bound == 3
        assert report.all_pass

    def test_morse_passes_both_kinds(self, morse):
        assert necessary_conditions("morse", morse).all_pass
        assert necessary_conditions("toeplitz", morse).all_pass

    def test_alphabet_bound_can_fail(self):
        four = parse_substitution("0->12;1->23;2->30;3->01")
        report = necessary_conditions("toeplitz", four)
        assert not report.alphabet_bound_ok
        assert not report.all_pass
        assert necessary_conditions("morse", four).all_pass

    def test_length_must_be_a_power_of_two(self):
        report = necessary_conditions("toeplitz", parse_substitution("0->010;1->101"))
        assert not report.length_power_of_two
        assert not report.all_pass

    def test_kind_validated(self, morse):
        with pytest.raises(DomainError):
            necessary_conditions("sturmian", morse)


class TestSources:
    def test_substitutions_become_seed_window_sources(self, toeplitz):
        source = as_source(toeplitz)
        assert isinstance(source, SubstitutionSource)
        assert source.alphabet == toeplitz.alphabet
        assert source.blocks(3) == toeplitz.language(3)
        labels = [label for label, _ in source.sample_windows(8)]
        assert labels == ["seed (0.0, p=2)", "seed (1.0, p=2)"]

    def test_explicit_sources_pass_through(self):
        source = ExplicitSource(BINARY, (Window(BINARY.word("0101"), 2),))
        assert as_source(source) is source
        assert source.blocks(2) is None
        assert [label for label, _ in source.sample_windows(4)] == ["window[0]"]

    def test_explicit_blocks_by_length(self):
        blocks = frozenset({BINARY.word("01"), BINARY.word("10")})
        source = ExplicitSource(BINARY, (), {2: blocks})
        assert source.blocks(2) == blocks
        assert source.blocks(3) is None

    def test_junk_is_rejected(self):
        with pytest.raises(DomainError):
            as_source(42)


class TestDeriveSubstitution:
    def test_table_rule_returns_morse(self, morse):
        rule = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        derived = derive_substitution(morse, rule, 2)
        assert derived.substitution == morse
        assert [b.text for b in derived.blocks] == ["0", "1"]
        assert derived.primitive

    def test_table_rule_returns_toeplitz(self, toeplitz):
        rule = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x00\x00"})
        derived = derive_substitution(toeplitz, rule, 2)
        assert derived.substitution == toeplitz
        assert derived.primitive

    def test_three_block_flip_rule(self, morse):
        table = {bytes((u, v)): bytes((1 - u, v)) for u in (0, 1) for v in (0, 1)}
        rule = LocalRule(BINARY, BINARY, 0, 1, table)
        derived = derive_substitution(morse, rule, 2)
        assert derived.substitution.spec() == "0->42;1->53;2->54;3->01;4->02;5->13"
        assert [b.text for b in derived.blocks] == ["001", "010", "011", "100", "101", "110"]
        assert derived.primitive
        assert derived.substitution.is_injective()

    def test_flip_rule_projects_back_onto_morse(self, morse):
        table = {bytes((u, v)): bytes((1 - u, v)) for u in (0, 1) for v in (0, 1)}
        derived = derive_substitution(morse, LocalRule(BINARY, BINARY, 0, 1, table), 2)
        first = {a: derived.blocks[a].letters[0] for a in range(6)}
        for n in range(1, 9):
            projected = {
                bytes(first[a] for a in w.letters)
                for w in derived.substitution.language(n)
            }
            assert projected == {w.letters for w in morse.language(n)}

    def test_non_primitive_images_are_reported(self, morse):
        doubler = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x00", b"\x01": b"\x01\x01"})
        derived = derive_substitution(morse, doubler, 2)
        assert derived.substitution.spec() == "0->00;1->11"
        assert not derived.primitive

    def test_images_must_stay_in_the_language(self, morse):
        const = LocalRule(
            BINARY, BINARY, 0, 1,
            {bytes((u, v)): b"\x01\x01" for u in (0, 1) for v in (0, 1)},
        )
        with pytest.raises(ConsistencyError):
            derive_substitution(morse, const, 2)

    def test_rule_shape_validated(self, morse, oxtoby, three_letter):
        doubler = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        with pytest.raises(RangeError):
            derive_substitution(morse, doubler, 1)
        with pytest.raises(DomainError):
            derive_substitution(morse, doubler, 3)
        with pytest.raises(DomainError):
            derive_substitution(three_letter, doubler, 2)
        memoryful = LocalRule(
            BINARY, BINARY, 1, 0,
            {bytes((u, v)): bytes((v, u)) for u in (0, 1) for v in (0, 1)},
        )
        with pytest.raises(DomainError):
            derive_substitution(morse, memoryful, 2)

    def test_sources_must_offer_blocks(self):
        rule = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        with pytest.raises(DomainError):
            derive_substitution(ExplicitSource(BINARY, ()), rule, 2)


class TestSelfSimilarityWitness:
    def test_morse_witness(self, morse):
        report = self_similarity_witness(morse, 4)
        assert (report.image_count, report.block_count) == (10, 22)
        assert report.contained and report.proper and report.unique_phase

    def test_toeplitz_witness(self, toeplitz):
        report = self_similarity_witness(toeplitz, 4)
        assert (report.image_count, report.block_count) == (6, 12)
        assert report.contained and report.proper and report.unique_phase

    def test_needs_injectivity(self):
        with pytest.raises(PreconditionError):
            self_similarity_witness(parse_substitution("0->01;1->01"), 2)
