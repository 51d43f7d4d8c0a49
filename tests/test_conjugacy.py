"""Certificate verification, recoding, searches, and induced substitutions."""

import itertools
import random
import time
import tracemalloc

import pytest

from morsetoeplitz import (
    BINARY,
    MORSE,
    TOEPLITZ,
    Alphabet,
    CapacityError,
    ConsistencyError,
    DomainError,
    ExplicitSource,
    InsufficientWindowError,
    LocalRule,
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
from morsetoeplitz import conjugacy, patterns
from morsetoeplitz.conjugacy import _GAP_IDENTITY
from morsetoeplitz.substitution import _image
from morsetoeplitz.words import Window
from patterns_oracle import _even_square_small, _overlap_small


#: The six ordered token pairs that may appear in an accepted Morse parse,
#: as identity indices: C0C1, C0C1', C1C0, C1C0', C0'C0, C1'C1.
SIX_PAIRS = frozenset({(0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (3, 1)})


def identity_pairs(verdict):
    """All ordered adjacent identity pairs across the verdict's parses."""
    pairs = set()
    for entry in verdict.phases:
        pairs.update(itertools.pairwise(entry.tokens.letters))
    return pairs


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


def explicit_binary(text):
    """The window text at origin 1, with the length-1 blocks 0 and 1."""
    blocks = {1: frozenset({BINARY.word("0"), BINARY.word("1")})}
    return ExplicitSource(BINARY, (Window(BINARY.word(text), 1),), blocks)


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

    @pytest.mark.parametrize("k", [0.9, 1.5, True, False])
    def test_json_rejects_scales_int_would_truncate(self, k):
        payload = {"kind": "toeplitz", "k": k, "C0": "0", "C1": "1"}
        with pytest.raises(DomainError) as err:
            certificate_from_json(payload, BINARY)
        assert str(err.value) == f"malformed certificate payload: {k!r} is not an integer"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k", 1.0, "1.0 is not an integer"),
            ("k", "1", "'1' is not an integer"),
            ("C0", 1, "1 is not a string"),
            ("C1p", ["1", "0"], "['1', '0'] is not a string"),
        ],
        ids=["whole_float_k", "string_k", "number_block", "list_block"],
    )
    def test_json_refuses_wrongly_typed_fields(self, field, value, message):
        payload = {"kind": "morse", "k": 1, "C0": "01", "C1": "10", "C0p": "01", "C1p": "10"}
        with pytest.raises(DomainError) as err:
            certificate_from_json(payload | {field: value}, BINARY)
        assert str(err.value) == f"malformed certificate payload: {message}"

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

    def test_tiles_map_to_their_block_indices(self):
        win = Window(BINARY.word("01101001"), 4)
        phases = parse_phases(win, [BINARY.word("01"), BINARY.word("10")], 2)
        # phase 1 reads the tiles 11, 01 and 00 and is left out
        assert [(p.phase, p.start, p.tokens.text) for p in phases] == [(0, -4, "0110")]

    def test_phases_of_fewer_than_three_tiles_are_left_out(self):
        # at span 2, "011.111" holds 3 tiles from index -3 and 2 from -2,
        # all of them blocks
        win = Window(BINARY.word("011111"), 3)
        phases = parse_phases(win, [BINARY.word("11"), BINARY.word("01")], 2)
        assert [(p.phase, p.start, p.tokens.text) for p in phases] == [(1, -3, "100")]

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

    def test_blocks_must_share_the_window_alphabet(self, morse):
        win = morse.periodic_window(Seed(0, 0, 2), 8)
        abc = Alphabet.from_names("012")
        with pytest.raises(DomainError, match="not over window alphabet 01"):
            parse_phases(win, [abc.word("01"), abc.word("10")], 2)


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

    def test_certificates_over_another_alphabet_are_refused(self, morse):
        """Blocks over 012 that spell the identity certificate's bytes."""
        abc = Alphabet.from_names("012")
        with pytest.raises(DomainError, match="certificate is not over alphabet 01"):
            verify_toeplitz_certificate(morse, tcert(0, "0", "1", abc))
        with pytest.raises(DomainError, match="certificate is not over alphabet 01"):
            verify_morse_certificate(morse, mcert(0, "0", "1", "0", "1", abc))

    def test_morse_system_rejects_toeplitz_certificates(self, morse):
        verdict = verify_toeplitz_certificate(morse, tcert(0, "0", "1"))
        assert not verdict.accepted
        assert verdict.failure_reason == "token_pattern"

    def test_segments_past_the_scan_cap_are_refused(self, toeplitz, monkeypatch):
        """At k = 0 and R = 32 the sampled windows hold 64 tiles and the
        covering words of L_64 128: a scan cap between them passes every
        window and refuses the covering words' segment scan."""
        cert = tcert(0, "0", "1")
        monkeypatch.setattr(patterns, "DEFAULT_SCAN_CAP", 127)
        text = "^word of length 128 exceeds scan cap 127$"
        with pytest.raises(CapacityError, match=text) as info:
            verify_toeplitz_certificate(toeplitz, cert)
        assert "_failing_block" in {entry.name for entry in info.traceback}
        monkeypatch.setattr(patterns, "DEFAULT_SCAN_CAP", 128)
        assert verify_toeplitz_certificate(toeplitz, cert).accepted


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

    def test_two_certificate_tiles_are_no_run(self):
        """Window 01.10 holds the tiles 01 and 10 at phase 0: both are
        certificate blocks, but two tiles are too short a run to parse."""
        source = window_source("0110", 2)
        verdicts = (
            verify_morse_certificate(source, mcert(1, "01", "10", "01", "10"), 6),
            verify_toeplitz_certificate(source, tcert(1, "01", "10"), 6),
        )
        for verdict in verdicts:
            assert (verdict.accepted, verdict.failure_reason) == (False, "no_phase")
            assert verdict.detail == "window[0]"

    def test_a_run_of_fewer_than_three_tokens_is_no_parse(self):
        """On 0.10 the identity parse at parity 1 is the run 010 from -1;
        the other parity's run holds the one token at 0 and is passed by."""
        verdict = verify_morse_certificate(
            window_source("010", 1), mcert(0, "0", "1", "0", "1"), 3
        )
        assert verdict.accepted
        assert verdict.phases == (
            PhaseParse(0, -1, MORSE_TOKENS.word("010"), 1, "window[0]"),
        )

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
        assert identity_pairs(verdict) == SIX_PAIRS

    def test_every_accepted_parse_stays_inside_the_six(self, morse):
        certs = [
            mcert(0, "0", "1", "0", "1"),
            mcert(1, "01", "10", "01", "10"),
            mcert(1, "11", "00", "10", "01"),
        ]
        for cert in certs:
            verdict = verify_morse_certificate(morse, cert)
            assert verdict.accepted
            assert identity_pairs(verdict) <= SIX_PAIRS

    def test_six_pair_table_contents(self):
        # carrier letter, gap identity, carrier letter: C0 is 0 and C1 is 1
        steps = [((a, g), (g, b)) for (a, b), g in _GAP_IDENTITY.items()]
        assert {pair for step in steps for pair in step} == SIX_PAIRS


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
        lo = window.origin + entry.start
        run = Window(window.word[lo : lo + len(entry.tokens)], -entry.start)
        assert out.text == run.text

    def test_scale_one_morse_recode_matches_the_run(self, morse):
        cert = mcert(1, "01", "10", "01", "10")
        verdict = verify_morse_certificate(morse, cert)
        entry = verdict.phases[0]
        out = recode_morse(cert, verdict, 0)
        window = morse.periodic_window(Seed(0, 0, 2), 64)
        lo = window.origin + entry.start
        run = Window(window.word[lo : lo + 2 * len(entry.tokens)], -entry.start)
        assert out.text == run.text

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

    @pytest.mark.parametrize("k", [12, 13])
    def test_identity_recodes_at_the_largest_verified_scales(self, morse, toeplitz, k):
        m0, m1 = (w.letters for w in morse.power(k).images)
        t0, t1 = (w.letters for w in toeplitz.power(k).images)
        mc = MorseCertificate(k, *(Word(BINARY, b) for b in (m0, m1, m0, m1)))
        tc = ToeplitzCertificate(k, Word(BINARY, t0), Word(BINARY, t1))
        for recode, verify, source, cert in (
            (recode_morse, verify_morse_certificate, morse, mc),
            (recode_toeplitz, verify_toeplitz_certificate, toeplitz, tc),
        ):
            verdict = verify(source, cert)
            assert verdict.accepted
            out = recode(cert, verdict)
            assert len(out.word) == len(verdict.phases[0].tokens) << k

    def test_tokens_outside_the_language_recode_at_k_12(self, morse):
        """Tokens 01110 hold 111, which is no Morse factor, yet every
        (2**12 + 2)-piece of their image is one, so the answer is the
        window.  The one piece that no language pair of tokens covers,
        last(mu**12(1)) mu**12(1) first(mu**12(1)), occurs in a Morse
        window."""
        k = 12
        zeros, ones = "0" * (1 << k), "1" * (1 << k)
        cert = mcert(k, zeros, ones, zeros, ones)
        tokens = MORSE_TOKENS.word("01110")
        verdict = ParseVerdict(True, (PhaseParse(0, 0, tokens),), None, "morse", 64)
        m0, m1 = (w.letters for w in morse.power(k).images)
        assert recode_morse(cert, verdict).word.letters == m0 + m1 + m1 + m1 + m0
        window = morse.periodic_window(Seed(0, 0, 2), 1 << 16).word.letters
        assert m1[-1:] + m1 + m1[:1] in window

    def test_pieces_past_the_factor_test_cap_are_refused(self):
        """At k = 20 the image of 0110 is built, but its pieces of 2**20 + 2
        letters are too long to decide: CapacityError, not a rejection."""
        k = 20
        cert = tcert(k, "0" * (1 << k), "1" * (1 << k))
        verdict = ParseVerdict(
            True, (PhaseParse(0, 0, BINARY.word("0110")),), None, "toeplitz", 64
        )
        with pytest.raises(CapacityError):
            recode_toeplitz(cert, verdict)

    def test_image_joins_the_token_images(self):
        """At k = 20 every pair and triple of 0100 is a Toeplitz factor, so
        only the image is built: the token images joined, as the per-offset
        substitution kernel ``_image`` builds it."""
        k = 20
        cert = tcert(k, "0" * (1 << k), "1" * (1 << k))
        tokens = BINARY.word("0100")
        verdict = ParseVerdict(True, (PhaseParse(0, -5, tokens),), None, "toeplitz", 64)
        out = recode_toeplitz(cert, verdict)
        assert out.origin == 5
        assert out.word.letters == _image(TOEPLITZ._iterate(k), tokens.letters)

    def test_token_block_check_raises_exactly_when_the_factor_check_does(self):
        """Against the postcondition as it was checked before: every
        (2**k + 2)-factor of the image in the target's language."""
        rng = random.Random(5)
        raised = passed = 0
        for target, recode, name, tokens in (
            (TOEPLITZ, recode_toeplitz, "toeplitz", BINARY),
            (MORSE, recode_morse, "morse", MORSE_TOKENS),
        ):
            factors = target.power(6).images[0].letters
            for k in range(7):
                # recoding reads only the scale of the certificate
                zeros, ones = "0" * (1 << k), "1" * (1 << k)
                cert = tcert(k, zeros, ones) if name == "toeplitz" else mcert(
                    k, zeros, ones, zeros, ones
                )
                depth = (1 << k) + 2
                for _ in range(40):
                    n = rng.randrange(1, 12)
                    if rng.random() < 0.3:
                        at = rng.randrange(len(factors) - n)
                        letters = factors[at : at + n]
                    else:
                        letters = bytes(rng.randrange(tokens.size) for _ in range(n))
                    out = Word(BINARY, bytes(t & 1 for t in letters))
                    for _ in range(k):
                        out = target.apply(out)
                    verdict = ParseVerdict(
                        True, (PhaseParse(0, 0, Word(tokens, letters)),), None, name, 64
                    )
                    if len(out) >= depth and not out.factors(depth) <= target.language(depth):
                        with pytest.raises(ConsistencyError):
                            recode(cert, verdict)
                        raised += 1
                    else:
                        assert recode(cert, verdict).word == out
                        passed += 1
        assert raised > 40 and passed > 400

    def test_factor_pieces_are_skipped_by_galloping(self, monkeypatch):
        """Tokens 0110 hold 11, which is no Toeplitz factor; at k = 14 every
        piece of tau**k(11) is one, and the longest factor from each piece
        covers the ones inside it, so a hundred factor tests or so decide
        what one test per piece (over 16,000) did."""
        k = 14
        calls = []

        def counting(sub, data):
            calls.append(len(data))
            return is_factor(sub, data)

        is_factor = conjugacy._is_factor
        monkeypatch.setattr(conjugacy, "_is_factor", counting)
        cert = tcert(k, "0" * (1 << k), "1" * (1 << k))
        tokens = BINARY.word("0110")
        verdict = ParseVerdict(True, (PhaseParse(0, 0, tokens),), None, "toeplitz", 64)
        out = recode_toeplitz(cert, verdict)
        assert out.word.letters == _image(TOEPLITZ._iterate(k), tokens.letters)
        assert len(calls) < 200

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

    def test_toeplitz_search_guesses_no_carrier(self):
        """Every block of a candidate is a tile of the reference window: on
        000 no tile can be C1, so the search finds nothing, although
        verification accepts (0, 1), whose C1 never occurs."""
        source = explicit_binary("000")
        assert search_toeplitz_certificate(source, 2) is None
        assert verify_toeplitz_certificate(source, tcert(0, "0", "1"), 3).accepted

    def test_morse_search_guesses_no_gap_block(self):
        """On 010 the one run of 3 tiles has the carrier 0 twice and the gap
        1, which fixes C1 only, so the search finds nothing, although
        verification accepts the certificate that guesses C0' and C1' as the
        least block."""
        source = explicit_binary("010")
        assert search_morse_certificate(source, 2) is None
        assert verify_morse_certificate(source, mcert(0, "0", "1", "0", "0"), 3).accepted

    def test_word_facts_of_the_candidate_proof(self):
        """The facts ``_candidates`` rests on, over every binary word: an
        overlap-free word of 9 letters holds all four 2-blocks, the longest
        that avoids 00 or 11 has 8 letters and the longest that avoids 01 or
        10 has 4, and a 4-letter word with no even-zero square holds both
        letters."""
        def words(n):
            return [bytes(w) for w in itertools.product((0, 1), repeat=n)]

        pairs = set(words(2))
        overlap_free = [w for w in words(9) if _overlap_small(w) is None]
        assert overlap_free
        assert all({w[i : i + 2] for i in range(8)} == pairs for w in overlap_free)
        for pair in sorted(pairs):
            grown, longer = [], [b""]
            while longer:  # both conditions hold of every prefix
                grown = longer
                longer = [w + a for w in grown for a in (b"\0", b"\1")]
                longer = [w for w in longer if pair not in w and _overlap_small(w) is None]
            assert len(grown[0]) == (8 if pair[0] == pair[1] else 4)
        square_free = [w for w in words(4) if _even_square_small(w, 0) is None]
        assert square_free and all(set(w) == {0, 1} for w in square_free)

    def test_reference_words_of_substitutions_hold_63_tiles(self, three_letter):
        """The first sampled window has 64 * span letters at every scale."""
        for sub in (MORSE, TOEPLITZ, three_letter):
            for k in range(5):
                span = 1 << k
                checker = conjugacy._Checker(
                    conjugacy._MORSE, SubstitutionSource(sub), span, 32 * span
                )
                assert min(len(row) for row in checker.tiler.tiles(0)) >= 63

    def test_kmax_validated(self, morse):
        with pytest.raises(RangeError):
            search_toeplitz_certificate(morse, -1)
        with pytest.raises(RangeError):
            search_morse_certificate(morse, -1)

    def test_a_source_with_nothing_to_parse_is_refused(self):
        empty = ExplicitSource(BINARY, ())
        with pytest.raises(DomainError, match="no window and no 128-block to check"):
            verify_toeplitz_certificate(empty, tcert(1, "01", "00"))
        with pytest.raises(DomainError, match="no window and no 12-block to check"):
            verify_morse_certificate(empty, mcert(1, "01", "10", "01", "10"), 6)
        assert search_toeplitz_certificate(empty, 3) is None
        assert search_morse_certificate(empty, 3) is None

    def test_searches_skip_scales_with_nothing_to_parse(self, toeplitz):
        """Blocks of length 1 but none of length 2R = 64: scale 0 has no
        candidate, and scale 1 parses the least 128-block."""
        blocks = {n: toeplitz.language(n) for n in (1, 2, 128)}
        source = ExplicitSource(BINARY, (), blocks)
        with pytest.raises(DomainError):
            verify_toeplitz_certificate(source, tcert(0, "0", "1"))
        cert = search_toeplitz_certificate(source, 1)
        assert cert == tcert(1, "01", "00")
        assert verify_toeplitz_certificate(source, cert).accepted

    def test_explicit_windows_need_no_blocks(self, morse):
        """A search reads no block set: on a 32-letter Morse window without
        ``blocks_by_length`` it finds what verification accepts there."""
        source = ExplicitSource(BINARY, (morse.periodic_window(Seed(0, 0, 2), 16),))
        toeplitz = search_toeplitz_certificate(source, 20)
        assert toeplitz == tcert(3, "00101100", "11010011")
        assert verify_toeplitz_certificate(source, toeplitz).accepted
        found = search_morse_certificate(source, 20)
        assert found == mcert(0, "0", "1", "0", "1")
        assert verify_morse_certificate(source, found).accepted

    def test_searches_pass_the_language_cap(self, morse, toeplitz):
        """language(2**13) passes LANGUAGE_BYTES_CAP, but a search builds
        no language, so it goes on to kmax.  Nor does a long seed period
        stop it: a window reads sigma**j of a center pair, not rounds of
        sigma**p (seed period 3, and 12 on the 12-letter cycle)."""
        assert search_toeplitz_certificate(morse, 14) is None
        assert search_morse_certificate(toeplitz, 13) is None
        period_three = parse_substitution("0->01;1->02;2->00")
        assert search_toeplitz_certificate(period_three, 14) is None
        letters = "abcdefghijkl"
        cycle = ";".join(f"{a}->{a}{b}" for a, b in zip(letters, letters[1:] + "a"))
        assert search_toeplitz_certificate(parse_substitution(cycle), 8) is None

    def test_search_memory_stays_small(self, morse):
        """Tile rows are cut one phase at a time, not kept for every phase."""
        tracemalloc.start()
        try:
            assert search_toeplitz_certificate(morse, 12) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_span_cap(self, monkeypatch):
        """A 32-letter window without blocks holds no phase of 3 tiles past
        k = 3, so every later scale costs O(1) up to the largest kmax, 20.
        A kmax whose blocks pass DEFAULT_MAX_LEN = 2**20 is refused before
        any tiling."""
        source = ExplicitSource(BINARY, (Window(BINARY.word("0" * 32), 16),))
        searches = (search_toeplitz_certificate, search_morse_certificate)
        start = time.perf_counter()
        for search in searches:
            assert search(source, 20) is None
        # O(1) per scale; a loop over every phase of every scale takes about 1 s
        assert time.perf_counter() - start < 0.25
        tiled = []
        monkeypatch.setattr(conjugacy, "_Levels", lambda *args: tiled.append(args))
        for lang, kmax in ((source, 21), (source, 10**9), (MORSE, 21)):
            for search in searches:
                with pytest.raises(CapacityError) as err:
                    search(lang, kmax)
                assert str(err.value) == f"blocks of 2**{kmax} letters exceed cap 1048576"
        assert tiled == []


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
        labels = source.level_words(1, 8)[0]
        assert labels == ["seed (0.0, p=2)", "seed (1.0, p=2)"]

    def test_explicit_sources_pass_through(self):
        source = ExplicitSource(BINARY, (Window(BINARY.word("0101"), 2),))
        assert as_source(source) is source
        assert source.blocks(2) is None
        assert source.level_words(1, 4)[0] == ["window[0]"]

    def test_explicit_blocks_by_length(self):
        blocks = frozenset({BINARY.word("01"), BINARY.word("10")})
        source = ExplicitSource(BINARY, (), {2: blocks})
        assert source.blocks(2) == blocks
        assert source.blocks(3) is None

    def test_explicit_blocks_of_another_length_are_refused(self):
        blocks = frozenset({BINARY.word("01"), BINARY.word("0110")})
        with pytest.raises(DomainError, match="listed under length 2"):
            ExplicitSource(BINARY, (), {2: blocks})

    def test_explicit_words_over_another_alphabet_are_refused(self):
        abc = Alphabet.from_names("012")
        block = abc.word("0120" * 8)
        with pytest.raises(DomainError, match="not over alphabet 01"):
            ExplicitSource(BINARY, (), {32: frozenset({block})})
        with pytest.raises(DomainError, match="not over alphabet 01"):
            ExplicitSource(BINARY, (Window(abc.word("0101"), 2),))

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
