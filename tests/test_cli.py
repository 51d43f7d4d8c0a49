"""End-to-end coverage of every subcommand, exit code, and output mode."""

import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import morsetoeplitz
from morsetoeplitz import LocalRule, Seed, rule_to_json
from morsetoeplitz.cli import main
from morsetoeplitz.words import BINARY

MORSE_SPEC = "0->01;1->10"
TOEPLITZ_SPEC = "0->01;1->00"
THREE_SPEC = "0->12;1->02;2->10"
SWAP_RULE = (
    '{"memory": 0, "anticipation": 0, "input": "01", "output": "01",'
    ' "table": {"0": "1", "1": "0"}}'
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def payload(result):
    return json.loads(result.output)


def assert_input_error(result):
    """Malformed input: exit 2 with an error line, not an uncaught exception."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


class TestGenerate:
    def test_morse_window(self, runner):
        result = invoke(
            runner, "generate", "--sub", MORSE_SPEC,
            "--seed", "0.0", "--period", "2", "--radius", "8",
        )
        assert result.exit_code == 0
        assert result.output == "10010110.01101001\n"

    def test_toeplitz_window(self, runner):
        result = invoke(
            runner, "generate", "--sub", TOEPLITZ_SPEC,
            "--seed", "1.0", "--period", "2", "--radius", "8",
        )
        assert result.output == "01000101.01000101\n"

    def test_json_payload(self, runner):
        result = invoke(
            runner, "generate", "--sub", MORSE_SPEC,
            "--seed", "0.0", "--period", "2", "--radius", "8", "--json",
        )
        assert payload(result) == {
            "window": "10010110.01101001",
            "seed": {"left": "0", "right": "0", "period": 2},
            "radius": 8,
        }

    def test_seed_shape_is_checked(self, runner):
        result = invoke(
            runner, "generate", "--sub", MORSE_SPEC,
            "--seed", "00", "--period", "2",
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    def test_inadmissible_seed(self, runner):
        result = invoke(
            runner, "generate", "--sub", MORSE_SPEC,
            "--seed", "0.0", "--period", "1",
        )
        assert result.exit_code == 2


class TestLanguage:
    def test_plain_listing(self, runner):
        result = invoke(runner, "language", "--sub", TOEPLITZ_SPEC, "--n", "2")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["00", "01", "10"]

    def test_json_listing(self, runner):
        result = invoke(runner, "language", "--sub", MORSE_SPEC, "--n", "2", "--json")
        assert payload(result) == {"n": 2, "count": 4, "blocks": ["00", "01", "10", "11"]}

    def test_non_primitive_input_is_an_error(self, runner):
        result = invoke(runner, "language", "--sub", "0->11;1->00", "--n", "2")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_oversized_language_is_refused(self, runner):
        start = time.perf_counter()
        result = invoke(runner, "language", "--sub", MORSE_SPEC, "--n", "65536")
        assert time.perf_counter() - start < 1
        assert_input_error(result)
        assert "over cap" in result.stderr


class TestCheck:
    def test_clean_word(self, runner):
        result = invoke(runner, "check", "--pattern", "overlap", "--word", "0110")
        assert result.exit_code == 0
        assert result.output == "none\n"

    def test_overlap_hit(self, runner):
        result = invoke(runner, "check", "--pattern", "overlap", "--word", "00011")
        assert result.exit_code == 1
        assert result.output == "overlap: start 0 period 1\n"

    def test_even_square_hit(self, runner):
        result = invoke(runner, "check", "--pattern", "toeplitz", "--word", "0110")
        assert result.exit_code == 1
        assert result.output == "toeplitz: start 1 period 1\n"

    def test_odd_squares_pass(self, runner):
        result = invoke(runner, "check", "--pattern", "toeplitz", "--word", "0101")
        assert result.exit_code == 0

    def test_zero_letter_is_selectable(self, runner):
        result = invoke(
            runner, "check", "--pattern", "toeplitz", "--word", "00", "--zero", "1"
        )
        assert result.exit_code == 1
        default = invoke(runner, "check", "--pattern", "toeplitz", "--word", "00")
        assert default.exit_code == 0

    def test_json_witness(self, runner):
        result = invoke(
            runner, "check", "--pattern", "toeplitz", "--word", "00011", "--json"
        )
        assert result.exit_code == 1
        assert payload(result) == {
            "word": "00011",
            "pattern": "toeplitz",
            "found": True,
            "witness": {"start": 3, "period": 1},
        }

    def test_json_without_witness(self, runner):
        result = invoke(runner, "check", "--pattern", "overlap", "--word", "010", "--json")
        assert payload(result)["witness"] is None

    def test_reserved_letter_rejected(self, runner):
        result = invoke(runner, "check", "--pattern", "overlap", "--word", "0.1")
        assert result.exit_code == 2


class TestImage:
    def test_oxtoby_image(self, runner):
        result = invoke(
            runner, "image", "--rule", "oxtoby", "--window", "10010110.01101001"
        )
        assert result.exit_code == 0
        assert result.output == "01000101.0100010\n"

    def test_origin_at_the_left_edge(self, runner):
        result = invoke(
            runner, "image", "--rule", "oxtoby", "--window", ".0110100110010110"
        )
        assert result.output == ".010001010100010\n"

    def test_json_payload(self, runner):
        result = invoke(
            runner, "image", "--rule", "oxtoby", "--window", "10010110.01101001", "--json"
        )
        assert payload(result) == {
            "input": "10010110.01101001",
            "image": "01000101.0100010",
        }

    def test_rule_from_file(self, runner, tmp_path):
        rule = LocalRule(BINARY, BINARY, 0, 0, {b"\x00": b"\x01", b"\x01": b"\x00"})
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(rule_to_json(rule)))
        result = invoke(runner, "image", "--rule", str(path), "--window", "01.10")
        assert result.output == "10.01\n"

    def test_window_must_cover_the_rule(self, runner):
        result = invoke(runner, "image", "--rule", "oxtoby", "--window", "0.")
        assert result.exit_code == 2

    def test_malformed_inline_rule(self, runner):
        rule = '{"memory": 0, '
        result = invoke(runner, "image", "--rule", rule, "--window", "01.10")
        assert_input_error(result)

    def test_rule_file_that_is_not_json(self, runner, tmp_path):
        path = tmp_path / "rule.json"
        path.write_text("memory: 0\n")
        result = invoke(runner, "image", "--rule", str(path), "--window", "01.10")
        assert_input_error(result)

    @pytest.mark.parametrize(
        "field", ['"memory": "x"', '"memory": NaN', '"memory": 1e400', '"domain": 5']
    )
    def test_malformed_rule_fields(self, runner, field):
        # json.loads keeps the last value of a repeated key.
        rule = SWAP_RULE[:-1] + ", " + field + "}"
        result = invoke(runner, "image", "--rule", rule, "--window", "01.10")
        assert_input_error(result)
        assert result.stderr.startswith("error: malformed rule payload: ")


class TestPreimage:
    def test_two_preimages(self, runner):
        result = invoke(runner, "preimage", "--rule", "oxtoby", "--word", "0100")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["01101", "10010"]

    def test_empty_word(self, runner):
        result = invoke(runner, "preimage", "--rule", "oxtoby", "--word", "")
        assert result.output.splitlines() == ["0", "1"]

    def test_json_payload(self, runner):
        result = invoke(
            runner, "preimage", "--rule", "oxtoby", "--word", "0100", "--json"
        )
        assert payload(result) == {
            "word": "0100",
            "count": 2,
            "preimages": ["01101", "10010"],
        }

    def test_foreign_letters_rejected(self, runner):
        result = invoke(runner, "preimage", "--rule", "oxtoby", "--word", "012")
        assert result.exit_code == 2

    def test_long_toeplitz_word(self, runner, toeplitz):
        word = toeplitz.periodic_window(Seed(0, 0, 2), 600).word.text
        result = invoke(runner, "preimage", "--rule", "oxtoby", "--word", word)
        assert result.exit_code == 0
        assert result.exception is None
        assert len(result.output.splitlines()) == 2


class TestVerifyCert:
    IDENTITY = '{"kind": "toeplitz", "k": 0, "C0": "0", "C1": "1"}'

    def test_accepted_plain(self, runner):
        result = invoke(
            runner, "verify-cert", "--cert", self.IDENTITY, "--sub", TOEPLITZ_SPEC
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "accepted"
        assert lines[1].startswith("  seed (0.0, p=2): phase 0 tokens ")

    def test_accepted_json(self, runner):
        result = invoke(
            runner, "verify-cert", "--cert", self.IDENTITY,
            "--sub", TOEPLITZ_SPEC, "--json",
        )
        data = payload(result)
        assert data["accepted"] is True
        assert data["kind"] == "toeplitz"
        assert data["radius"] == 32
        assert data["failure_reason"] is None
        assert len(data["phases"]) == 2
        entry = data["phases"][0]
        assert entry["window"] == "seed (0.0, p=2)"
        assert (entry["phase"], entry["start"], entry["parity"]) == (0, -32, None)

    def test_rejected_plain(self, runner):
        swapped = '{"kind": "toeplitz", "k": 0, "C0": "1", "C1": "0"}'
        result = invoke(
            runner, "verify-cert", "--cert", swapped, "--sub", TOEPLITZ_SPEC
        )
        assert result.exit_code == 1
        assert result.output.startswith("rejected: token_pattern (")

    def test_morse_certificate_from_file(self, runner, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(
            '{"kind": "morse", "k": 0, "C0": "0", "C1": "1", "C0p": "0", "C1p": "1"}'
        )
        result = invoke(
            runner, "verify-cert", "--cert", str(path),
            "--sub", MORSE_SPEC, "--radius", "64", "--json",
        )
        data = payload(result)
        assert result.exit_code == 0
        assert data["kind"] == "morse"
        assert len(data["phases"]) == 4
        assert all(entry["parity"] == 0 for entry in data["phases"])

    def test_malformed_certificate(self, runner):
        result = invoke(
            runner, "verify-cert", "--cert", '{"kind": "toeplitz", "k": 0}',
            "--sub", TOEPLITZ_SPEC,
        )
        assert result.exit_code == 2

    def test_radius_too_small(self, runner):
        result = invoke(
            runner, "verify-cert", "--cert", self.IDENTITY,
            "--sub", TOEPLITZ_SPEC, "--radius", "2",
        )
        assert result.exit_code == 2

    def test_malformed_inline_json(self, runner):
        result = invoke(
            runner, "verify-cert", "--cert", '{"kind": "toeplitz", "k": 1, ',
            "--sub", TOEPLITZ_SPEC,
        )
        assert_input_error(result)

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1e400", "error: malformed certificate payload: "),
            ("100000000", "error: certificate blocks must have length 2**k = 2**"),
        ],
        ids=["infinite", "huge"],
    )
    def test_unusable_scale(self, runner, k, message):
        cert = f'{{"kind": "toeplitz", "k": {k}, "C0": "0", "C1": "1"}}'
        result = invoke(runner, "verify-cert", "--cert", cert, "--sub", TOEPLITZ_SPEC)
        assert_input_error(result)
        assert result.stderr.startswith(message)


class TestSearchCert:
    def test_toeplitz_identity_found(self, runner):
        result = invoke(
            runner, "search-cert", "--kind", "toeplitz", "--sub", TOEPLITZ_SPEC,
            "--kmax", "1",
        )
        assert result.exit_code == 0
        assert result.output == '{"C0": "0", "C1": "1", "k": 0, "kind": "toeplitz"}\n'

    def test_morse_identity_found(self, runner):
        result = invoke(
            runner, "search-cert", "--kind", "morse", "--sub", MORSE_SPEC,
            "--kmax", "1", "--json",
        )
        data = payload(result)
        assert result.exit_code == 0
        assert data["found"] is True
        assert data["certificate"]["kind"] == "morse"
        assert data["certificate"]["k"] == 0

    def test_three_letter_search(self, runner):
        result = invoke(
            runner, "search-cert", "--kind", "toeplitz", "--sub", THREE_SPEC, "--json"
        )
        assert result.exit_code == 0
        assert payload(result)["certificate"] == {
            "kind": "toeplitz", "k": 1, "C0": "21", "C1": "00",
        }

    def test_absent_certificates(self, runner):
        result = invoke(runner, "search-cert", "--kind", "toeplitz", "--sub", MORSE_SPEC)
        assert result.exit_code == 1
        assert result.output == "none\n"
        result = invoke(
            runner, "search-cert", "--kind", "morse", "--sub", TOEPLITZ_SPEC,
            "--kmax", "1", "--json",
        )
        assert result.exit_code == 1
        assert payload(result) == {"found": False, "certificate": None}

    def test_kmax_validated(self, runner):
        result = invoke(
            runner, "search-cert", "--kind", "morse", "--sub", MORSE_SPEC,
            "--kmax", "-1",
        )
        assert result.exit_code == 2


class TestAnalyze:
    def test_morse_json(self, runner):
        result = invoke(runner, "analyze", "--sub", MORSE_SPEC, "--json")
        data = payload(result)
        assert result.exit_code == 0
        assert data["substitution"] == MORSE_SPEC
        assert data["alphabet"] == ["0", "1"]
        assert data["length"] == 2
        assert data["length_power_of_two"] is True
        assert data["injective"] is True
        assert data["strongly_connected"] is True
        assert data["period"] == 1
        assert data["period_classes"] == [["0", "1"]]
        assert data["primitive"] is True
        assert data["primitive_by_powers"] is True

    def test_necessary_conditions_gate_the_exit_code(self, runner):
        result = invoke(
            runner, "analyze", "--sub", THREE_SPEC, "--kind", "toeplitz", "--json"
        )
        data = payload(result)
        assert result.exit_code == 0
        assert data["necessary"]["all_pass"] is True
        result = invoke(
            runner, "analyze", "--sub", "0->12;1->23;2->30;3->01",
            "--kind", "toeplitz", "--json",
        )
        assert result.exit_code == 1
        assert payload(result)["necessary"]["alphabet_bound_ok"] is False

    def test_periodic_graph(self, runner):
        result = invoke(runner, "analyze", "--sub", "0->11;1->00", "--json")
        data = payload(result)
        assert result.exit_code == 0
        assert data["period"] == 2
        assert data["period_classes"] == [["0"], ["1"]]
        assert data["primitive"] is False
        assert data["primitive_by_powers"] is False
        gated = invoke(runner, "analyze", "--sub", "0->11;1->00", "--kind", "toeplitz")
        assert gated.exit_code == 1

    def test_disconnected_graph(self, runner):
        result = invoke(runner, "analyze", "--sub", "0->01;1->11", "--json")
        data = payload(result)
        assert data["strongly_connected"] is False
        assert data["period"] is None
        assert data["period_classes"] is None

    def test_plain_output(self, runner):
        result = invoke(runner, "analyze", "--sub", MORSE_SPEC)
        lines = result.output.splitlines()
        assert f"substitution: {MORSE_SPEC}" in lines
        assert "primitive: True" in lines

    def test_malformed_spec(self, runner):
        result = invoke(runner, "analyze", "--sub", "garbage")
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


class TestDerive:
    @staticmethod
    def rule_file(tmp_path, table, anticipation=0):
        rule = LocalRule(BINARY, BINARY, 0, anticipation, table)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(rule_to_json(rule)))
        return str(path)

    def test_substitution_table_rule(self, runner, tmp_path):
        path = self.rule_file(tmp_path, {b"\x00": b"\x00\x01", b"\x01": b"\x01\x00"})
        result = invoke(
            runner, "derive", "--sub", MORSE_SPEC, "--rule", path, "--r", "2", "--json"
        )
        assert result.exit_code == 0
        assert payload(result) == {
            "substitution": "0->01;1->10",
            "blocks": {"0": "0", "1": "1"},
            "primitive": True,
        }

    def test_three_block_rule(self, runner, tmp_path):
        table = {bytes((u, v)): bytes((1 - u, v)) for u in (0, 1) for v in (0, 1)}
        path = self.rule_file(tmp_path, table, anticipation=1)
        result = invoke(
            runner, "derive", "--sub", MORSE_SPEC, "--rule", path, "--r", "2", "--json"
        )
        data = payload(result)
        assert result.exit_code == 0
        assert data["substitution"] == "0->42;1->53;2->54;3->01;4->02;5->13"
        assert data["blocks"] == {
            "0": "001", "1": "010", "2": "011", "3": "100", "4": "101", "5": "110",
        }

    def test_non_primitive_exit_code(self, runner, tmp_path):
        path = self.rule_file(tmp_path, {b"\x00": b"\x00\x00", b"\x01": b"\x01\x01"})
        result = invoke(
            runner, "derive", "--sub", MORSE_SPEC, "--rule", path, "--r", "2"
        )
        assert result.exit_code == 1
        assert result.output.splitlines()[0] == "0->00;1->11"

    def test_foreign_images_rejected(self, runner, tmp_path):
        table = {bytes((u, v)): b"\x01\x01" for u in (0, 1) for v in (0, 1)}
        path = self.rule_file(tmp_path, table, anticipation=1)
        result = invoke(
            runner, "derive", "--sub", MORSE_SPEC, "--rule", path, "--r", "2"
        )
        assert result.exit_code == 2


class TestWitness:
    def test_morse_json(self, runner):
        result = invoke(runner, "witness", "--sub", MORSE_SPEC, "--n", "4", "--json")
        assert result.exit_code == 0
        assert payload(result) == {
            "n": 4,
            "image_count": 10,
            "block_count": 22,
            "contained": True,
            "proper": True,
            "unique_phase": True,
        }

    def test_plain_output(self, runner):
        result = invoke(runner, "witness", "--sub", TOEPLITZ_SPEC, "--n", "4")
        lines = result.output.splitlines()
        assert "image_count: 6" in lines
        assert "block_count: 12" in lines

    def test_non_injective_input(self, runner):
        result = invoke(runner, "witness", "--sub", "0->01;1->01", "--n", "2")
        assert result.exit_code == 2

    def test_long_seed_period_fails_at_the_power_cap(self, runner, long_period_spec):
        result = invoke(runner, "witness", "--sub", long_period_spec, "--n", "1")
        assert result.exit_code == 2
        assert result.stderr == "error: r**k = 3**3540 exceeds cap 1048576\n"


def readme_examples():
    """argv and stdout of every ``$ mtz ...`` example in README.md."""
    readme = Path(__file__).parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ mtz "):
            shown = itertools.takewhile(
                lambda out: out and out != "```" and not out.startswith("$ "),
                lines[i + 1 :],
            )
            argv = shlex.split(line)[2:]
            stdout = "".join(f"{out}\n" for out in shown)
            examples.append(pytest.param(argv, stdout, id=argv[0]))
    return examples


@pytest.mark.parametrize("argv, stdout", readme_examples())
def test_readme_examples(runner, argv, stdout):
    assert invoke(runner, *argv).stdout == stdout


# -- the exit-code contract under generated arguments -----------------------

#: JSON values that break a field: wrong type, non-finite, out of range.
JUNK = ["-1", "1.5", "1e400", "-1e400", "NaN", "100000000", "true", "null",
        '"x"', "[]", "{}", "5"]
GOOD = {
    "kind": ['"toeplitz"', '"morse"'],
    "k": ["0", "1", "2"],
    "C0": ['"0"', '"1"', '"01"', '"10"', '"21"'],
    "memory": ["0", "1"],
    "anticipation": ["0", "1"],
    "input": ['"01"', '"012"'],
    "table": ['{"0": "1", "1": "0"}', '{"0": "01", "1": "10"}'],
    "domain": ['["0", "1"]', '["0"]'],
}
GOOD["C1"] = GOOD["C0p"] = GOOD["C1p"] = GOOD["C0"]
GOOD["output"] = GOOD["input"]


def json_objects(fields):
    """Inline JSON objects with each field absent, plausible or broken,
    sometimes cut short by one character."""
    value = {f: st.none() | st.sampled_from(GOOD[f] + JUNK) for f in fields}
    text = st.fixed_dictionaries(value).map(
        lambda d: "{" + ", ".join(f'"{k}": {v}' for k, v in d.items() if v) + "}"
    )
    return st.one_of(text, text.map(lambda t: t[:-1]))


def maybe(strategy):
    return st.none() | strategy


def options(**fields):
    """Option values by name; None leaves an option out."""
    return st.fixed_dictionaries(fields)


def binary(min_size=0, max_size=32):
    return st.text("01", min_size=min_size, max_size=max_size)


@st.composite
def substitutions(draw):
    """Constant-length substitutions on two or three letters."""
    size, length = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    image = st.text("012"[:size], min_size=length, max_size=length)
    images = draw(st.lists(image, min_size=size, max_size=size))
    return ";".join(f"{a}->{im}" for a, im in enumerate(images))


@st.composite
def total_rules(draw):
    """Total binary rules with memory and anticipation at most 1."""
    memory, anticipation = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    width, out_len = memory + anticipation + 1, draw(st.integers(1, 2))
    outs = draw(st.lists(binary(out_len, out_len), min_size=2**width, max_size=2**width))
    table = {format(i, f"0{width}b"): out for i, out in enumerate(outs)}
    return json.dumps({"memory": memory, "anticipation": anticipation,
                       "input": "01", "output": "01", "table": table})


@st.composite
def shaped_certs(draw):
    """Certificates of the right shape: a kind, k <= 2 and four 2**k-letter blocks."""
    k = draw(st.integers(0, 2))
    block = st.text("012", min_size=2**k, max_size=2**k)
    blocks = draw(st.lists(block, min_size=4, max_size=4))
    names = ("C0", "C1", "C0p", "C1p")
    return json.dumps({"kind": draw(KINDS), "k": k} | dict(zip(names, blocks)))


KINDS = st.sampled_from(["toeplitz", "morse"])
BINARY_SPECS = st.sampled_from([MORSE_SPEC, TOEPLITZ_SPEC])
SPECS = st.one_of(
    BINARY_SPECS,
    st.sampled_from(
        [THREE_SPEC, "0->11;1->00", "0->01;1->11", "0->01;1->01", "0->0;1->10"]
    ),
    substitutions(),
    st.text("01->;", max_size=16),
)
RULES = st.one_of(
    st.sampled_from(["oxtoby", SWAP_RULE]),
    total_rules(),
    json_objects(["memory", "anticipation", "input", "output", "table", "domain"]),
    st.text("01.{}x", max_size=8),
)
IDENTITY_CERTS = st.sampled_from([
    '{"kind": "toeplitz", "k": 0, "C0": "0", "C1": "1"}',
    '{"kind": "morse", "k": 0, "C0": "0", "C1": "1", "C0p": "0", "C1p": "1"}',
])
CERTS = st.one_of(
    IDENTITY_CERTS,
    shaped_certs(),
    json_objects(["kind", "k", "C0", "C1", "C0p", "C1p"]),
    st.text("01{}", max_size=8),
)
WORDS = st.one_of(binary(max_size=64), st.text("012.", max_size=64))
WINDOWS = st.one_of(
    st.tuples(binary(), binary()).map(".".join), st.text("012.", max_size=64)
)
SEEDS = st.one_of(
    st.tuples(st.sampled_from("012"), st.sampled_from("012")).map(".".join),
    st.text("012.", max_size=4),
)
RADII = maybe(st.integers(-4, 256))

#: Generated options per subcommand; every size is bounded so no case runs long.
FUZZ = {
    "generate": options(sub=SPECS, seed=SEEDS, period=st.integers(-1, 8), radius=RADII),
    "language": options(sub=SPECS, n=st.integers(-2, 16)),
    "check": options(pattern=st.sampled_from(["overlap", "toeplitz"]), word=WORDS,
                     zero=maybe(st.text("01a", max_size=2))),
    "image": options(rule=RULES, window=WINDOWS),
    "preimage": options(rule=RULES, word=WORDS),
    "verify-cert": options(cert=CERTS, sub=SPECS, radius=RADII)
    | options(cert=IDENTITY_CERTS, sub=BINARY_SPECS, radius=RADII),
    "search-cert": options(kind=KINDS, sub=SPECS, kmax=maybe(st.integers(-1, 2))),
    "analyze": options(sub=SPECS, kind=maybe(KINDS)),
    "derive": options(sub=SPECS, rule=RULES, r=st.integers(-1, 8))
    | options(sub=BINARY_SPECS, rule=total_rules(), r=st.just(2)),
    "witness": options(sub=SPECS, n=st.integers(-2, 16)),
}


@pytest.mark.parametrize("name", sorted(FUZZ))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_exit_code_contract(name, data):
    options = data.draw(FUZZ[name], label="options")
    argv = [name] + [
        arg for key, v in options.items() if v is not None for arg in (f"--{key}", str(v))
    ]
    if data.draw(st.booleans(), label="json"):
        argv.append("--json")
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), argv
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    if result.exit_code == 2:
        assert result.stderr.startswith("error: "), argv


def test_cli_import_loads_no_numpy():
    """The runtime needs click only: a fresh interpreter that imports the
    CLI has not loaded numpy."""
    src = Path(morsetoeplitz.__file__).resolve().parents[1]
    code = "import sys, morsetoeplitz.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
