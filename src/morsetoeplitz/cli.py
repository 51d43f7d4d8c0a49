"""Command line front end.

Exit codes: 0 for a positive outcome, 1 for a clean negative one (a
forbidden pattern was found, a certificate was rejected, a search came up
empty, a reported property fails), 2 for malformed input or violated
preconditions.  ``--json`` switches any subcommand to a single JSON
object on stdout; the verdict bit is identical in both formats.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .conjugacy import (
    ToeplitzCertificate,
    certificate_from_json,
    certificate_to_json,
    derive_substitution,
    necessary_conditions,
    search_morse_certificate,
    search_toeplitz_certificate,
    self_similarity_witness,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)
from .errors import Error
from .graphs import build_graph
from .patterns import find_even_square, find_overlap
from .sliding import apply_code, load_rule, preimage_blocks, rule_from_json
from .substitution import Seed, parse_substitution
from .words import Alphabet, BINARY, parse_window


def _bail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _word_alphabet(text: str, extra: str = "") -> Alphabet:
    symbols = set(text) | set(extra)
    if symbols <= {"0", "1"}:
        return BINARY
    return Alphabet(tuple(sorted(symbols)))


def _load_json_arg(text: str) -> dict:
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise Error(f"cannot read JSON file {text}: {exc}") from None
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise Error(f"malformed inline JSON: {exc}") from None
    raise Error(f"expected a JSON file or inline JSON object, got {text!r}")


def _load_rule_arg(text: str):
    if text.strip().startswith("{") or (os.path.exists(text) and text != "oxtoby"):
        return rule_from_json(_load_json_arg(text))
    return load_rule(text)


@click.group()
@click.version_option(package_name="morsetoeplitz")
def main() -> None:
    """Substitution systems, forbidden patterns, and block conjugacies."""


@main.command()
@click.option("--sub", "spec", required=True, help="Substitution, e.g. '0->01;1->10'.")
@click.option("--seed", "seed_text", required=True, help="Seed letters 'a.b'.")
@click.option("--period", required=True, type=int, help="Seed period p.")
@click.option("--radius", default=16, show_default=True, help="Letters per side.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def generate(spec: str, seed_text: str, period: int, radius: int, as_json: bool) -> None:
    """Print the periodic window grown from a seed."""
    try:
        sub = parse_substitution(spec)
        parts = seed_text.split(".")
        if len(parts) != 2 or not all(parts):
            raise Error(f"seed must be 'a.b', got {seed_text!r}")
        seed = Seed(sub.alphabet.index(parts[0]), sub.alphabet.index(parts[1]), period)
        window = sub.periodic_window(seed, radius)
        if as_json:
            _emit(
                {
                    "window": window.text,
                    "seed": {"left": parts[0], "right": parts[1], "period": period},
                    "radius": radius,
                }
            )
        else:
            click.echo(window.text)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--n", "n", required=True, type=int, help="Block length.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def language(spec: str, n: int, as_json: bool) -> None:
    """List all length-n blocks of the substitution's language."""
    try:
        sub = parse_substitution(spec)
        blocks = sorted(b.text for b in sub.language(n))
        if as_json:
            _emit({"n": n, "count": len(blocks), "blocks": blocks})
        else:
            for b in blocks:
                click.echo(b)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option(
    "--pattern",
    type=click.Choice(["overlap", "toeplitz"]),
    required=True,
    help="overlap scans for BBb; toeplitz scans for even-zero squares BB.",
)
@click.option("--word", "text", required=True, help="Word to scan.")
@click.option("--zero", default="0", show_default=True, help="Even-count letter.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def check(pattern: str, text: str, zero: str, as_json: bool) -> None:
    """Scan a word for a forbidden pattern; exit 1 when one is found."""
    try:
        if pattern == "overlap":
            word = _word_alphabet(text).word(text)
            hit = find_overlap(word)
        else:
            alphabet = _word_alphabet(text, zero)
            word = alphabet.word(text)
            hit = find_even_square(word, alphabet.index(zero))
        payload = {
            "word": text,
            "pattern": pattern,
            "found": hit is not None,
            "witness": {"start": hit.start, "period": hit.period} if hit else None,
        }
        if as_json:
            _emit(payload)
        elif hit is None:
            click.echo("none")
        else:
            click.echo(f"{pattern}: start {hit.start} period {hit.period}")
        sys.exit(1 if hit else 0)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--rule", "rule_source", required=True, help="Rule JSON file or 'oxtoby'.")
@click.option("--window", "window_text", required=True, help="Window with '.' origin.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def image(rule_source: str, window_text: str, as_json: bool) -> None:
    """Apply a sliding block code to a marked window."""
    try:
        rule = _load_rule_arg(rule_source)
        window = parse_window(window_text, rule.input_alphabet)
        out = apply_code(rule, window)
        if as_json:
            _emit({"input": window_text, "image": out.text})
        else:
            click.echo(out.text)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--rule", "rule_source", required=True, help="Rule JSON file or 'oxtoby'.")
@click.option("--word", "text", required=True, help="Image word (no '.').")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def preimage(rule_source: str, text: str, as_json: bool) -> None:
    """List every block mapping onto the given word under the code."""
    try:
        rule = _load_rule_arg(rule_source)
        word = rule.output_alphabet.word(text)
        blocks = sorted(b.text for b in preimage_blocks(rule, word))
        if as_json:
            _emit({"word": text, "count": len(blocks), "preimages": blocks})
        else:
            for b in blocks:
                click.echo(b)
    except Error as exc:
        _bail(exc)


@main.command("verify-cert")
@click.option("--cert", "cert_source", required=True, help="Certificate JSON file.")
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--radius", default=None, type=int, help="Window radius per side.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def verify_cert(cert_source: str, spec: str, radius: int | None, as_json: bool) -> None:
    """Verify a block certificate against a substitution's system."""
    try:
        sub = parse_substitution(spec)
        payload = _load_json_arg(cert_source)
        cert = certificate_from_json(payload, sub.alphabet)
        if isinstance(cert, ToeplitzCertificate):
            verdict = verify_toeplitz_certificate(sub, cert, radius)
        else:
            verdict = verify_morse_certificate(sub, cert, radius)
        if as_json:
            _emit(
                {
                    "accepted": verdict.accepted,
                    "kind": verdict.kind,
                    "radius": verdict.radius,
                    "failure_reason": verdict.failure_reason,
                    "detail": verdict.detail,
                    "phases": [
                        {
                            "window": p.window,
                            "phase": p.phase,
                            "start": p.start,
                            "parity": p.parity,
                            "tokens": p.tokens.text,
                        }
                        for p in verdict.phases
                    ],
                }
            )
        elif verdict.accepted:
            click.echo("accepted")
            for p in verdict.phases:
                click.echo(f"  {p.window}: phase {p.phase} tokens {p.tokens.text}")
        else:
            click.echo(f"rejected: {verdict.failure_reason} ({verdict.detail})")
        sys.exit(0 if verdict.accepted else 1)
    except Error as exc:
        _bail(exc)


@main.command("search-cert")
@click.option("--kind", type=click.Choice(["toeplitz", "morse"]), required=True)
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--kmax", default=2, show_default=True, help="Largest scale tried.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def search_cert(kind: str, spec: str, kmax: int, as_json: bool) -> None:
    """Search for the least accepted certificate up to scale kmax."""
    try:
        sub = parse_substitution(spec)
        if kind == "toeplitz":
            cert = search_toeplitz_certificate(sub, kmax)
        else:
            cert = search_morse_certificate(sub, kmax)
        if as_json:
            _emit(
                {
                    "found": cert is not None,
                    "certificate": certificate_to_json(cert) if cert else None,
                }
            )
        elif cert is None:
            click.echo("none")
        else:
            click.echo(json.dumps(certificate_to_json(cert), sort_keys=True))
        sys.exit(0 if cert is not None else 1)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--kind", type=click.Choice(["toeplitz", "morse"]), default=None)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def analyze(spec: str, kind: str | None, as_json: bool) -> None:
    """Report graph structure, primitivity, and conjugacy preconditions."""
    try:
        sub = parse_substitution(spec)
        graph = build_graph(sub)
        connected = graph.is_strongly_connected()
        payload = {
            "substitution": sub.spec(),
            "alphabet": [sub.alphabet.name(a) for a in range(sub.alphabet.size)],
            "alphabet_size": sub.alphabet.size,
            "length": sub.length,
            "length_power_of_two": sub.length & (sub.length - 1) == 0,
            "injective": sub.is_injective(),
            "strongly_connected": connected,
            "period": graph.period() if connected else None,
            "period_classes": (
                [
                    sorted(sub.alphabet.name(v) for v in cls)
                    for cls in graph.period_classes()
                ]
                if connected
                else None
            ),
            "primitive": graph.is_primitive(),
            "primitive_by_powers": graph.is_primitive_by_powers(),
        }
        status = 0
        if kind is not None:
            report = necessary_conditions(kind, sub)
            payload["kind"] = kind
            payload["necessary"] = {
                "injective": report.injective,
                "primitive": report.primitive,
                "length_power_of_two": report.length_power_of_two,
                "alphabet_bound_ok": report.alphabet_bound_ok,
                "all_pass": report.all_pass,
            }
            status = 0 if report.all_pass else 1
        if as_json:
            _emit(payload)
        else:
            for key, value in payload.items():
                click.echo(f"{key}: {value}")
        sys.exit(status)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--rule", "rule_source", required=True, help="Rule JSON file.")
@click.option("--r", "r", required=True, type=int, help="Image tile length.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def derive(spec: str, rule_source: str, r: int, as_json: bool) -> None:
    """Build the substitution induced by a block rule on an r-fold image."""
    try:
        sub = parse_substitution(spec)
        rule = _load_rule_arg(rule_source)
        derived = derive_substitution(sub, rule, r)
        alphabet = derived.substitution.alphabet
        blocks = {
            alphabet.name(i): block.text for i, block in enumerate(derived.blocks)
        }
        if as_json:
            _emit(
                {
                    "substitution": derived.substitution.spec(),
                    "blocks": blocks,
                    "primitive": derived.primitive,
                }
            )
        else:
            click.echo(derived.substitution.spec())
            for name, block in sorted(blocks.items()):
                click.echo(f"  {name} = {block}")
            click.echo(f"primitive: {derived.primitive}")
        sys.exit(0 if derived.primitive else 1)
    except Error as exc:
        _bail(exc)


@main.command()
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--n", "n", required=True, type=int, help="Block length tested.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def witness(spec: str, n: int, as_json: bool) -> None:
    """Show that the substitution maps its language properly into itself."""
    try:
        sub = parse_substitution(spec)
        report = self_similarity_witness(sub, n)
        payload = {
            "n": report.n,
            "image_count": report.image_count,
            "block_count": report.block_count,
            "contained": report.contained,
            "proper": report.proper,
            "unique_phase": report.unique_phase,
        }
        if as_json:
            _emit(payload)
        else:
            for key, value in payload.items():
                click.echo(f"{key}: {value}")
        sys.exit(0 if report.proper and report.unique_phase else 1)
    except Error as exc:
        _bail(exc)


if __name__ == "__main__":
    main()
