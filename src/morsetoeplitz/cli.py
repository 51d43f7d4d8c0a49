"""Command line front end.

Exit codes: 0 for a positive outcome, 1 for a clean negative one (a
forbidden pattern was found, a certificate was rejected, a search came up
empty, a reported property fails), 2 for malformed input or violated
preconditions.  ``--json`` switches any subcommand to a single JSON
object on stdout; the verdict bit is identical in both formats.

Every subcommand body only parses its arguments, calls the library and
returns ``(status, payload, lines)``; the :func:`command` runner prints the
payload or the lines and exits with the status.  Any exception a body
raises becomes one ``error:`` line on stderr and exit 2, never a traceback.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__
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
from .sliding import apply_code, load_rule, preimage_blocks
from .substitution import Seed, parse_substitution
from .words import Alphabet, BINARY, load_json, parse_window


_RULE_HELP = "Rule JSON file, inline JSON object or 'oxtoby'."
_CERT_HELP = "Certificate JSON file or inline JSON object."


def _word_alphabet(text: str, extra: str = "") -> Alphabet:
    symbols = set(text) | set(extra)
    if symbols <= {"0", "1"}:
        return BINARY
    return Alphabet(tuple(sorted(symbols)))


def _key_lines(payload: dict) -> list[str]:
    return [f"{key}: {value}" for key, value in payload.items()]


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Substitution systems, forbidden patterns, and block conjugacies."""


def command(body):
    """Register ``body`` as a subcommand of ``main`` with a ``--json`` flag.

    ``body`` returns ``(status, payload, lines)``: the exit status, the
    ``--json`` object and the plain-text lines.
    """

    @functools.wraps(body)
    def run(as_json: bool, **kwargs) -> None:
        try:
            status, payload, lines = body(**kwargs)
            if as_json:
                lines = [json.dumps(payload, indent=2, sort_keys=True)]
        except Exception as exc:
            detail = exc if isinstance(exc, Error) else f"{type(exc).__name__}: {exc}"
            click.echo(f"error: {detail}", err=True)
            status, lines = 2, []
        for line in lines:
            click.echo(line)
        sys.exit(status)

    cmd = main.command()(run)
    cmd.params.append(
        click.Option(["--json", "as_json"], is_flag=True, help="Emit JSON.")
    )
    return cmd


@command
@click.option("--sub", "spec", required=True, help="Substitution, e.g. '0->01;1->10'.")
@click.option("--seed", "seed_text", required=True, help="Seed letters 'a.b'.")
@click.option("--period", required=True, type=int, help="Seed period p.")
@click.option("--radius", default=16, show_default=True, help="Letters per side.")
def generate(spec: str, seed_text: str, period: int, radius: int):
    """Print the periodic window grown from a seed."""
    sub = parse_substitution(spec)
    parts = seed_text.split(".")
    if len(parts) != 2 or not all(parts):
        raise Error(f"seed must be 'a.b', got {seed_text!r}")
    seed = Seed(sub.alphabet.index(parts[0]), sub.alphabet.index(parts[1]), period)
    window = sub.periodic_window(seed, radius)
    payload = {
        "window": window.text,
        "seed": {"left": parts[0], "right": parts[1], "period": period},
        "radius": radius,
    }
    return 0, payload, [window.text]


@command
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--n", "n", required=True, type=int, help="Block length.")
def language(spec: str, n: int):
    """List all length-n blocks of the substitution's language."""
    blocks = sorted(b.text for b in parse_substitution(spec).language(n))
    return 0, {"n": n, "count": len(blocks), "blocks": blocks}, blocks


@command
@click.option(
    "--pattern",
    type=click.Choice(["overlap", "toeplitz"]),
    required=True,
    help="overlap scans for BBb; toeplitz scans for even-zero squares BB.",
)
@click.option("--word", "text", required=True, help="Word to scan.")
@click.option("--zero", default="0", show_default=True, help="Even-count letter.")
def check(pattern: str, text: str, zero: str):
    """Scan a word for a forbidden pattern; exit 1 when one is found."""
    if pattern == "overlap":
        hit = find_overlap(_word_alphabet(text).word(text))
    else:
        alphabet = _word_alphabet(text, zero)
        hit = find_even_square(alphabet.word(text), alphabet.index(zero))
    payload = {
        "word": text,
        "pattern": pattern,
        "found": hit is not None,
        "witness": {"start": hit.start, "period": hit.period} if hit else None,
    }
    line = f"{pattern}: start {hit.start} period {hit.period}" if hit else "none"
    return (1 if hit else 0), payload, [line]


@command
@click.option("--rule", "rule_source", required=True, help=_RULE_HELP)
@click.option("--window", "window_text", required=True, help="Window with '.' origin.")
def image(rule_source: str, window_text: str):
    """Apply a sliding block code to a marked window."""
    rule = load_rule(rule_source)
    out = apply_code(rule, parse_window(window_text, rule.input_alphabet))
    return 0, {"input": window_text, "image": out.text}, [out.text]


@command
@click.option("--rule", "rule_source", required=True, help=_RULE_HELP)
@click.option("--word", "text", required=True, help="Image word (no '.').")
def preimage(rule_source: str, text: str):
    """List every block mapping onto the given word under the code."""
    rule = load_rule(rule_source)
    word = rule.output_alphabet.word(text)
    blocks = sorted(b.text for b in preimage_blocks(rule, word))
    return 0, {"word": text, "count": len(blocks), "preimages": blocks}, blocks


@command
@click.option("--cert", "cert_source", required=True, help=_CERT_HELP)
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--radius", default=None, type=int, help="Window radius per side.")
def verify_cert(cert_source: str, spec: str, radius: int | None):
    """Verify a block certificate against a substitution's system."""
    sub = parse_substitution(spec)
    cert = certificate_from_json(load_json(cert_source), sub.alphabet)
    if isinstance(cert, ToeplitzCertificate):
        verdict = verify_toeplitz_certificate(sub, cert, radius)
    else:
        verdict = verify_morse_certificate(sub, cert, radius)
    payload = {
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
    if not verdict.accepted:
        return 1, payload, [f"rejected: {verdict.failure_reason} ({verdict.detail})"]
    lines = ["accepted"]
    for p in verdict.phases:
        lines.append(f"  {p.window}: phase {p.phase} tokens {p.tokens.text}")
    return 0, payload, lines


@command
@click.option("--kind", type=click.Choice(["toeplitz", "morse"]), required=True)
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--kmax", default=2, show_default=True, help="Largest scale tried.")
def search_cert(kind: str, spec: str, kmax: int):
    """Search for the least accepted certificate up to scale kmax."""
    sub = parse_substitution(spec)
    if kind == "toeplitz":
        cert = search_toeplitz_certificate(sub, kmax)
    else:
        cert = search_morse_certificate(sub, kmax)
    found = certificate_to_json(cert) if cert else None
    line = json.dumps(found, sort_keys=True) if cert else "none"
    return (0 if cert else 1), {"found": cert is not None, "certificate": found}, [line]


@command
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--kind", type=click.Choice(["toeplitz", "morse"]), default=None)
def analyze(spec: str, kind: str | None):
    """Report graph structure, primitivity, and conjugacy preconditions."""
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
    return status, payload, _key_lines(payload)


@command
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--rule", "rule_source", required=True, help=_RULE_HELP)
@click.option("--r", "r", required=True, type=int, help="Image tile length.")
def derive(spec: str, rule_source: str, r: int):
    """Build the substitution induced by a block rule on an r-fold image."""
    sub = parse_substitution(spec)
    derived = derive_substitution(sub, load_rule(rule_source), r)
    alphabet = derived.substitution.alphabet
    blocks = {alphabet.name(i): block.text for i, block in enumerate(derived.blocks)}
    payload = {
        "substitution": derived.substitution.spec(),
        "blocks": blocks,
        "primitive": derived.primitive,
    }
    lines = [
        derived.substitution.spec(),
        *(f"  {name} = {block}" for name, block in sorted(blocks.items())),
        f"primitive: {derived.primitive}",
    ]
    return (0 if derived.primitive else 1), payload, lines


@command
@click.option("--sub", "spec", required=True, help="Substitution spec.")
@click.option("--n", "n", required=True, type=int, help="Block length tested.")
def witness(spec: str, n: int):
    """Show that the substitution maps its language properly into itself."""
    report = self_similarity_witness(parse_substitution(spec), n)
    payload = {
        "n": report.n,
        "image_count": report.image_count,
        "block_count": report.block_count,
        "contained": report.contained,
        "proper": report.proper,
        "unique_phase": report.unique_phase,
    }
    status = 0 if report.proper and report.unique_phase else 1
    return status, payload, _key_lines(payload)


if __name__ == "__main__":
    main()
