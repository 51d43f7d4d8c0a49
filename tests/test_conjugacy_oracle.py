"""Covering-word verification and derived-candidate searches against the
block-by-block and enumerate-then-verify oracles in ``conjugacy_oracle``."""

import pytest

import conjugacy_oracle as oracle
from morsetoeplitz import (
    BINARY,
    MORSE,
    TOEPLITZ,
    ExplicitSource,
    MorseCertificate,
    Seed,
    ToeplitzCertificate,
    Word,
    parse_substitution,
    search_morse_certificate,
    search_toeplitz_certificate,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)
from morsetoeplitz.words import Window

THREE = parse_substitution("0->12;1->02;2->10")

SYSTEMS = {
    "morse": MORSE,
    "toeplitz": TOEPLITZ,
    "three": THREE,
    "swap": parse_substitution("0->11;1->00"),
    "swap^2": parse_substitution("0->11;1->00").power(2),
    "morse^2": MORSE.power(2),
    "toeplitz^2": TOEPLITZ.power(2),
    "three^2": THREE.power(2),
    "renamed toeplitz": parse_substitution("a->ab;b->aa"),
    "renamed three": parse_substitution("x->yz;y->xz;z->yx"),
}

KINDS = {
    "toeplitz": (
        ToeplitzCertificate,
        verify_toeplitz_certificate,
        oracle.verify_toeplitz_certificate,
    ),
    "morse": (
        MorseCertificate,
        verify_morse_certificate,
        oracle.verify_morse_certificate,
    ),
}


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # both sides must raise the same error
        return type(exc), str(exc)


def fields(verdict):
    return (
        verdict.accepted,
        verdict.failure_reason,
        verdict.detail,
        verdict.phases,
        verdict.kind,
        verdict.radius,
    )


def assert_same_verdict(kind, source, cert, radius=None):
    _, fast, slow = KINDS[kind]
    assert fields(fast(source, cert, radius)) == fields(slow(source, cert, radius))


def identity(kind, sub, k):
    """The identity certificate of the Morse or Toeplitz system at scale k,
    over the alphabet of ``sub`` (a renaming or power of that system)."""
    if k:
        images = sub.power(k).images
    else:
        images = [Word(sub.alphabet, bytes([a])) for a in range(2)]
    blocks = (images[0], images[1]) * (2 if kind == "morse" else 1)
    return KINDS[kind][0](k, *blocks)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_searches_agree(name, kind):
    fast = {"toeplitz": search_toeplitz_certificate, "morse": search_morse_certificate}
    slow = {
        "toeplitz": oracle.search_toeplitz_certificate,
        "morse": oracle.search_morse_certificate,
    }
    for kmax in (0, 1, 2):
        sub = SYSTEMS[name]
        assert outcome(fast[kind], sub, kmax) == outcome(slow[kind], sub, kmax), kmax


# systems whose identity certificates at scale 2**k are the k-th power images
IDENTITY_SYSTEMS = [
    ("morse", MORSE),
    ("morse", parse_substitution("x->xy;y->yx")),
    ("toeplitz", TOEPLITZ),
    ("toeplitz", parse_substitution("a->ab;b->aa")),
]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind, sub", IDENTITY_SYSTEMS)
def test_identity_verdicts_agree(kind, sub, k):
    cert = identity(kind, sub, k)
    assert KINDS[kind][1](sub, cert).accepted
    assert_same_verdict(kind, sub, cert)
    # the identity blocks of the other kind are rejected alike
    other = "toeplitz" if kind == "morse" else "morse"
    assert_same_verdict(other, sub, identity(other, sub, k))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_squared_systems_agree_on_scaled_identities(k):
    for base, kind in ((MORSE, "morse"), (TOEPLITZ, "toeplitz")):
        assert_same_verdict(kind, base.power(2), identity(kind, base, k))
    found = ToeplitzCertificate(1, THREE.alphabet.word("21"), THREE.alphabet.word("00"))
    assert_same_verdict("toeplitz", THREE.power(2), found)


def single_letter_mutations(cert):
    blocks = [cert.c0, cert.c1] + (
        [cert.c0p, cert.c1p] if isinstance(cert, MorseCertificate) else []
    )
    for j, block in enumerate(blocks):
        for pos in range(len(block)):
            for letter in range(block.alphabet.size):
                if letter != block.letters[pos]:
                    data = bytearray(block.letters)
                    data[pos] = letter
                    edited = list(blocks)
                    edited[j] = Word(block.alphabet, bytes(data))
                    yield type(cert)(cert.k, *edited)


@pytest.mark.parametrize("kind, sub", [("morse", MORSE), ("toeplitz", TOEPLITZ)])
def test_single_letter_mutations_agree(kind, sub):
    mutants = list(single_letter_mutations(identity(kind, sub, 2)))
    assert len(mutants) == (16 if kind == "morse" else 8)
    for cert in mutants:
        assert_same_verdict(kind, sub, cert)


def explicit(text, origin, blocks=None):
    by_length = {}
    for block in blocks or ():
        by_length.setdefault(len(block), set()).add(BINARY.word(block))
    frozen = {n: frozenset(b) for n, b in by_length.items()}
    return ExplicitSource(BINARY, (Window(BINARY.word(text), origin),), frozen)


def tcert(k, c0, c1):
    return ToeplitzCertificate(k, BINARY.word(c0), BINARY.word(c1))


def mcert(k, c0, c1, c0p, c1p):
    return MorseCertificate(k, *(BINARY.word(b) for b in (c0, c1, c0p, c1p)))


def blocks_of(sub, n):
    return sorted(b.text for b in sub.language(n))


MORSE_WINDOW = MORSE.periodic_window(Seed(0, 0, 2), 16).word.text
TOEPLITZ_WINDOW = TOEPLITZ.periodic_window(Seed(0, 0, 2), 16).word.text
MORSE_32 = blocks_of(MORSE, 32)
TOEPLITZ_32 = blocks_of(TOEPLITZ, 32)

EXPLICIT_CASES = [
    ("toeplitz", explicit("1" * 32, 16), tcert(1, "01", "00"), 16),
    ("toeplitz", explicit("01" * 16, 16), tcert(1, "01", "00"), 16),
    ("morse", explicit("110110", 3), mcert(1, "01", "10", "01", "10"), 6),
    ("morse", explicit("0" * 10, 5), mcert(1, "01", "10", "00", "11"), 6),
    ("morse", explicit("1" * 32, 16), mcert(0, "0", "1", "0", "1"), 16),
    # explicit blocks: each block is its own covering word
    ("morse", explicit(MORSE_WINDOW, 16, MORSE_32), mcert(0, "0", "1", "0", "1"), 16),
    (
        "morse",
        explicit(MORSE_WINDOW, 16, MORSE_32 + TOEPLITZ_32),
        mcert(0, "0", "1", "0", "1"),
        16,
    ),
    (
        "toeplitz",
        explicit(TOEPLITZ_WINDOW, 16, TOEPLITZ_32 + ["01" * 16]),
        tcert(0, "0", "1"),
        16,
    ),
    # a block of another length is evaluated on its own
    (
        "toeplitz",
        explicit(TOEPLITZ_WINDOW, 16, TOEPLITZ_32 + ["0110"]),
        tcert(0, "0", "1"),
        16,
    ),
    ("toeplitz", explicit(TOEPLITZ_WINDOW, 16, MORSE_32), tcert(0, "0", "1"), 16),
]


@pytest.mark.parametrize("case", range(len(EXPLICIT_CASES)))
def test_explicit_sources_agree(case):
    kind, source, cert, radius = EXPLICIT_CASES[case]
    assert_same_verdict(kind, source, cert, radius)


def test_explicit_block_failures_name_the_least_block():
    kind, source, cert, radius = EXPLICIT_CASES[-1]
    verdict = verify_toeplitz_certificate(source, cert, radius)
    assert not verdict.accepted
    assert verdict.detail.startswith("block[")


@pytest.mark.parametrize("radius", [3, 4, 5, 7])
def test_radii_near_three_tiles_agree(radius):
    """Windows of 6 and 7 tiles hold trimmed Morse runs of 3 tokens, the
    one case where an eligible parse can be short."""
    for k in (0, 1):
        span = 1 << k
        assert_same_verdict("morse", MORSE, identity("morse", MORSE, k), radius * span)
        assert_same_verdict(
            "toeplitz", TOEPLITZ, identity("toeplitz", TOEPLITZ, k), radius * span
        )
