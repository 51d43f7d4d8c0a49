"""Covering-word verification and derived-candidate searches against the
block-by-block and enumerate-then-verify oracles in ``conjugacy_oracle``."""

import pickle
import random
import re
import sys
import threading
import tracemalloc
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

import conjugacy_oracle as oracle
import substitution_oracle
import test_census
from morsetoeplitz import conjugacy, patterns, substitution
from morsetoeplitz import (
    BINARY,
    MORSE,
    TOEPLITZ,
    Alphabet,
    CapacityError,
    ExplicitSource,
    MorseCertificate,
    Seed,
    Substitution,
    ToeplitzCertificate,
    Word,
    language_brute,
    minimal_seed_period,
    parse_substitution,
    search_morse_certificate,
    search_toeplitz_certificate,
    system_seeds,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)
from morsetoeplitz.conjugacy import (
    SubstitutionSource,
    _MORSE,
    _TOEPLITZ,
    _candidates,
    parse_phases,
)
from morsetoeplitz.errors import InsufficientWindowError
from morsetoeplitz.substitution import _covering_words, _Levels
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
    "morse^3": MORSE.power(3),
    "morse 4-uniform": parse_substitution("0->0110;1->1001"),
    # primitive, with letters 0 and 2 sharing the image 01
    "shared image": parse_substitution("0->01;1->02;2->01"),
}

@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_pair_closure_is_the_two_block_language(name):
    sub = SYSTEMS[name]
    if sub._primitive:
        assert sub._pairs == {w.letters for w in language_brute(sub, 2)}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_seeds_agree_with_the_cycle_oracle(name):
    sub = SYSTEMS[name]
    imgs = [im.letters for im in sub.images]
    assert minimal_seed_period(sub) == substitution_oracle.least_seed_period(imgs)
    if sub._primitive:
        pairs = {tuple(w.letters) for w in language_brute(sub, 2)}
        want = substitution_oracle.system_seeds(imgs, pairs)
        assert [(s.left, s.right, s.period) for s in system_seeds(sub)] == want


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


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["morse window"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_searches_agree(name, kind):
    """The 32-letter Morse window has no blocks: both searches draw from its
    tiles, and find (3, 00101100, 11010011) and (0, 0, 1, 0, 1) there."""
    fast = {"toeplitz": search_toeplitz_certificate, "morse": search_morse_certificate}
    slow = {
        "toeplitz": oracle.search_toeplitz_certificate,
        "morse": oracle.search_morse_certificate,
    }
    sub = SYSTEMS.get(name) or explicit(MORSE_WINDOW, 16)
    for kmax in (0, 1, 2) if name in SYSTEMS else (3,):
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
    ("toeplitz", explicit("01" * 16, 16), tcert(1, "01", "10"), 16),
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
    # a block of another length is never consulted: radius 16 asks for 32-blocks only
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
    assert verdict.detail.startswith("block:")
    text = verdict.detail.removeprefix("block:")
    assert text in {b.text for b in source.blocks(2 * radius)}


def flipped_morse_windows():
    for pos in range(len(MORSE_WINDOW)):
        data = bytearray(MORSE_WINDOW, "ascii")
        data[pos] ^= 1  # "0" <-> "1"
        yield data.decode()


def test_searches_agree_on_flipped_morse_windows():
    """One flipped letter breaks the Morse window's gap pattern, so most
    candidate carriers meet a gap slot that two tiles claim."""
    for pos, text in enumerate(flipped_morse_windows()):
        source = explicit(text, 16, ["0", "1"])
        fast = outcome(search_morse_certificate, source, 0)
        assert fast == outcome(oracle.search_morse_certificate, source, 0), pos


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


# -- the level view ---------------------------------------------------------

# systems whose spans 2**k are read at a level d >= 1 for k >= 1 (r = 2),
# k >= 2 (r = 4, c = 2 at odd k) or k >= 3 (r = 8, c = 2 at k = 4); the
# Toeplitz words hold 000, so the block 00 sits at two overlapping offsets
# of one level image; the seeds of "period three" have period 3, so -d and
# d differ mod it; "sixteen letters" is an r = 4 system over 16 letters
LEVEL_SYSTEMS = {
    name: SYSTEMS[name]
    for name in (
        "morse",
        "toeplitz",
        "renamed three",
        "shared image",
        "morse^2",
        "toeplitz^2",
        "three^2",
        "morse 4-uniform",
        "morse^3",
    )
}
LEVEL_SYSTEMS["period three"] = parse_substitution("0->12;1->20;2->01")
LETTERS_16 = Alphabet(tuple(chr(0x4E00 + a) for a in range(16)))
LEVEL_SYSTEMS["sixteen letters"] = Substitution(
    LETTERS_16,
    tuple(
        Word(LETTERS_16, bytes((a, (a + 1) % 16, (a + 2) % 16, a))) for a in range(16)
    ),
)


def level_certificates(sub, k):
    """Identity blocks of Morse and Toeplitz over a binary alphabet, the
    least language blocks, and single-letter mutations of each."""
    span = 1 << k
    pairs = []
    if sub.alphabet.size == 2:
        for base in (MORSE, TOEPLITZ):
            pairs.append([Word(sub.alphabet, im) for im in base._iterate(k)])
    blocks = sorted(sub.language(span))
    least = (blocks[:2], blocks[1:3], [blocks[-1], blocks[0]])
    pairs += [p for p in least if len(p) == 2]  # two letters at k = 0: no third
    certs = []
    for c0, c1 in pairs:
        certs.append(ToeplitzCertificate(k, c0, c1))
        certs.append(MorseCertificate(k, c0, c1, c0, c1))
    for cert in list(certs):
        certs.append(next(single_letter_mutations(cert)))
    return certs


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", LEVEL_SYSTEMS)
def test_level_verdicts_agree(name, k):
    sub, span = LEVEL_SYSTEMS[name], 1 << k
    for cert in level_certificates(sub, k):
        kind = "toeplitz" if isinstance(cert, ToeplitzCertificate) else "morse"
        # radii on the r**d grid and off it
        for radius in (3 * span + 1, 4 * span, 7 * span - 1):
            assert_same_verdict(kind, sub, cert, radius)


def fresh(sub):
    """An equal substitution with a cold level view of its own."""
    return Substitution(sub.alphabet, sub.images)


SEARCHES = {"toeplitz": search_toeplitz_certificate, "morse": search_morse_certificate}


def level_requests(sub, seed):
    """Verifications at k <= 4, at the default radius and at radii on the
    r**d grid and off it, and searches to kmax 4, in a shuffled order: the
    windows of both seed parities (d even and odd) come and go."""
    requests = [(kind, None, 4) for kind in SEARCHES]
    for k in range(5):
        span = 1 << k
        for cert in level_certificates(sub, k):
            kind = "toeplitz" if isinstance(cert, ToeplitzCertificate) else "morse"
            for radius in (None, 3 * span + 1, 5 * span):
                requests.append((kind, cert, radius))
    random.Random(seed).shuffle(requests)
    return requests


def answer(sub, request):
    kind, cert, radius = request
    if cert is None:
        return outcome(SEARCHES[kind], sub, radius)
    return fields(KINDS[kind][1](sub, cert, radius))


@pytest.mark.parametrize("name", LEVEL_SYSTEMS)
def test_warm_level_view_answers_as_a_cold_one(name):
    """Every answer on one substitution, whose level view fills as the
    requests come, equals the answer on an equal substitution with a cold
    view, serially and from four threads sharing one view; each key index
    still numbers its keys 0, 1, 2, ..."""
    sub = fresh(LEVEL_SYSTEMS[name])
    requests = level_requests(sub, name)
    cold = [answer(fresh(sub), request) for request in requests]
    assert [answer(sub, request) for request in requests] == cold
    shared, got = fresh(sub), {}

    def run(part):
        for i in part:
            got[i] = answer(shared, requests[i])

    parts = [range(i, len(requests), 4) for i in range(4)]
    threads = [threading.Thread(target=run, args=(part,)) for part in parts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the key-row builds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [got.get(i) for i in range(len(requests))] == cold
    for key, entry in shared._level_view.items():
        if key[0] == "keys":
            assert sorted(entry[0].values()) == list(range(len(entry[0]))), key


def test_level_view_entries_are_replaced_not_changed():
    """A check that keys new level words builds a new key index and row
    set and leaves the pair that another check may still hold as it was,
    so no two keys ever share an id."""
    sub = fresh(MORSE)
    cert = identity("morse", sub, 2)
    assert verify_morse_certificate(sub, cert, 13).accepted
    held = sub._level_view["keys", 1, 2]
    index, rows = dict(held[0]), dict(held[1])
    assert verify_morse_certificate(sub, cert, 300).accepted  # longer windows
    assert held == (index, rows)
    new_index, new_rows = sub._level_view["keys", 1, 2]
    assert new_rows.keys() > rows.keys()
    assert sorted(new_index.values()) == list(range(len(new_index)))


def test_warm_level_view_refuses_as_a_cold_one(monkeypatch):
    """The caps are checked on every call, before the view is read: a cap
    below the covering words' r**10, then below the level windows' r**5,
    refuses a k = 4 check whose words are all held; a scan cap below the
    covering words' 128 tiles at k = 0 refuses their segment scan."""
    sub = parse_substitution("0->01;1->10")
    cert = identity("morse", sub, 4)
    assert verify_morse_certificate(sub, cert).accepted
    for cap, text in ((1 << 9, "2**10 exceeds cap 512"), (16, "2**5 exceeds cap 16")):
        monkeypatch.setattr(substitution, "DEFAULT_MAX_LEN", cap)
        for system in (sub, fresh(sub)):
            with pytest.raises(CapacityError, match=re.escape(f"r**k = {text}")):
                verify_morse_certificate(system, cert)
    monkeypatch.undo()
    cert = identity("toeplitz", TOEPLITZ, 0)
    assert verify_toeplitz_certificate(TOEPLITZ, cert).accepted
    monkeypatch.setattr(patterns, "DEFAULT_SCAN_CAP", 127)
    for system in (TOEPLITZ, fresh(TOEPLITZ)):
        text = "^word of length 128 exceeds scan cap 127$"
        with pytest.raises(CapacityError, match=text):
            verify_toeplitz_certificate(system, cert)


def test_level_view_stays_small():
    """A kmax-14 search leaves level words and key rows only: every scale
    reads the same level words, and no image of sigma**d (2**14 letters a
    letter at k = 14) or tile row is held.  The view is measured as a copy
    rebuilt from its pickle, as tracing the search would take ten times as
    long."""
    sub = fresh(TOEPLITZ)
    assert search_morse_certificate(sub, 14) is None
    data = pickle.dumps(sub._level_view)
    tracemalloc.start()
    try:
        view = pickle.loads(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert view.keys() == sub._level_view.keys()
    assert held < 32 * 2**10


# Length-2 presentations with many letters: 16 letters put the codes of a
# key of 2 level letters at 256, still a byte, and 20 letters at 400.
PRESENTATIONS = {
    "toeplitz 4-block": parse_substitution("a->df;b->df;c->ce;d->ce;e->ab;f->ab"),
    "morse 6-block": parse_substitution(
        "a->fl;b->fm;c->fm;d->gn;e->gn;f->go;g->hp;h->hp;"
        "i->ia;j->ia;k->jb;l->jc;m->jc;n->kd;o->kd;p->ke"
    ),
    "morse 7-block": parse_substitution(
        "a->fp;b->gq;c->gq;d->hr;e->hr;f->is;g->is;h->jt;i->jt;j->jt;"
        "k->ka;l->ka;m->ka;n->lb;o->lb;p->mc;q->mc;r->nd;s->nd;t->oe"
    ),
}
KEY_ROW_SYSTEMS = [
    *test_census.CENSUS, *test_census.CENSUS_4, THREE, *PRESENTATIONS.values()
]


@pytest.mark.parametrize("part", range(4))
def test_key_and_code_rows_match_the_comprehensions(part):
    """On the census, ``three`` and the presentations, at k <= 4: every
    phase's code row for identity, least-block and one-letter-mutated
    certificates equals the code-by-code row; after those verifications and
    searches to kmax 6, every key row the level view holds equals the
    per-position row, replayed in the view's order into a fresh index that
    ends equal to the view's.  A row is bytes exactly when the codes of
    its keys fit a byte."""
    seen = set()  # whether the rows of each key index fit a byte
    for sub in map(fresh, KEY_ROW_SYSTEMS[part::4]):
        source = SubstitutionSource(sub)
        for k in range(5):
            for cert in level_certificates(sub, k):
                kind = _MORSE if isinstance(cert, MorseCertificate) else _TOEPLITZ
                checker = conjugacy._Checker(kind, source, cert.span, 32 * cert.span)
                tiler, rows = checker.tiler, checker.tiler.coder(cert)
                for w in range(len(tiler.words)):
                    assert rows(w) == substitution_oracle.code_rows(tiler, cert, w)
                checker.verdict(cert)
        for search in SEARCHES.values():
            search(sub, 6)
        for key, entry in sub._level_view.items():
            if key[0] == "keys":
                (_, c, width), (index, rows) = key, entry
                replay, fits = {}, sub.alphabet.size**width <= 256
                for level, row in rows.items():
                    assert isinstance(row, bytes) == fits, (sub, key)
                    assert list(row) == substitution_oracle.key_row(replay, level, c, width)
                assert replay == index, (sub, key)
                seen.add(fits)
    wide = PRESENTATIONS["morse 7-block"] in KEY_ROW_SYSTEMS[part::4]
    assert seen == ({True, False} if wide else {True})


def assert_same_rows(source, span, radius, covers, certs):
    """Each word of the level view, its tiles and every phase kept for a
    certificate agree with the oracle ``Slices`` rows of the sampled
    windows and the words ``covers``, mapped through ``_codes``; every
    phase skipped holds no certificate tile, and every phase ``Slices``
    leaves out holds fewer than 3 tiles."""
    labels, images, words = source.level_words(span, radius)
    level = _Levels(images, span, words)
    samples = oracle.sample_windows(source, radius)
    assert labels == [label for label, _ in samples]
    windows = [win for _, win in samples] + [Window(w, 0) for w in covers]
    slices = oracle.Slices(span, windows)
    assert level.lengths == slices.lengths
    for w in range(len(slices.lengths)):
        assert level.letters(w) == slices.letters(w)
        assert [row for row in level.tiles(w) if len(row) >= 3] == slices.tiles(w)
    for cert in certs:
        kept, every = level.coder(cert), slices.coder(cert)
        for w in range(len(slices.lengths)):
            rows = {j: (t0, list(row)) for j, t0, row in kept(w)}
            for j, t0, row in every(w):
                if j in rows:
                    assert rows.pop(j) == (t0, row)
                else:
                    assert not any(row), (cert, w, j)
            assert all(len(row) < 3 for _, row in rows.values()), (cert, w)


# the level systems and "three"; every system is read at d = 0 at k = 0, and
# the r = 4 systems at k = 1
ROW_SYSTEMS = {"three": THREE, **LEVEL_SYSTEMS}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", ROW_SYSTEMS)
def test_level_rows_match_sliced_rows(name, k):
    sub, span = ROW_SYSTEMS[name], 1 << k
    certs = level_certificates(sub, k)
    for radius in (3 * span + 1, 4 * span, 32 * span):
        covers = [Word(sub.alphabet, w) for w in _covering_words(sub, 2 * radius)]
        assert_same_rows(SubstitutionSource(sub), span, radius, covers, certs)


@pytest.mark.parametrize("case", range(len(EXPLICIT_CASES)))
def test_explicit_rows_match_sliced_rows(case):
    """Explicit windows, some shorter than their radius (``110110`` at span 2
    has a phase of 2 tiles), and explicit blocks, each its own word."""
    _, source, cert, radius = EXPLICIT_CASES[case]
    covers = sorted(source.blocks(2 * radius) or ())
    certs = [cert, *single_letter_mutations(cert)]
    assert_same_rows(source, cert.span, radius, covers, certs)


def no_pattern(word):
    return None


# A kind whose scan never finds its pattern lets short and periodic runs
# through to the gap rule, which the overlap and even-square scans refuse.
PATTERN_FREE_KINDS = [
    replace(_TOEPLITZ, pattern=no_pattern),
    replace(_MORSE, pattern=no_pattern),
]


@pytest.mark.parametrize("name", sorted(n for n in SYSTEMS if "swap" not in n))
def test_candidates_agree_with_the_pairwise_loop(name):
    """On the reference windows of every primitive system in SYSTEMS."""
    sub = SYSTEMS[name]
    for k in range(5):
        span = 1 << k
        _, window = oracle.sample_windows(SubstitutionSource(sub), 32 * span)[0]
        rows = oracle.Slices(span, [window]).tiles(0)
        for kind in [_TOEPLITZ, _MORSE] + PATTERN_FREE_KINDS:
            assert _candidates(kind, rows) == oracle.candidates(kind, rows)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_candidates_agree_on_explicit_windows(k):
    """Flipped letters put tiles outside the language into the rows,
    periodic windows give runs of one carrier tile between equal gaps, and
    short windows give runs whose gaps leave a slot open."""
    span = 1 << k
    periodic = ["0" * 32, "01" * 16, "0010" * 8, "0111" * 8, "110" * 11]
    periodic.append("01100000" * 4)  # the gap tile 0000 is no Morse block
    short = ["010", "0110", "01101", "0110100", "011010011", "00101000"]
    for text in [*flipped_morse_windows(), *periodic, *short]:
        window = Window(BINARY.word(text), len(text) // 2)
        rows = oracle.Slices(span, [window]).tiles(0)
        for kind in [_TOEPLITZ, _MORSE] + PATTERN_FREE_KINDS:
            assert _candidates(kind, rows) == oracle.candidates(kind, rows)


def test_level_view_refuses_what_the_words_would():
    """At k = 15 and 16 the sampled windows fit, and the covering words
    sigma**m(ab) of the 2R-blocks, 2R = 2**(k + 6), are over the power cap."""
    cases = [
        (16, "r**k = 2**22 exceeds cap 1048576"),
        (15, "r**k = 2**21 exceeds cap 1048576"),
    ]
    for k, text in cases:
        with pytest.raises(CapacityError) as err:
            verify_morse_certificate(MORSE, identity("morse", MORSE, k))
        assert str(err.value) == text


def test_morse_identity_slices_no_word(monkeypatch):
    """Identity certificates of Morse and Toeplitz pass every 2R-block by
    its run of certificate tiles: no block is evaluated on its own, while
    the explicit block rejection evaluates its failing block."""
    labels = []

    def counted(kind, cert, phases, label):
        labels.append(label)
        return evaluate(kind, cert, phases, label)

    evaluate = conjugacy._evaluate
    monkeypatch.setattr(conjugacy, "_evaluate", counted)
    for k in (1, 2, 3, 4):
        assert verify_morse_certificate(MORSE, identity("morse", MORSE, k)).accepted
        cert = identity("toeplitz", TOEPLITZ, k)
        assert verify_toeplitz_certificate(TOEPLITZ, cert).accepted
    assert labels.count("") == 0
    _, source, cert, radius = EXPLICIT_CASES[-1]
    assert not verify_toeplitz_certificate(source, cert, radius).accepted
    assert labels.count("") >= 1


# -- the block-stage interval pass ------------------------------------------


@dataclass
class SliceSource:
    """A source of identity images whose 2R-blocks are the factors of a few
    long slices, tiled as words of their own: one passing sample window,
    then every slice."""

    alphabet: Alphabet
    window: Window
    slices: tuple[bytes, ...]

    def blocks(self, n):
        return frozenset(
            Word(self.alphabet, s[i : i + n])
            for s in self.slices
            for i in range(len(s) - n + 1)
        )

    def level_words(self, span, radius):
        w = self.window
        words = [(w.word.letters, w.start, w.start, w.stop)]
        words += [(s, 0, 0, len(s)) for s in self.slices]
        images = tuple(bytes((a,)) for a in range(self.alphabet.size))
        return ["window"], images, words


def flipped_slice_cases(count, seed):
    """Identity certificates at k <= 2 with a passing sample window, and
    1-3 slices of 2R to 2R + 300 letters of the same system with up to 3
    letters flipped each."""
    rng = random.Random(seed)
    for _ in range(count):
        kind, sub = rng.choice([("morse", MORSE), ("toeplitz", TOEPLITZ)])
        k = rng.randrange(3)
        radius = (3 + rng.randrange(4)) << k
        text = sub.periodic_window(Seed(0, 0, 2), 1 << 12).word.letters
        slices = []
        for _ in range(1 + rng.randrange(3)):
            size = 2 * radius + rng.randrange(301)
            at = rng.randrange(len(text) - size)
            data = bytearray(text[at : at + size])
            for _ in range(rng.randrange(4)):
                data[rng.randrange(size)] ^= 1
            slices.append(bytes(data))
        window = sub.periodic_window(Seed(0, 0, 2), radius)
        source = SliceSource(BINARY, window, tuple(slices))
        yield kind, source, identity(kind, sub, k), radius


@pytest.mark.parametrize("seed", range(4))
def test_interval_pass_agrees_with_every_window(seed):
    """The block stage passes a 2R-window lying in exactly one pattern-free
    run and parses the rest; the oracle parses every 2R-block and names the
    least that fails."""
    for case, (kind, source, cert, radius) in enumerate(flipped_slice_cases(100, seed)):
        verdict = KINDS[kind][1](source, cert, radius)
        assert verdict.accepted or verdict.detail.startswith("block:"), case
        assert fields(verdict) == fields(KINDS[kind][2](source, cert, radius)), case


# -- the segment kernel against the tile-by-tile walk ------------------------


def assert_kernel_rows(kind, rows, needs):
    """The kernel yields exactly the walk's segments of ``need`` tiles or
    more, in the walk's order, for every need given."""
    for row in rows:
        walked = list(oracle.segments(kind, row))
        for need in needs(row):
            long = [seg for seg in walked if seg[1] - seg[0] >= need]
            kernel = conjugacy._segments(kind, bytes(row), need)
            assert list(kernel) == long, (row, need)


@pytest.mark.parametrize("kind", [_TOEPLITZ, _MORSE], ids=["toeplitz", "morse"])
def test_segment_kernel_on_random_rows(kind):
    """Rows of codes 0-15 of up to 40 tiles, most of them carriers so that
    runs grow long, at every need from 2 past the row's length."""
    rng = random.Random(37)
    rows = [b"", b"\x01", b"\x02\x01", bytes(range(16))]
    for _ in range(1500):
        weights = rng.choice([(1,) * 16, (1, 8, 8, 4) * 4])
        rows.append(bytes(rng.choices(range(16), weights, k=rng.randrange(41))))
    assert_kernel_rows(kind, rows, lambda row: range(2, len(row) + 4))


def census_rows(sub, kind, k):
    """Every row of tile codes of every word that verifying the candidates
    of a search at scale k tiles."""
    span = 1 << k
    checker = conjugacy._Checker(kind, SubstitutionSource(sub), span, 32 * span)
    for blocks in sorted(_candidates(kind, checker.tiler.tiles(0))):
        cert = kind.certificate(k, *(Word(sub.alphabet, b) for b in blocks))
        rows = checker.tiler.coder(cert)
        for w in range(len(checker.tiler.lengths)):
            yield from (row for _, _, row in rows(w))


@pytest.mark.parametrize("kind", [_TOEPLITZ, _MORSE], ids=["toeplitz", "morse"])
def test_segment_kernel_on_census_rows(kind):
    """Every row the census's candidate certificates produce at k <= 2, at
    small needs and at the block stage's own, 2R = 64*span."""
    for sub in test_census.CENSUS + test_census.CENSUS_4:
        for k in range(3):
            needs = sorted({2, 3, 4, 5, -(-(64 * (1 << k) + 2) // (1 << k)) - 2})
            assert_kernel_rows(kind, census_rows(sub, kind, k), lambda row: needs)


# -- the parse conditions against the carrier-by-carrier walk ----------------


def random_code_rows(count, seed):
    """Rows of codes 0-15 of 1-40 tiles: uniform, mostly carriers, or a
    slice of the Morse or Toeplitz word in the codes of its identity
    certificate (5 = C0 and C0', 10 = C1 and C1'; 1 = C0, 2 = C1) with up to
    two codes redrawn, so that runs reach the pattern and gap checks."""
    rng = random.Random(seed)
    planted = [(5, MORSE), (1, TOEPLITZ)]
    for _ in range(count):
        size, style = rng.randrange(1, 41), rng.randrange(3)
        if style < 2:
            weights = (1,) * 16 if style == 0 else (1, 8, 8, 4) * 4
            yield bytes(rng.choices(range(16), weights, k=size))
            continue
        zero, sub = rng.choice(planted)
        text = sub.periodic_window(Seed(0, 0, 2), 32).word.letters
        at = rng.randrange(len(text) - size)
        row = bytearray(2 * zero if x else zero for x in text[at : at + size])
        for _ in range(rng.randrange(3)):
            row[rng.randrange(size)] = rng.randrange(16)
        yield bytes(row)


@pytest.mark.parametrize("kind", [_TOEPLITZ, _MORSE], ids=["toeplitz", "morse"])
def test_conditions_kernel_on_random_rows(kind):
    """The link kernel's depth and tokens are the walk's at every carrier
    position of 2,000 rows and past their ends, and the rows reach
    every depth the kind has (Toeplitz has no gap rule)."""
    depths = set()
    for row in random_code_rows(2000, 39):
        for i0 in range(len(row) + kind.stride):
            want = oracle.conditions(kind, row, i0)
            assert conjugacy._conditions(kind, row, i0) == want, (row, i0)
            depths.add(want[0])
    assert depths == ({0, 1, 2, 4} if kind is _TOEPLITZ else {0, 1, 2, 3, 4})


@pytest.mark.parametrize("kind", [_TOEPLITZ, _MORSE], ids=["toeplitz", "morse"])
def test_conditions_kernel_on_census_rows(kind):
    """Every row the census's candidate certificates produce at k <= 2, at
    both carrier parities."""
    for sub in test_census.CENSUS + test_census.CENSUS_4:
        for k in range(3):
            for row in census_rows(sub, kind, k):
                for i0 in range(kind.stride):
                    want = oracle.conditions(kind, row, i0)
                    assert conjugacy._conditions(kind, row, i0) == want, (row, i0)


@pytest.mark.parametrize("seed", range(2))
def test_block_stage_parses_what_the_walk_leaves(seed, monkeypatch):
    """With every segment the walk finds in place of the kernel's long ones,
    the block stage parses the same windows one by one, so the kernel drops
    no segment that holds a 2R-window: the flipped slices and the level
    systems' certificates at radii near three tiles."""
    parsed, evaluate = [], conjugacy._evaluate

    def counted(*args):
        parsed.append(args[3])
        return evaluate(*args)

    monkeypatch.setattr(conjugacy, "_evaluate", counted)
    cases = list(flipped_slice_cases(40, seed))
    for sub in LEVEL_SYSTEMS.values():
        for cert in level_certificates(sub, 1 + seed):
            kind = "toeplitz" if isinstance(cert, ToeplitzCertificate) else "morse"
            cases += [(kind, sub, cert, radius * cert.span) for radius in (3, 4)]

    def answers():
        out = []
        for kind, source, cert, radius in cases:
            parsed.clear()
            out.append((fields(KINDS[kind][1](source, cert, radius)), len(parsed)))
        return out

    kernel = answers()
    assert sum(count for _, count in kernel) > len(cases)
    monkeypatch.setattr(
        conjugacy, "_segments", lambda kind, row, need: oracle.segments(kind, row)
    )
    assert answers() == kernel


# -- parse_phases and desubstitute against the slice oracle ------------------


def letters(size, min_size, max_size):
    letter = st.integers(0, size - 1)
    return st.lists(letter, min_size=min_size, max_size=max_size).map(bytes)


@st.composite
def tiled_windows(draw, alphabet, span, blocks):
    """At most 40 letters: up to a span of stray letters on each side of a
    run of blocks, with perhaps one letter changed, at any origin, 0 and the
    length included.  So some phases tile, and some hold fewer than 3 tiles."""
    size = alphabet.size
    body = b"".join(draw(st.lists(st.sampled_from(blocks), max_size=40 // span)))
    data = bytearray(draw(letters(size, 0, span)) + body + draw(letters(size, 0, span)))
    del data[40:]
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, size - 1))
    origin = draw(st.sampled_from([0, len(data)]) | st.integers(0, len(data)))
    return Window(Word(alphabet, bytes(data)), origin)


def sliced_rows(win, span, index):
    """(phase, start, tokens) of the oracle's runs of at least 3 tiles, when
    every tile is a key of ``index``."""
    return [
        (j, t0, bytes(index[t] for t in tiles))
        for j, t0, tiles in oracle._tile_runs(win, span)
        if all(t in index for t in tiles)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_phases_match_the_slice_oracle(data):
    size, span = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 6))
    alphabet = Alphabet.from_names("0123"[:size])
    block = letters(size, span, span)
    blocks = data.draw(st.lists(block, min_size=2, max_size=5, unique=True))
    win = data.draw(tiled_windows(alphabet, span, blocks))
    words = [Word(alphabet, b) for b in blocks]
    if len(win) < 3 * span:
        with pytest.raises(InsufficientWindowError):
            parse_phases(win, words, span)
        return
    index = {b: i for i, b in enumerate(blocks)}
    got = [(p.phase, p.start, p.tokens.letters) for p in parse_phases(win, words, span)]
    assert got == sliced_rows(win, span, index)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_desubstitute_matches_the_slice_oracle(data):
    """Images of lengths r = 2-6 at k = 0, 1 and r = 2 at k = 2: spans 1-6.
    Images are drawn from a pool, so letters often share one, as in
    0->01;1->10;2->01, and the smaller letter must be recovered."""
    size = data.draw(st.integers(2, 4))
    scales = [(2, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2)]
    r, k = data.draw(st.sampled_from(scales))
    alphabet = Alphabet.from_names("0123"[:size])
    pool = data.draw(st.lists(letters(size, r, r), min_size=1, max_size=size))
    images = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    sub = Substitution(alphabet, tuple(Word(alphabet, im) for im in images))
    iterate = [bytes((a,)) for a in range(size)]
    for _ in range(k):
        iterate = [b"".join(images[a] for a in w) for w in iterate]
    win = data.draw(tiled_windows(alphabet, r**k, sorted(set(iterate))))
    if len(win) < 3 * r**k:
        with pytest.raises(InsufficientWindowError):
            sub.desubstitute(k, win)
        return
    index = {w: iterate.index(w) for w in iterate}
    got = [(j, w.letters) for j, w in sub.desubstitute(k, win)]
    assert got == [(j, tokens) for j, _, tokens in sliced_rows(win, r**k, index)]
