"""Census cross-check on every primitive substitution of length 2 on two
and three letters (55 classes) and of length 4 on two letters (119
classes), one per class under renaming of letters.

sigma, sigma**2 and a renaming of sigma generate the same system up to the
names of its letters, so a search must find a certificate at the same least
k on all three, or none on any; on the length-4 family sigma**2 has length
16 and is left out.  Every certificate found verifies at four times the
default radius.  The found sets are frozen in ``FOUND`` and ``FOUND_4``: a
change to them is a change in what the engine decides.  Every class's
languages up to n = 64 equal the covering-word read of the test oracle.
"""

import itertools

import pytest

import substitution_oracle
from morsetoeplitz import (
    Alphabet,
    Substitution,
    Word,
    build_graph,
    search_morse_certificate,
    search_toeplitz_certificate,
    verify_morse_certificate,
    verify_toeplitz_certificate,
)

KMAX = 3

KINDS = {
    "toeplitz": (search_toeplitz_certificate, verify_toeplitz_certificate),
    "morse": (search_morse_certificate, verify_morse_certificate),
}

#: The least certificate of each class that has one at kmax 3, as (k, blocks).
FOUND = {
    "toeplitz": {
        "0->01;1->00": (0, ("0", "1")),
        "0->10;1->00": (0, ("0", "1")),
        "0->01;1->02;2->01": (1, ("01", "02")),
        "0->01;1->20;2->01": (1, ("01", "20")),
        "0->01;1->22;2->01": (1, ("01", "22")),
        "0->10;1->02;2->10": (1, ("10", "02")),
        "0->10;1->20;2->10": (1, ("01", "02")),
        "0->10;1->22;2->10": (1, ("10", "22")),
        "0->12;1->02;2->01": (1, ("20", "11")),
    },
    "morse": {
        "0->01;1->10": (0, ("0", "1", "0", "1")),
        "0->10;1->01": (0, ("0", "1", "0", "1")),
        "0->01;1->12;2->01": (1, ("01", "12", "01", "12")),
        "0->01;1->20;2->10": (0, ("0", "1", "2", "0")),
        "0->10;1->02;2->01": (0, ("0", "1", "0", "2")),
        "0->10;1->02;2->02": (1, ("00", "21", "01", "20")),
    },
}

FOUND_4 = {
    "toeplitz": {
        "0->0001;1->0101": (0, ("0", "1")),
        "0->0010;1->1010": (0, ("0", "1")),
        "0->0100;1->0101": (0, ("0", "1")),
        "0->0101;1->0111": (0, ("1", "0")),
    },
    "morse": {
        "0->0110;1->1001": (0, ("0", "1", "0", "1")),
        "0->1001;1->0110": (0, ("0", "1", "0", "1")),
    },
}


def renamed(images, perm):
    """Images of perm o sigma o perm**-1: letter perm[a] maps to the renamed
    image of a."""
    out = [()] * len(images)
    for a, image in enumerate(images):
        out[perm[a]] = tuple(perm[x] for x in image)
    return tuple(out)


def substitution(images):
    alphabet = Alphabet(tuple(str(a) for a in range(len(images))))
    return Substitution(alphabet, tuple(Word(alphabet, bytes(w)) for w in images))


def census(sizes, length):
    """The least image tuple of each renaming class, where primitive."""
    subs = []
    for n in sizes:
        perms = list(itertools.permutations(range(n)))
        blocks = list(itertools.product(range(n), repeat=length))
        for images in itertools.product(blocks, repeat=n):
            if images == min(renamed(images, p) for p in perms):
                sub = substitution(images)
                if build_graph(sub).is_primitive():
                    subs.append(sub)
    return subs


CENSUS = census((2, 3), 2)
CENSUS_4 = census((2,), 4)


def cyclic_renaming(sub):
    n = sub.alphabet.size
    images = tuple(tuple(w.letters) for w in sub.images)
    return substitution(renamed(images, [(a + 1) % n for a in range(n)]))


def test_census_holds_55_classes():
    assert len(CENSUS) == 55


def test_census_of_length_4_holds_119_classes():
    assert len(CENSUS_4) == 119


def agreeing_finds(kind, subs, others):
    """The least certificate of each system in subs, as (k, blocks), after
    checking that the search agrees on each of others(sub)."""
    search, verify = KINDS[kind]
    found = {}
    for sub in subs:
        cert = search(sub, KMAX)
        for other in others(sub):
            other_cert = search(other, KMAX)
            if cert is None:
                assert other_cert is None, (sub.spec(), other.spec())
            else:
                assert other_cert is not None, (sub.spec(), other.spec())
                assert other_cert.k == cert.k, (sub.spec(), other.spec())
        if cert is not None:
            assert verify(sub, cert, 4 * 32 * cert.span).accepted, sub.spec()
            found[sub.spec()] = (cert.k, tuple(b.text for b in cert.blocks))
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_searches_agree_across_each_class(kind):
    found = agreeing_finds(kind, CENSUS, lambda sub: (sub.power(2), cyclic_renaming(sub)))
    assert found == FOUND[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_length_4_searches_agree_across_each_class(kind):
    found = agreeing_finds(kind, CENSUS_4, lambda sub: (cyclic_renaming(sub),))
    assert found == FOUND_4[kind]


def test_languages_agree_with_the_covering_word_read():
    for sub in CENSUS + CENSUS_4:
        for n in range(1, 65):
            expected = substitution_oracle.covering_language(sub, n)
            assert sub.language(n) == expected, (sub.spec(), n)
