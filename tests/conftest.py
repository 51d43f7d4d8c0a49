import pytest

from morsetoeplitz import MORSE, TOEPLITZ, oxtoby_rule, parse_substitution


@pytest.fixture(scope="session")
def morse():
    return MORSE


@pytest.fixture(scope="session")
def toeplitz():
    return TOEPLITZ


@pytest.fixture(scope="session")
def three_letter():
    """The injective length-2 substitution on three letters used throughout."""
    return parse_substitution("0->12;1->02;2->10")


@pytest.fixture(scope="session")
def oxtoby():
    return oxtoby_rule()


@pytest.fixture(scope="session")
def long_period_spec():
    """A primitive injective substitution on 60 letters whose least seed
    period is 60 * 59 = 3540.

    Letter a maps to g(a) (7a + 3 mod 60) f(a): the last-letter map f(a) =
    a + 1 mod 60 is one 60-cycle, and the first-letter map g cycles the
    letters below 59 and sends 59 into that 59-cycle.  So some p-th image
    ends with its own letter only when 60 divides p, and some begins with
    its own letter only when 59 divides p.
    """
    n = 60
    sym = [chr(0x4E00 + a) for a in range(n)]
    first = [(a + 1) % (n - 1) if a < n - 1 else 0 for a in range(n)]
    return ";".join(
        f"{sym[a]}->{sym[first[a]]}{sym[(7 * a + 3) % n]}{sym[(a + 1) % n]}"
        for a in range(n)
    )
