import pytest

from wordeq import Equation, Morphism, Word, parse_system


def eqs(text):
    """Equations from a newline-separated block, names discarded."""
    return parse_system(text)[0]


def eq1(text):
    out = eqs(text)
    assert len(out) == 1
    return out[0]


def morphism(*words):
    return Morphism(tuple(Word(tuple(w)) for w in words))


def random_equation(rng, n):
    """An equation over n unknowns with sides of 0 to 4 random unknowns."""
    return Equation(
        tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))),
        tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))),
        n,
    )


@pytest.fixture
def sample_pair():
    """A cyclic-shift equation and a longer companion with shared solutions."""
    return eqs("x1 x2 x3 = x3 x1 x2\nx1 x2 x1 x3 x2 x3 = x3 x1 x3 x2 x1 x2")
