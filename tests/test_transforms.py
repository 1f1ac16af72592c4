import random
import re

import pytest

from wordeq import (
    ElementaryTransformation,
    EnumerationBudget,
    InputFormatError,
    LengthType,
    Morphism,
    SolutionFactorization,
    Word,
    abelian_matrix,
    combinatorial_rank,
    encode_poly,
    enumerate_solutions,
    factorize_solution,
    parse_word,
    position_matrix,
    rank_polymatrix,
    verify_composition_identities,
)
from wordeq.words import default_names

from conftest import eq1, morphism


CYCLE = eq1("x1 x2 x3 = x3 x1 x2")
SWAP = eq1("x1 x2 = x2 x1")


_STEP_RE = re.compile(r"^(regular|singular)\s+(\S+)<-(\S+?)(?:\s+(\S+))?$")


def parse_factorization(text: str, n: int, names: list[str] | None = None) -> SolutionFactorization:
    """Parse the script rendering produced by SolutionFactorization.to_text."""
    names = names or default_names(n)
    index = {name: i + 1 for i, name in enumerate(names)}
    erased: list[int] = []
    steps: list[ElementaryTransformation] = []
    theta: Morphism | None = None
    for part in (p.strip() for p in text.split(";")):
        if not part:
            continue
        if part.startswith("erase "):
            name = part[len("erase ") :].strip()
            if name not in index:
                raise InputFormatError(f"unknown name {name!r} in erase clause")
            erased.append(index[name])
        elif part.startswith("theta:"):
            entries = {}
            for item in part[len("theta:") :].split(","):
                left, _, right = item.partition("=")
                name = left.strip()
                if name not in index:
                    raise InputFormatError(f"unknown name {name!r} in theta clause")
                entries[index[name]] = parse_word(right.strip())
            if sorted(entries) != list(range(1, n + 1)):
                raise InputFormatError("theta must define every unknown")
            theta = Morphism(entries[i] for i in range(1, n + 1))
        else:
            m = _STEP_RE.match(part)
            if not m:
                raise InputFormatError(f"cannot parse factorization step {part!r}")
            kind, target, source, trailer = m.groups()
            if target not in index or source not in index:
                raise InputFormatError(f"unknown name in step {part!r}")
            regular = kind == "regular"
            if regular and trailer != target:
                raise InputFormatError(f"malformed regular step {part!r}")
            steps.append(
                ElementaryTransformation(index[target], index[source], regular=regular)
            )
    if theta is None:
        raise InputFormatError("factorization script lacks a theta clause")
    return SolutionFactorization(n=n, erased=tuple(sorted(erased)), steps=tuple(steps), theta=theta)


class TestElementaryTransformation:
    def test_regular_endo(self):
        phi = ElementaryTransformation(target=1, source=2, regular=True)
        assert phi.as_endo(3) == ((2, 1), (2,), (3,))

    def test_singular_endo(self):
        phi = ElementaryTransformation(target=1, source=2, regular=False)
        assert phi.as_endo(3) == ((2,), (2,), (3,))

    def test_same_unknown_rejected(self):
        with pytest.raises(ValueError):
            ElementaryTransformation(target=1, source=1, regular=True)


class TestFactorize:
    def test_equal_images_singular_step(self):
        f = factorize_solution(SWAP, morphism((1,), (1,)))
        assert f.s == 0 and f.t == 1
        assert f.rank_bound == 1
        assert [st.kind for st in f.steps] == ["singular"]
        assert f.steps[0].target == 2 and f.steps[0].source == 1
        assert [w.to_text() for w in f.theta.images] == ["1", "1"]

    def test_erased_unknown(self):
        f = factorize_solution(SWAP, morphism((), (2,)))
        assert f.erased == (1,)
        assert f.s == 1 and f.t == 0
        assert f.rank_bound == 1
        assert f.theta.images[1].to_text() == "2"
        assert f.theta.is_nonerasing

    def test_cycle_solution(self):
        h = morphism((1,), (2,), (1, 2))
        f = factorize_solution(CYCLE, h)
        assert f.s == 0 and f.t == 1
        assert f.rank_bound == 2
        assert f.recompose() == h
        inter = f.intermediate()
        assert inter.apply(CYCLE.lhs) == inter.apply(CYCLE.rhs)

    def test_non_solution_rejected(self):
        with pytest.raises(ValueError):
            factorize_solution(SWAP, morphism((1,), (2,)))

    @pytest.mark.parametrize(
        "eq_text",
        ["x1 x2 = x2 x1", "x1 x2 x3 = x3 x1 x2", "x1 x1 x2 = x2 x1 x1"],
    )
    def test_recomposition_over_enumerated_solutions(self, eq_text):
        eq = eq1(eq_text)
        budget = EnumerationBudget((1, 2), 6)
        for h in enumerate_solutions([eq], budget):
            f = factorize_solution(eq, h)
            assert f.recompose() == h
            assert f.theta.is_nonerasing
            inter = f.intermediate()
            assert inter.apply(eq.lhs) == inter.apply(eq.rhs)
            assert combinatorial_rank(h) <= f.rank_bound

    def test_script_round_trip(self):
        h = morphism((1,), (2,), (1, 2))
        f = factorize_solution(CYCLE, h)
        text = f.to_text()
        again = parse_factorization(text, 3)
        assert again == f
        assert again.recompose() == h

    def test_script_round_trip_with_erasure(self):
        h = morphism((), (2, 2))
        f = factorize_solution(SWAP, h)
        assert "erase x1" in f.to_text()
        assert parse_factorization(f.to_text(), 2) == f

    def test_script_round_trip_over_enumerated_solutions(self):
        eq = eq1("x1 x2 x3 = x3 x1 x2")
        for h in enumerate_solutions([eq], EnumerationBudget((1, 2), 4)):
            f = factorize_solution(eq, h)
            assert parse_factorization(f.to_text(), 3) == f


class TestAbelianMatrix:
    def test_regular(self):
        phi = ElementaryTransformation(target=1, source=2, regular=True)
        a = abelian_matrix(phi.as_endo(3))
        assert a.entries == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert a.rank() == 3

    def test_singular(self):
        phi = ElementaryTransformation(target=1, source=2, regular=False)
        a = abelian_matrix(phi.as_endo(3))
        assert a.entries == ((0, 1, 0), (0, 1, 0), (0, 0, 1))
        assert a.rank() == 2

    def test_identity(self):
        a = abelian_matrix(Morphism.identity(3))
        assert a.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestPositionMatrix:
    def test_regular_row(self):
        phi = ElementaryTransformation(target=1, source=2, regular=True)
        b = position_matrix(phi.as_endo(3), LengthType((5, 7, 11)))
        assert b.entries[0][0].to_text() == "X^7"
        assert b.entries[0][1].to_text() == "1"
        assert b.entries[0][2].is_zero
        assert b.entries[1] == (encode_poly(Word()), b.entries[1][1], encode_poly(Word()))
        assert rank_polymatrix(b) == 3

    def test_singular_row(self):
        phi = ElementaryTransformation(target=1, source=2, regular=False)
        b = position_matrix(phi.as_endo(3), LengthType((5, 7, 11)))
        assert [p.to_text() for p in b.entries[0]] == ["0", "1", "0"]
        assert rank_polymatrix(b) == 2

    def test_identity(self):
        b = position_matrix(Morphism.identity(3), LengthType((2, 3, 4)))
        for i in range(3):
            for j in range(3):
                assert b.entries[i][j].to_text() == ("1" if i == j else "0")

    def test_specializes_to_abelian_at_one(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 4)
            endo = tuple(
                tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))) for _ in range(n)
            )
            lt = LengthType(tuple(rng.randint(0, 4) for _ in range(n)))
            b = position_matrix(endo, lt)
            assert b.evaluate(1) == abelian_matrix(endo).entries


def _random_chain(rng, n, steps):
    chain = []
    for _ in range(steps):
        t = rng.randint(1, n)
        s = rng.choice([i for i in range(1, n + 1) if i != t])
        chain.append(ElementaryTransformation(t, s, regular=rng.random() < 0.7))
    return chain


class TestCompositionIdentities:
    def test_regular_step_with_two_letters(self):
        phi = ElementaryTransformation(target=1, source=2, regular=True)
        g = morphism((1,), (2,))
        report = verify_composition_identities(phi.as_endo(2), g)
        assert report["checks_passed"]
        assert report["length_type"] == [2, 1]
        # direct expansion: image of x1 becomes 21, encoded 2 + X
        assert g.compose(phi.as_endo(2)).images[0].to_text() == "21"

    def test_identity_endo(self):
        g = morphism((1, 2), (2,))
        assert verify_composition_identities(Morphism.identity(2), g)["checks_passed"]

    def test_erasing_endo(self):
        alpha = ((), (2,))
        g = morphism((1,), (2, 1))
        report = verify_composition_identities(alpha, g)
        assert report["checks_passed"]
        assert report["length_type"][0] == 0

    def test_multi_step_chain_identity(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(2, 3)
            steps = _random_chain(rng, n, rng.randint(1, 4))
            g = morphism(
                *[tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 3))) for _ in range(n)]
            )
            # composite of the whole chain applied before g
            f = Morphism.identity(n)
            for st in steps:
                f = st.as_endo(n).compose(f)
            composite = g.compose(f)
            # per-step matrices taken at the length type of g composed
            # with all later steps, applied innermost-first
            vec = tuple(encode_poly(w) for w in g.images)
            current = g
            expected = vec
            mats = []
            for st in reversed(steps):
                mats.append(position_matrix(st.as_endo(n), current.length_type()))
                current = current.compose(st.as_endo(n))
            for mat in mats:
                expected = mat.apply(expected)
            assert expected == tuple(encode_poly(w) for w in composite.images)
