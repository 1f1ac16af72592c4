import operator
import random

import pytest

from wordeq import (
    Equation,
    GenPoly,
    LengthType,
    LinForm,
    iso_multivariate,
    minor_t,
    parse_genpoly,
    parse_polynomial,
    q_polynomial,
    s_polynomial,
)
from wordeq.genpoly import MultiPoly, unit_form, zero_form

from conftest import eq1


CYCLE = eq1("x1 x2 x3 = x3 x1 x2")


def gp(text, n=3):
    return parse_genpoly(text, n)


class TestLinForm:
    def test_order_and_evaluation(self):
        p = LinForm((1, 0, 2))
        q = LinForm((1, 1, 2))
        assert p.le(q) and not q.le(p)
        assert p.evaluate((3, 9, 1)) == 5

    def test_pointwise_consequence(self):
        rng = random.Random(41)
        for _ in range(200):
            a = LinForm(tuple(rng.randint(0, 3) for _ in range(3)))
            b = LinForm(tuple(rng.randint(0, 3) for _ in range(3)))
            if a.le(b):
                point = tuple(rng.randint(0, 9) for _ in range(3))
                assert a.evaluate(point) <= b.evaluate(point)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LinForm((1, -1))

    def test_order_rejects_other_unknown_counts(self):
        with pytest.raises(ValueError, match="different unknown counts"):
            LinForm((1,)).le(LinForm((1, 2)))

    def test_form_is_its_coefficient_tuple(self):
        p = LinForm((1, 0, 2))
        assert isinstance(p, tuple) and p == (1, 0, 2) and hash(p) == hash((1, 0, 2))
        total = p + LinForm((0, 3, 1))
        assert type(total) is LinForm and total == (1, 3, 3)
        # tuple order is the lexicographic order on coefficient vectors
        forms = [LinForm((0, 2)), LinForm((1, 0)), LinForm((0, 0))]
        assert sorted(forms) == [(0, 0), (0, 2), (1, 0)]

    def test_sum_rejects_other_unknown_counts(self):
        with pytest.raises(ValueError, match="different unknown counts"):
            LinForm((1,)) + LinForm((1, 2))

    def test_bool_coefficients_rejected(self):
        for coeffs in ((True, 0), (0, False)):
            with pytest.raises(ValueError, match="form coefficients must be nonnegative integers"):
                LinForm(coeffs)


class TestSPolynomial:
    def test_cycle_first_unknown(self):
        assert s_polynomial(CYCLE, 1) == gp("1 - X^{X3}")

    def test_cycle_second_unknown(self):
        assert s_polynomial(CYCLE, 2) == gp("X^{X1} - X^{X1+X3}")

    def test_cycle_third_unknown(self):
        assert s_polynomial(CYCLE, 3) == gp("-1 + X^{X1+X2}")

    def test_trivial_equation(self):
        eq = eq1("x1 x2 = x1 x2")
        assert s_polynomial(eq, 1).is_zero
        assert s_polynomial(eq, 2).is_zero


class TestSubstitute:
    def test_single_form(self):
        g = gp("1 - X^{X3}")
        assert g.substitute((1, 1, 2)) == parse_polynomial("1 - X^2")

    def test_zero_point_gives_coefficient_sum(self):
        g = gp("2X^{X1} - X^{X2+X3} + 3")
        assert g.substitute((0, 0, 0)) == parse_polynomial("4")

    def test_third_unknown_form(self):
        g = gp("X^{X1+X2} - 1")
        assert g.substitute((1, 1, 2)) == parse_polynomial("-1 + X^2")

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            gp("X^{X1}").substitute((-1, 0, 0))

    def test_matches_fixed_length_coefficients(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(1, 3)
            lhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            rhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 8 - len(lhs))))
            eq = Equation(lhs, rhs, n)
            lt = LengthType(tuple(rng.randint(0, 5) for _ in range(n)))
            for x in range(1, n + 1):
                assert s_polynomial(eq, x).substitute(lt) == q_polynomial(eq, x, lt)

    def test_ring_homomorphism(self):
        rng = random.Random(47)
        for _ in range(100):
            n = 3
            g1 = GenPoly(
                n,
                [
                    (LinForm(tuple(rng.randint(0, 3) for _ in range(n))), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 6))
                ],
            )
            g2 = GenPoly(
                n,
                [
                    (LinForm(tuple(rng.randint(0, 3) for _ in range(n))), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 6))
                ],
            )
            lt = tuple(rng.randint(0, 10) for _ in range(n))
            assert (g1 + g2).substitute(lt) == g1.substitute(lt) + g2.substitute(lt)
            assert (g1 * g2).substitute(lt) == g1.substitute(lt) * g2.substitute(lt)


class TestMinor:
    def test_eight_term_expansion(self, sample_pair):
        e1, e2 = sample_pair
        expected = gp(
            "X^{2X1+X2} + X^{2X1+2X2+X3} + X^{X1+2X3} + X^{X1+X2+X3}"
            " - X^{2X1+X2+X3} - X^{X1+X3} - X^{2X1+2X2} - X^{X1+X2+2X3}"
        )
        assert minor_t(e1, e2, 1, 3) == expected

    def test_identical_rows_vanish(self, sample_pair):
        e1, _ = sample_pair
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                assert minor_t(e1, e1, k, l).is_zero

    def test_trivial_pair(self):
        t1 = eq1("x1 x2 = x1 x2")
        t2 = eq1("x2 x1 x1 = x2 x1 x1")
        assert minor_t(t1, t2, 1, 2).is_zero

    def test_antisymmetry(self, sample_pair):
        e1, e2 = sample_pair
        rng = random.Random(53)
        assert minor_t(e1, e2, 1, 3) == -minor_t(e1, e2, 3, 1)
        for _ in range(20):
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            assert minor_t(e1, e2, k, l) == -minor_t(e1, e2, l, k)


class TestIso:
    def test_single_variable(self):
        g = gp("1 - X^{X3}")
        assert iso_multivariate(g) == MultiPoly(3, {(0, 0, 0): 1, (0, 0, 1): -1})

    def test_exponent_additivity(self):
        g = gp("X^{X1+X2}")
        assert iso_multivariate(g) == MultiPoly(3, {(1, 1, 0): 1})

    def test_zero(self):
        assert iso_multivariate(GenPoly.zero(3)).is_zero

    def test_several_terms_match_plain_tuple_keys(self):
        g = gp("X^{X3} + 2X^{X1+X2} - X^{2X1} + 3 - X^{X2+X3}")
        plain = {(0, 0, 0): 3, (0, 0, 1): 1, (0, 1, 1): -1, (1, 1, 0): 2, (2, 0, 0): -1}
        assert iso_multivariate(g) == MultiPoly(3, plain)
        assert repr(iso_multivariate(g)) == f"MultiPoly({plain!r})"

    def test_products_map_to_products(self):
        rng = random.Random(59)
        for _ in range(100):
            n = 2
            mk = lambda: GenPoly(
                n,
                [
                    (LinForm((rng.randint(0, 2), rng.randint(0, 2))), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 4))
                ],
            )
            g1, g2 = mk(), mk()
            assert iso_multivariate(g1 * g2) == iso_multivariate(g1) * iso_multivariate(g2)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize(
        "a, b",
        [
            (MultiPoly(2, {(1, 0): 1}), MultiPoly(3, {(0, 0, 1): 1})),
            (GenPoly(2, [(LinForm((1, 0)), 1)]), GenPoly(3, [(LinForm((0, 0, 1)), 1)])),
        ],
        ids=["MultiPoly", "GenPoly"],
    )
    def test_operands_over_different_unknown_counts_rejected(self, op, a, b):
        with pytest.raises(ValueError, match="operands live over different unknown counts"):
            op(a, b)

    def test_injective_on_samples(self):
        rng = random.Random(61)
        seen = {}
        for _ in range(200):
            g = GenPoly(
                2,
                [
                    (LinForm((rng.randint(0, 2), rng.randint(0, 2))), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                ],
            )
            image = iso_multivariate(g)
            if image in seen:
                assert seen[image] == g
            seen[image] = g


class TestRendering:
    def test_canonical_order(self):
        g = gp("X^{2X1+X2} - X^{X1+X3}")
        assert g.to_text() == "-X^{X1+X3} + X^{2X1+X2}"

    def test_several_terms_in_lexicographic_exponent_order(self):
        g = gp("X^{X3} + 2X^{X1+X2} - X^{2X1} + 3 - X^{X2+X3}")
        assert g.to_text() == "3 + X^{X3} - X^{X2+X3} + 2X^{X1+X2} - X^{2X1}"

    def test_round_trip(self):
        rng = random.Random(67)
        for _ in range(200):
            g = GenPoly(
                3,
                [
                    (LinForm(tuple(rng.randint(0, 3) for _ in range(3))), rng.randint(-4, 4))
                    for _ in range(rng.randint(0, 5))
                ],
            )
            assert parse_genpoly(g.to_text(), 3) == g

    def test_unit_and_zero_forms(self):
        assert unit_form(3, 2).to_text() == "X2"
        assert zero_form(3).to_text() == "0"
        assert gp("0").is_zero
