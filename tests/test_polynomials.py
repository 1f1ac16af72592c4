import itertools
import random

import pytest

from wordeq import (
    GenPoly,
    InputFormatError,
    IntPolynomial,
    LinForm,
    MultiPoly,
    TheoremCheckError,
    Word,
    encode_poly,
    encode_ratfun,
    fine_wilf_check,
    parse_genpoly,
    parse_polynomial,
    parse_word,
    primdiv_check,
    primitive_root,
)
from wordeq.polynomials import cyclotomic, exact_div, x_power_minus_one

import polytext_reference
from ratfun_reference import divides, parse_rational, poly_gcd, power_sum, pseudo_rem, reduce


def P(text):
    return parse_polynomial(text)


class TestIntPolynomial:
    def test_zero_degree_marker(self):
        assert IntPolynomial().degree == -1
        assert IntPolynomial({3: 2}).degree == 3

    def test_no_zero_coefficients_stored(self):
        p = IntPolynomial({0: 1, 2: 0})
        assert p == IntPolynomial({0: 1})

    def test_bool_degrees_and_coefficients_rejected(self):
        # as Word, LengthType and LinForm reject them
        with pytest.raises(ValueError, match="degrees must be nonnegative integers"):
            IntPolynomial({True: 1})
        with pytest.raises(ValueError, match="coefficients must be integers"):
            IntPolynomial({0: True})
        with pytest.raises(ValueError, match="coefficients must be integers"):
            GenPoly(2, [(LinForm((0, 1)), False)])

    def test_arithmetic(self):
        a, b = P("1 + X"), P("1 - X")
        assert a + b == P("2")
        assert a - b == P("2X")
        assert a * b == P("1 - X^2")
        assert -a == P("-1 - X")
        assert a.shift(2) == P("X^2 + X^3")
        assert (a * 3) == P("3 + 3X")

    def test_evaluate(self):
        assert P("1 + 2X + X^2").evaluate(3) == 16

    def test_public_state_is_read_only(self):
        for p in (P("1 + X"), GenPoly(2), MultiPoly(2), encode_ratfun(Word((1, 2)))):
            with pytest.raises(AttributeError):
                p.n = 5
            with pytest.raises(AttributeError):
                p.extra = 1

    def test_render_increasing_degree(self):
        assert P("1 + 2X + X^2 + 2X^3").to_text() == "1 + 2X + X^2 + 2X^3"
        assert (P("X^2") - P("1")).to_text() == "-1 + X^2"
        assert IntPolynomial().to_text() == "0"

    def test_parse_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            p = IntPolynomial({rng.randrange(8): rng.randint(-9, 9) for _ in range(4)})
            assert parse_polynomial(p.to_text()) == p

    def test_exact_division(self):
        a = P("1 - X^2")
        assert exact_div(a, P("1 - X")) == P("1 + X")
        with pytest.raises(ArithmeticError):
            exact_div(P("1 + X^2"), P("1 + X"))

    def test_exact_division_inverts_products(self):
        rng = random.Random(13)
        for _ in range(200):
            b = IntPolynomial({rng.randrange(6): rng.randint(-9, 9) for _ in range(3)})
            c = IntPolynomial({rng.randrange(6): rng.randint(-9, 9) for _ in range(3)})
            if c.is_zero:
                continue
            assert exact_div(b * c, c) == b
            assert divides(c, b * c)

    def test_exact_division_rejects_rational_quotients(self):
        # (1 + X)/(2 + 2X) = 1/2: exact over the rationals, not over the integers
        assert divides(P("2 + 2X"), P("1 + X"))
        with pytest.raises(ArithmeticError):
            exact_div(P("1 + X"), P("2 + 2X"))
        assert not divides(P("2 + X"), P("1 + X"))
        with pytest.raises(ZeroDivisionError):
            exact_div(P("1"), IntPolynomial())

    def test_dense_pseudo_remainder_matches_term_arithmetic(self):
        rng = random.Random(17)
        for _ in range(200):
            a = IntPolynomial({rng.randrange(9): rng.randint(-9, 9) for _ in range(5)})
            b = IntPolynomial({rng.randrange(5): rng.randint(-9, 9) for _ in range(3)})
            if b.is_zero:
                continue
            r = a
            while r.degree >= b.degree:
                r = r * b.leading_coefficient - b.shift(r.degree - b.degree) * r.leading_coefficient
            assert pseudo_rem(a, b) == r


_TEXT_CHARS = list("X^{}+-−0123 1") + ["X1", "X2", "X3", "X4"]


def _poly_text(rng) -> str:
    """A seeded string over the characters of the text format, often but not always well formed."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.2:
            parts.append(rng.choice(_TEXT_CHARS))
            continue
        parts.append(rng.choice(["", "+", "-", "−", " + ", " - "] if parts else ["", "", "+", "-"]))
        parts.append(rng.choice(["", "1", "2", "3", "10", "0"]))
        form = "+".join(rng.choice(["X1", "X2", "2X3", "X4", "0", ""]) for _ in range(rng.randint(1, 2)))
        parts.append("X^{" + form + "}" if rng.random() < 0.4 else rng.choice(["", "X", "X^2", "X^13"]))
    return "".join(parts)


_READERS = {
    "int": (parse_polynomial, polytext_reference.parse_polynomial),
    "gen": (lambda text: parse_genpoly(text, 3), lambda text: polytext_reference.parse_genpoly(text, 3)),
}


def _read(reader, text):
    try:
        return reader(text)
    except InputFormatError:
        return None


class TestTextReader:
    @pytest.mark.parametrize("kind", sorted(_READERS))
    def test_matches_the_reference_reader_on_seeded_strings(self, kind):
        new, old = _READERS[kind]
        rng = random.Random(29)
        read = 0
        for _ in range(20_000):
            text = _poly_text(rng)
            value = _read(new, text)
            assert value == _read(old, text), text
            read += value is not None
        # both outcomes occur often
        assert 1_000 < read < 19_000

    @pytest.mark.parametrize("text, kinds", [
        *[(text, ("int", "gen")) for text in
          ["", " ", "+", "1 +", "X^", "2X3", "X^{X1", "X^{X1}}", "X^{-X1}", "X^{X4}", "1e5"]],
        ("X^{X1}", ("int",)),
        ("X^2", ("gen",)),
    ])
    def test_malformed_text_refused(self, text, kinds):
        for kind in kinds:
            for reader in _READERS[kind]:
                with pytest.raises(InputFormatError):
                    reader(text)


    @pytest.mark.parametrize("text, kinds", [
        ("1" * 5000, ("int", "gen")),
        ("١X", ("int", "gen")),
        ("X^" + "1" * 5000, ("int",)),
        ("X^٢", ("int",)),
        ("X^{" + "1" * 5000 + "X1}", ("gen",)),
        ("X^{X١}", ("gen",)),
    ])
    def test_digit_runs_refused(self, text, kinds):
        # int() takes digits outside ASCII and refuses runs past its digit limit with a plain ValueError
        for kind in kinds:
            with pytest.raises(InputFormatError):
                _READERS[kind][0](text)


class TestCyclotomic:
    def test_orders_dividing_m_multiply_to_x_power_minus_one(self):
        for m in range(1, 61):
            product = IntPolynomial.one()
            for d in range(1, m + 1):
                if m % d == 0:
                    product = product * cyclotomic(d)
            assert product == x_power_minus_one(m)

    def test_power_sum_is_the_product_of_orders_not_dividing_d(self):
        for n in range(2, 31):
            for d in range(1, n):
                if n % d == 0:
                    product = IntPolynomial.one()
                    for e in range(1, n + 1):
                        if n % e == 0 and d % e:
                            product = product * cyclotomic(e)
                    assert product == power_sum(n, d)

    def test_known_values(self):
        assert cyclotomic(1) == P("-1 + X")
        assert cyclotomic(6) == P("1 - X + X^2")
        assert min(c for _, c in cyclotomic(105).terms()) == -2


class TestEncode:
    def test_alternating_word(self):
        assert encode_poly(parse_word("1212")) == P("1 + 2X + X^2 + 2X^3")

    def test_empty_word(self):
        assert encode_poly(Word()) == IntPolynomial()

    def test_single_large_letter(self):
        assert encode_poly(parse_word("[3]")) == P("3")

    def test_injective_on_small_binary_words(self):
        seen = {}
        for k in range(9):
            for tup in itertools.product((1, 2), repeat=k):
                p = encode_poly(Word(tup))
                assert p not in seen, f"collision {tup} vs {seen.get(p)}"
                seen[p] = tup

    def test_power_identity(self):
        # encoding a power factors through the geometric sum of the base
        for k in range(1, 5):
            for size in range(1, 5):
                for tup in itertools.product((1, 2), repeat=size):
                    w = Word(tup)
                    lhs = encode_poly(w * k) * x_power_minus_one(size)
                    rhs = encode_poly(w) * x_power_minus_one(k * size)
                    assert lhs == rhs


class TestRationalEncoding:
    def test_alternating_word_reduces(self):
        # (1 + 2X + X^2 + 2X^3)/(X^4 - 1) cancels the common factor 1 + X^2
        r = encode_ratfun(parse_word("1212"))
        assert r.numerator == P("1 + 2X")
        assert r.denominator == P("-1 + X^2")
        assert r == encode_ratfun(parse_word("12"))

    def test_repeated_letter(self):
        r = encode_ratfun(parse_word("11"))
        assert r.numerator == P("1")
        assert r.denominator == P("-1 + X")

    def test_already_reduced(self):
        r = encode_ratfun(parse_word("12"))
        assert r.numerator == P("1 + 2X")
        assert r.denominator == P("-1 + X^2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_ratfun(Word())

    def test_depends_only_on_root(self):
        for tup in itertools.product((1, 2), repeat=3):
            w = Word(tup)
            for k in range(1, 4):
                assert encode_ratfun(w * k) == encode_ratfun(w)

    def test_cancellation_is_canonical(self):
        rng = random.Random(11)
        one = IntPolynomial.one()
        for _ in range(100):
            a = IntPolynomial({rng.randrange(5): rng.randint(-5, 5) for _ in range(3)})
            b = IntPolynomial({rng.randrange(5): rng.randint(-5, 5) for _ in range(3)})
            if b.is_zero:
                continue
            assert reduce(a * b, b) == reduce(a, one)

    def test_matches_the_gcd_reduction(self):
        # seeded words up to length 200 over 1-4 letters, every other one a proper power
        rng = random.Random(2026)
        for i in range(150):
            m, letters = rng.randint(1, 200), i % 4 + 1
            if i % 2 and m > 1:
                p = rng.choice([d for d in range(1, m) if m % d == 0])
                w = Word([rng.randint(1, letters) for _ in range(p)] * (m // p))
            else:
                w = Word([rng.randint(1, letters) for _ in range(m)])
            r = encode_ratfun(w)
            assert r == reduce(encode_poly(w), x_power_minus_one(m))
            assert r.denominator.leading_coefficient == 1
            assert poly_gcd(r.numerator, r.denominator) == IntPolynomial.one()

    def test_round_trip(self):
        r = encode_ratfun(parse_word("1212"))
        assert parse_rational(r.to_text()) == r


def poly_concat_identity(ws) -> IntPolynomial:
    """Encoding of a concatenation built blockwise; self-checks the result.

    Computes sum_i P(w_i) X^(length of w_1..w_{i-1}) and verifies that it
    equals the direct encoding of the concatenated word.
    """
    total = IntPolynomial()
    offset = 0
    cat = []
    for w in ws:
        total = total + encode_poly(w).shift(offset)
        offset += len(w)
        cat.extend(w)
    direct = encode_poly(Word(cat))
    if total != direct:
        raise TheoremCheckError("blockwise encoding disagrees with direct encoding")
    return total


class TestConcatIdentity:
    def test_blockwise_equals_direct(self):
        w = parse_word("12")
        assert poly_concat_identity([w, w]) == P("1 + 2X + X^2 + 2X^3")

    def test_empty_blocks(self):
        assert poly_concat_identity([Word(), Word()]) == IntPolynomial()

    def test_three_single_letters(self):
        ws = [parse_word("1"), parse_word("2"), parse_word("1")]
        assert poly_concat_identity(ws) == P("1 + 2X + X^2")


class TestPrimdiv:
    def test_primitive_word_clean(self):
        assert primdiv_check(parse_word("12"))

    def test_square_is_divisible(self):
        # (X^4 - 1)/(X^2 - 1) = 1 + X^2 divides 1 + 2X + X^2 + 2X^3
        assert divides(power_sum(4, 2), encode_poly(parse_word("1212")))
        assert not primdiv_check(parse_word("1212"))

    def test_cube_of_letter(self):
        assert divides(power_sum(3, 1), encode_poly(parse_word("111")))
        assert not primdiv_check(parse_word("111"))

    def test_equivalent_to_primitivity_on_small_words(self):
        for k in range(1, 9):
            for tup in itertools.product((1, 2), repeat=k):
                w = Word(tup)
                primitive = len(primitive_root(w)) == len(w)
                assert primdiv_check(w) == primitive

    def test_equivalent_to_primitivity_over_three_letters(self):
        for k in range(1, 9):
            for tup in itertools.product((1, 2, 3), repeat=k):
                w = Word(tup)
                assert primdiv_check(w) == (len(primitive_root(w)) == len(w))


class TestPolyGcd:
    def test_cyclotomic_pair(self):
        assert poly_gcd(x_power_minus_one(2), x_power_minus_one(3)) == P("-1 + X")

    def test_zero_operand(self):
        p = P("2 - 2X^2")
        assert poly_gcd(IntPolynomial(), p) == P("-1 + X^2")
        assert poly_gcd(IntPolynomial(), IntPolynomial()) == IntPolynomial()

    def test_equal_operands(self):
        p = P("1 + X^2")
        assert poly_gcd(p, p) == p

    def test_divides_both(self):
        rng = random.Random(3)
        for _ in range(100):
            a = IntPolynomial({rng.randrange(5): rng.randint(-4, 4) for _ in range(3)})
            b = IntPolynomial({rng.randrange(5): rng.randint(-4, 4) for _ in range(3)})
            g = poly_gcd(a, b)
            if g.is_zero:
                assert a.is_zero and b.is_zero
                continue
            assert divides(g, a) and divides(g, b)
            assert poly_gcd(a, b) == poly_gcd(b, a)
            assert g.leading_coefficient > 0


class TestFineWilf:
    def test_same_root_premise_holds(self):
        v = fine_wilf_check(parse_word("12"), parse_word("1212"), 4)
        assert v.premise_holds and v.roots_equal

    def test_agreement_below_bound(self):
        v = fine_wilf_check(parse_word("12"), parse_word("121"), 3)
        assert v.bound == 4
        assert v.agreement and not v.premise_holds and not v.roots_equal

    def test_zero_prefix(self):
        v = fine_wilf_check(parse_word("1"), parse_word("2"), 0)
        assert not v.premise_holds and not v.roots_equal

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fine_wilf_check(Word(), parse_word("1"), 1)
