import itertools
import random
from fractions import Fraction

import pytest

from wordeq import (
    Equation,
    InputFormatError,
    IntPolynomial,
    LengthType,
    PolyMatrix,
    Word,
    coefficient_matrix,
    coefficient_row,
    encode_poly,
    parse_polynomial,
    parse_system,
    q_polynomial,
    rank_polymatrix,
    rank_theorem_check,
    residual,
)
from wordeq.equations import rational_matrix_rank
from wordeq.words import MAX_UNKNOWNS
from wordeq.oracle import _solution_set_keys, length_types_up_to

from conftest import eq1, eqs, morphism, random_equation
from rank_reference import rank_by_evaluation, symbolic_rank


def parse_equation(text: str):
    """Parse a single equation; returns (equation, names)."""
    eqs, names = parse_system(text)
    if len(eqs) != 1:
        raise InputFormatError(f"expected one equation, found {len(eqs)}")
    return eqs[0], names


P = parse_polynomial
CYCLE = eq1("x y z = z x y")
L112 = LengthType((1, 1, 2))


class TestEquation:
    def test_trivial_detection(self):
        assert eq1("x y = x y").is_trivial
        assert not CYCLE.is_trivial

    def test_counts_and_length(self):
        assert CYCLE.length == 6
        assert CYCLE.count(1) == 2

    def test_out_of_range_unknown(self):
        with pytest.raises(ValueError):
            Equation((1, 4), (2,), 3)

    def test_zero_unknown_rejected(self):
        with pytest.raises(ValueError):
            Equation((0,), (1,), 1)

    def test_bool_unknown_rejected(self):
        # bool is an int subclass, so True would pass for the unknown 1
        with pytest.raises(ValueError):
            Equation((True, 2), (2, 1), 2)
        assert type(CYCLE.lhs) is Word and CYCLE.rhs == (3, 1, 2)

    def test_solved_by_takes_a_morphism(self):
        h, g = morphism((1,), (2,), (1, 2)), morphism((1,), (2,), (2, 1))
        assert CYCLE.solved_by(h) and not CYCLE.solved_by(g)
        assert CYCLE.solved_by(tuple(h)) and not CYCLE.solved_by(tuple(g))


class TestQPolynomial:
    def test_cycle_equation_values(self):
        assert q_polynomial(CYCLE, 1, L112) == P("1 - X^2")
        assert q_polynomial(CYCLE, 2, L112) == P("X - X^3")
        assert q_polynomial(CYCLE, 3, L112) == P("-1 + X^2")

    def test_identical_sides_cancel(self):
        eq = eq1("x y = x y")
        for x in (1, 2):
            assert q_polynomial(eq, x, LengthType((3, 5))).is_zero

    def test_unknown_out_of_range_rejected(self):
        # the coefficients form a row indexed by x - 1, where 0 would wrap to the last unknown
        for x in (0, 4):
            with pytest.raises(ValueError, match="out of range 1..3"):
                q_polynomial(CYCLE, x, L112)

    def test_value_at_one_is_occurrence_surplus(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 3)
            lhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            rhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            eq = Equation(lhs, rhs, n)
            lt = LengthType(tuple(rng.randint(0, 4) for _ in range(n)))
            for x in range(1, n + 1):
                assert q_polynomial(eq, x, lt).evaluate(1) == lhs.count(x) - rhs.count(x)


class TestTrustedRows:
    def test_coefficient_row_matches_checked_build(self):
        # position_row skips the term check; a checked IntPolynomial per cell must agree
        rng = random.Random(2613)
        for _ in range(200):
            n = rng.randint(1, 5)
            eq = random_equation(rng, n)
            lt = LengthType(tuple(rng.randint(0, 4) for _ in range(n)))
            cells = [[] for _ in range(n)]
            for side, sign in ((eq.lhs, 1), (eq.rhs, -1)):
                for i, y in enumerate(side):
                    cells[y - 1].append((lt.apply(side[:i]), sign))
            assert coefficient_row(eq, lt) == tuple(IntPolynomial(cell) for cell in cells)


class TestResidual:
    def test_cycle_solution(self):
        h = morphism((1,), (2,), (1, 2))
        assert residual(CYCLE, h).is_zero

    def test_swap_non_solution(self):
        eq = eq1("x y = y x")
        h = morphism((1,), (2,))
        # direct difference of encodings: (1 + 2X) - (2 + X) = -1 + X
        assert residual(eq, h) == P("-1 + X")

    def test_trivial_equation(self):
        eq = eq1("x y = x y")
        assert residual(eq, morphism((1, 2), (2,))).is_zero

    def test_equals_difference_of_encodings(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 3)
            lhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            rhs = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 8 - len(lhs))))
            eq = Equation(lhs, rhs, n)
            images = []
            room = 8
            for _ in range(n):
                k = rng.randint(0, room)
                room -= k
                images.append(tuple(rng.choice((1, 2)) for _ in range(k)))
            h = morphism(*images)
            direct = encode_poly(h.apply(lhs)) - encode_poly(h.apply(rhs))
            assert residual(eq, h) == direct


class TestCoefficientMatrix:
    def test_single_row(self):
        m = coefficient_matrix([CYCLE], L112)
        assert m.rows == 1 and m.cols == 3
        assert m.entries[0] == (P("1 - X^2"), P("X - X^3"), P("-1 + X^2"))

    def test_trivial_row_is_zero(self):
        m = coefficient_matrix([eq1("x y = x y")], LengthType((2, 2)))
        assert all(p.is_zero for p in m.entries[0])

    def test_repeated_equation_rows(self):
        eq = eq1("x y = y x")
        m = coefficient_matrix([eq, eq], LengthType((1, 1)))
        assert m.entries[0] == m.entries[1] == (P("1 - X"), P("-1 + X"))

    def test_mismatched_unknowns_rejected(self):
        with pytest.raises(ValueError):
            coefficient_matrix([CYCLE, eq1("x y = y x")], L112)


def _random_poly(rng, max_deg=4):
    from wordeq import IntPolynomial

    return IntPolynomial(
        {rng.randrange(max_deg + 1): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))}
    )


class TestRank:
    def test_identity_shaped(self):
        one = P("1")
        zero = P("0")
        m = PolyMatrix(
            (
                (P("1 + X"), zero, zero),
                (zero, P("X^2"), zero),
                (zero, zero, one),
            )
        )
        assert rank_polymatrix(m) == 3

    def test_nonzero_row(self):
        assert rank_polymatrix(coefficient_matrix([CYCLE], L112)) == 1

    def test_proportional_rows(self):
        m = PolyMatrix(
            (
                (P("1 - X"), P("-1 + X")),
                (P("X - X^2"), P("-X + X^2")),
            )
        )
        assert rank_polymatrix(m) == 1

    def test_row_scaling_invariance(self):
        rng = random.Random(23)
        for _ in range(50):
            rows = tuple(
                tuple(_random_poly(rng) for _ in range(3)) for _ in range(3)
            )
            m = PolyMatrix(rows)
            scale = P("1 + X^2")
            scaled = PolyMatrix((tuple(p * scale for p in rows[0]),) + rows[1:])
            assert rank_polymatrix(m) == rank_polymatrix(scaled)

    def test_factored_matrices_have_known_rank(self):
        # a product of 4x2 and 2x4 nonzero factors cannot exceed rank 2,
        # and a random evaluation bounds the rank from below
        rng = random.Random(83)
        for _ in range(40):
            a = PolyMatrix(
                tuple(tuple(_random_poly(rng, 2) for _ in range(2)) for _ in range(4))
            )
            b = PolyMatrix(
                tuple(tuple(_random_poly(rng, 2) for _ in range(4)) for _ in range(2))
            )
            m = a @ b
            symbolic = rank_polymatrix(m)
            assert symbolic <= 2
            assert symbolic >= rank_by_evaluation(m, rng.randint(10**3, 10**6))

    def test_agrees_with_evaluation(self):
        rng = random.Random(29)
        for _ in range(100):
            m = PolyMatrix(
                tuple(tuple(_random_poly(rng) for _ in range(4)) for _ in range(4))
            )
            symbolic = rank_polymatrix(m)
            point = rng.randint(10**3, 10**6)
            numeric = rank_by_evaluation(m, point)
            assert numeric <= symbolic
            if numeric < symbolic:
                numeric = rank_by_evaluation(m, rng.randint(10**3, 10**6))
            assert numeric == symbolic

    def test_matches_symbolic_rank_on_random_systems(self):
        # the certified point against the Z[X] elimination, never evaluated
        rng = random.Random(4111)
        deficient_count = fallback_count = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            deficient = rng.random() < 0.3
            m = rng.randint(2 if deficient else 1, 6)
            system = [
                Equation(
                    tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6))),
                    tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6))),
                    n,
                )
                for _ in range(m - deficient)
            ]
            if deficient:
                twin = rng.choice(system)
                system.insert(rng.randint(0, len(system)), rng.choice((twin, twin.swapped())))
                deficient_count += 1
            lt = LengthType(tuple(rng.randint(0, 9) for _ in range(n)))
            mat = coefficient_matrix(system, lt)
            rank = rank_polymatrix(mat)
            assert rank == symbolic_rank(mat), (system, lt)
            if deficient:
                assert rank < m
            # a rank below min(rows, cols) at X = 2 sends rank_polymatrix to the certified point
            fallback_count += rank_by_evaluation(mat, 2) < min(mat.rows, mat.cols)
        assert 60 <= deficient_count <= 120
        assert fallback_count >= 50

    def test_matches_symbolic_rank_on_hand_cases(self):
        zero = P("0")
        high = P("X^60 + 3X^7 - 1")
        cases = [
            # determinant X - 2: evaluating at 2 drops the rank
            ([[P("X"), P("2")], [P("1"), P("1")]], 2),
            ([[P("X - 2")]], 1),
            # a zero row must not bring the point H + 2 down to the root 2
            ([[P("X"), P("2")], [zero, zero], [P("1"), P("1")]], 2),
            # determinant 3 - X: H must count every entry, not the first column only
            ([[P("1"), P("X")], [P("1"), P("3")]], 2),
            ([[zero] * 4] * 3, 0),
            ([], 0),
            ([[zero, P("1 + X"), zero], [zero] * 3, [zero, P("X"), P("X^2")]], 2),
            ([[zero, P("X"), zero, P("-1")]], 1),
            ([[zero], [P("X^3")], [P("-2")]], 1),
            ([[zero] * 3], 0),
            ([[P("X^61"), high], [high, P("X^64 - X")]], 2),
            ([[high, P("X^62")], [high * P("X - 5"), P("X^62") * P("X - 5")]], 1),
        ]
        for rows, want in cases:
            m = PolyMatrix(tuple(tuple(r) for r in rows))
            assert symbolic_rank(m) == want
            assert rank_polymatrix(m) == want
        # both determinants vanish at X = 2, so both matrices reach the certified point
        assert rank_by_evaluation(PolyMatrix(((P("X"), P("2")), (P("1"), P("1")))), 2) == 1
        assert rank_by_evaluation(PolyMatrix(((P("X - 2"),),)), 2) == 0

    def test_rational_matrix_rank(self):
        assert rational_matrix_rank([[1, 2], [2, 4]]) == 1
        assert rational_matrix_rank([[1, 0], [0, 1]]) == 2
        assert rational_matrix_rank([]) == 0

    def test_rational_matrix_rank_clears_denominators_per_row(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert rational_matrix_rank([[half, third], [3, 2]]) == 1
        assert rational_matrix_rank([[half, 1], [1, half]]) == 2
        assert rational_matrix_rank([[third, 0, -third], [0, 0, 0], [1, Fraction(5, 7), -1]]) == 2


def exhaustive_solution_set(eq, lt, alphabet):
    """Every image tuple of length type lt over the alphabet that solves eq, by brute force."""
    pools = [list(itertools.product(alphabet, repeat=k)) for k in lt]
    return {
        images for images in itertools.product(*pools)
        if morphism(*images).apply(eq.lhs) == morphism(*images).apply(eq.rhs)
    }


class TestRankTheoremCheck:
    def test_rank_one_type_past_a_million_candidates(self):
        # 2^21 candidates over {1, 2}; the 7 classes of equal-length images give 2^7 solutions
        report = rank_theorem_check([CYCLE], (7, 7, 7), [])
        assert report["same_solution_sets"] == {
            "applicable": True,
            "solution_sets_equal": True,
            "set_size": 128,
        }

    def test_solution_set_keys_match_exhaustive_sets(self):
        rng = random.Random(1602)
        # the cycle's mirror image has as many solutions at every length type, but other ones
        mirror = Equation(CYCLE.lhs[::-1], CYCLE.rhs[::-1], 3)
        trials = [(CYCLE, mirror, lt) for lt in length_types_up_to(3, 4)]
        for trial in range(300):
            n = rng.randint(1, 3)
            first = random_equation(rng, n)
            # every fourth pair is an equation and its side-swapped twin or its square,
            # which have its solutions
            second = random_equation(rng, n) if trial % 4 else rng.choice((
                first.swapped(), Equation(first.lhs * 2, first.rhs * 2, n)
            ))
            trials.append((first, second, tuple(rng.randint(0, 3) for _ in range(n))))
        seen = set()
        for alphabet in ((1,), (1, 2), (1, 2, 3)):
            for first, second, lt in trials:
                if len(alphabet) ** sum(lt) > 3**6:
                    continue
                keys = _solution_set_keys([first, second], lt, alphabet)
                sets = [exhaustive_solution_set(eq, lt, alphabet) for eq in (first, second)]
                assert [size for size, _ in keys] == [len(s) for s in sets]
                equal = sets[0] == sets[1]
                assert (keys[0] == keys[1]) == equal, (first, second, lt, alphabet)
                seen.add((len(alphabet), equal, len(sets[0]) == len(sets[1]) > 1))
        # over each alphabet both verdicts occur, and over two or more letters
        # also between sets of the same size past one solution
        assert seen >= {(1, True, False), (1, False, False)}
        assert seen >= {(k, v, True) for k in (2, 3) for v in (True, False)}

    def test_cycle_with_rank2_solution(self):
        h = morphism((1,), (2,), (1, 2))
        report = rank_theorem_check([CYCLE], L112, [h])
        assert report["matrix_rank"] == 1
        assert report["solution_ranks"] == [2]
        assert report["same_solution_sets"]["applicable"]
        assert report["same_solution_sets"]["solution_sets_equal"]

    def test_swapped_twin_has_the_same_solution_set(self):
        h = morphism((1,), (2,), (1, 2))
        report = rank_theorem_check([CYCLE, CYCLE.swapped()], L112, [h])
        pools = [list(itertools.product((1, 2), repeat=k)) for k in (1, 1, 2)]
        expected = sum(
            1
            for images in itertools.product(*pools)
            if morphism(*images).apply(CYCLE.lhs) == morphism(*images).apply(CYCLE.rhs)
        )
        assert report["same_solution_sets"] == {
            "applicable": True,
            "solution_sets_equal": True,
            "set_size": expected,
        }

    def test_trivial_equation_vacuous(self):
        eq = eqs("x y = x y")[0]
        report = rank_theorem_check([eq], LengthType((1, 1)), [morphism((1,), (2,))])
        assert not report["same_solution_sets"]["applicable"]

    def test_commutation_all_length_two_pairs(self):
        eq = eq1("x y = y x")
        lt = LengthType((2, 2))
        sols = []
        for a in itertools.product((1, 2), repeat=2):
            for b in itertools.product((1, 2), repeat=2):
                h = morphism(a, b)
                if eq.solved_by(h):
                    sols.append(h)
        report = rank_theorem_check([eq], lt, sols)
        assert report["rank_bound_ok"]

    def test_plain_tuple_length_type_accepted(self):
        report = rank_theorem_check([eq1("x y = y x")], (1, 1), [morphism((1,), (1,))])
        assert report["matrix_rank"] == 1 and report["solution_ranks"] == [1]

    def test_list_length_type_accepted(self):
        report = rank_theorem_check([eq1("x y = y x")], [1, 1], [morphism((1,), (1,))])
        assert report["matrix_rank"] == 1 and report["solution_ranks"] == [1]

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="at least one equation"):
            rank_theorem_check([], (1,), [])

    def test_wrong_length_type_rejected(self):
        with pytest.raises(ValueError):
            rank_theorem_check([CYCLE], L112, [morphism((1,), (2,), (1,))])


class TestParsing:
    def test_declared_and_indexed_tokens(self):
        # declared names resolve through the name index, indexed tokens through resolve_unknown
        [eq] = eqs("unknowns: x y\nx y x2 = y x1")
        assert (eq.lhs, eq.rhs) == ((1, 2, 2), (2, 1))

    def test_header_names(self):
        eqlist, names = parse_system("unknowns: a b\na b = b a")
        assert names == ["a", "b"]
        assert eqlist[0].lhs == (1, 2)

    def test_compact_letters(self):
        eqlist, names = parse_system("xyz=zxy")
        assert names == ["x", "y", "z"]
        assert eqlist[0].lhs == (1, 2, 3)

    def test_compact_indexed(self):
        eqlist, names = parse_system("x1x2=x2x1")
        assert names == ["x1", "x2"]

    def test_indexed_tokens_set_width(self):
        eqlist, _ = parse_system("x1 x3 = x3 x1")
        assert eqlist[0].n == 3

    def test_eps_side(self):
        eqlist, _ = parse_system("x1 = eps")
        assert eqlist[0].rhs == ()

    def test_error_carries_line_number(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_system("x y = y x\nx y y x")

    def test_repeated_unknown_name_rejected(self):
        # the repeat would add a phantom unknown that no equation can reach
        with pytest.raises(InputFormatError, match="line 2: unknown 'x' declared twice"):
            parse_system("# two unknowns\nunknowns: x y x\nx y = y x")

    def test_eps_declared_as_an_unknown_rejected(self):
        # eps is the empty side: "eps = y" would read it as empty, "eps y = y eps" as unknown 1
        for text in ("unknowns: eps y\neps = y", "unknowns: x eps\nx eps = eps x"):
            with pytest.raises(InputFormatError, match="line 1: 'eps' cannot name an unknown"):
                parse_system(text)

    def test_second_unknown_declaration_rejected(self):
        # the second line would silently replace the first
        with pytest.raises(InputFormatError, match="line 3: second unknown declaration"):
            parse_system("unknowns: x y\n# renamed\nunknowns: a b\na = b")

    def test_unknown_bound(self):
        # the length-type walks recurse once per unknown, so no file may name more than MAX_UNKNOWNS
        eqlist, names = parse_system(f"x1 x2 = x2 x1\nx1 = x{MAX_UNKNOWNS}")
        assert eqlist[0].n == len(names) == MAX_UNKNOWNS
        for index in (MAX_UNKNOWNS + 1, 2000, 10**8, "9" * 5000):
            with pytest.raises(InputFormatError, match="line 2, column 6: "):
                parse_system(f"x1 x2 = x2 x1\nx1 = x{index}")
        declared = " ".join(f"y{i}" for i in range(MAX_UNKNOWNS))
        assert len(parse_system(f"unknowns: {declared}\ny0 y1 = y1 y0")[1]) == MAX_UNKNOWNS
        with pytest.raises(InputFormatError, match=f"line 1: more than {MAX_UNKNOWNS} unknowns declared"):
            parse_system(f"unknowns: {declared} z\ny0 y1 = y1 y0")

    def test_indices_in_ascii_digits_only(self):
        for text in ("x1 = x٣", "x١ = x1", "x1 x٢ = x2"):
            with pytest.raises(InputFormatError):
                parse_system(text)

    def test_single_equation_helper(self):
        eq, names = parse_equation("x y = y x")
        assert eq.n == 2
        with pytest.raises(InputFormatError):
            parse_equation("x y = y x\ny x = x y")

    @pytest.mark.parametrize("style", ["declared", "indexed", "mixed"])
    def test_parsed_sides_equal_checked_words(self, style):
        # parse_system builds its sides unchecked; they must equal the checked constructors' result
        rng = random.Random(f"parse-{style}")
        for _ in range(200):
            n = rng.randint(1, 5)
            system = [random_equation(rng, n) for _ in range(rng.randint(1, 4))]
            names = [f"x{i}" for i in range(1, n + 1)] if style == "indexed" else list("abcde"[:n])
            token = (lambda x: f"x{x}") if style == "mixed" else (lambda x: names[x - 1])
            lines = [f"unknowns: {' '.join(names)}"] + [
                " = ".join(" ".join(map(token, side)) or "eps" for side in (e.lhs, e.rhs))
                for e in system
            ]
            parsed, _ = parse_system("\n".join(lines))
            assert parsed == [Equation(Word(tuple(e.lhs)), Word(tuple(e.rhs)), n) for e in system]
            assert all(type(side) is Word for e in parsed for side in (e.lhs, e.rhs))

    def test_round_trip(self):
        eqlist, names = parse_system("unknowns: x y z\nx y z = z x y\nx x = y")
        text = "\n".join(e.to_text(names) for e in eqlist)
        again, _ = parse_system("unknowns: x y z\n" + text)
        assert again == eqlist
