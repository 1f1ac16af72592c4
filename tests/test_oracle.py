import itertools
import json
import math
import random

import pytest

from wordeq import (
    EnumerationBudget,
    Equation,
    LengthType,
    Word,
    balance_profile,
    entire_system_sample,
    enumerate_solutions,
    independence_check,
    parse_word,
    power_identity_check,
    rank_annotate,
    rank_theorem_check,
    residual,
)
from wordeq.oracle import length_types_up_to, solutions_of_length_type

from conftest import eq1, morphism


SWAP = eq1("x y = y x")
CYCLE = eq1("x y z = z x y")


def candidate_count(n, alphabet_size, max_total):
    return sum(
        alphabet_size ** total * math.comb(total + n - 1, n - 1)
        for total in range(max_total + 1)
    )


class TestEnumerate:
    def test_unary_commutation(self):
        out = enumerate_solutions([SWAP], EnumerationBudget((1,), 2))
        assert len(out) == 6
        lts = {tuple(h.length_type()) for h in out}
        assert lts == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}

    def test_contains_known_solution(self):
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4))
        images = {tuple(w.to_text() for w in h.images) for h in out}
        assert ("1", "2", "12") in images

    def test_defining_equation(self):
        eq = eq1("x1 x1 = x2")
        out = enumerate_solutions([eq], EnumerationBudget((1, 2), 3))
        expected = {("eps", "eps"), ("1", "11"), ("2", "22")}
        assert {tuple(w.to_text() for w in h.images) for h in out} == expected

    def test_candidate_count_matches_closed_form(self):
        for n, system in ((2, [SWAP]), (3, [CYCLE])):
            for bound in (0, 1, 3, 5):
                out = enumerate_solutions(system, EnumerationBudget((1, 2), bound))
                assert out.candidates_visited == candidate_count(n, 2, bound)

    def test_empty_system_needs_n(self):
        with pytest.raises(ValueError):
            enumerate_solutions([], EnumerationBudget((1, 2), 2))
        out = enumerate_solutions([], EnumerationBudget((1, 2), 2), n=2)
        assert len(out) == out.candidates_visited

    def test_stable_sort_order(self):
        out = enumerate_solutions([SWAP], EnumerationBudget((1, 2), 4))
        keys = [
            (tuple(h.length_type()), tuple(w.letters for w in h.images)) for h in out
        ]
        assert keys == sorted(keys)

    def test_solutions_verified_by_residual(self):
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 5))
        for h in out:
            assert residual(CYCLE, h).is_zero

    def test_sampled_non_solutions_have_nonzero_residual(self):
        rng = random.Random(71)
        sols = {
            tuple(w.letters for w in h.images)
            for h in enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 5))
        }
        found = 0
        while found < 200:
            images = []
            room = 5
            for _ in range(3):
                k = rng.randint(0, room)
                room -= k
                images.append(tuple(rng.choice((1, 2)) for _ in range(k)))
            if tuple(images) in sols:
                continue
            h = morphism(*images)
            assert not residual(CYCLE, h).is_zero
            found += 1


class TestFiltering:
    def test_length_type_slice(self):
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4))
        sliced = out.of_length_type((1, 1, 2))
        assert all(tuple(h.length_type()) == (1, 1, 2) for h in sliced)
        assert len(sliced) > 0

    def test_rank_annotation(self):
        out = rank_annotate(enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4)))
        for h, r in zip(out.solutions, out.ranks):
            if h.all_empty:
                assert r == 0
        idx = [tuple(w.to_text() for w in h.images) for h in out].index(("1", "2", "12"))
        assert out.ranks[idx] == 2

    def test_rank_filter(self):
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4))
        rank2 = out.of_rank(2)
        assert len(rank2) > 0
        assert all(r == 2 for r in rank2.ranks)

    def test_json_lines_export(self):
        out = rank_annotate(enumerate_solutions([SWAP], EnumerationBudget((1, 2), 2)))
        lines = out.to_json_lines().splitlines()
        assert len(lines) == len(out)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["images"] == ["eps", "eps"]
        assert all(set(p) == {"images", "length_type", "rank"} for p in parsed)


class TestIndependence:
    def test_single_equation_vs_empty_subsystem(self):
        report = independence_check([SWAP], EnumerationBudget((1, 2), 4))
        assert report["verdict"] == "independent within budget"
        assert report["subsystems"][0]["witness"] is not None

    def test_duplicate_equation_is_dependent(self):
        report = independence_check([SWAP, SWAP], EnumerationBudget((1, 2), 4))
        assert report["verdict"] == "dependent"

    def test_companion_not_implied(self, sample_pair):
        e1, e2 = sample_pair
        report = independence_check([e1, e2], EnumerationBudget((1, 2), 6))
        by_omitted = {entry["omitted_index"]: entry for entry in report["subsystems"]}
        # something solves the first equation but not the second
        assert by_omitted[1]["witness"] is not None


def brute_force(system, n, max_total, alphabet):
    """Every candidate in enumeration order, with the equations it solves.

    Length types run by total, then lexicographically; images within a
    length type run lexicographically.  Sides are compared through
    Morphism.apply, independently of Equation.solved_by.
    """
    for total in range(max_total + 1):
        for lt in itertools.product(range(total + 1), repeat=n):
            if sum(lt) != total:
                continue
            pools = [list(itertools.product(alphabet, repeat=k)) for k in lt]
            for images in itertools.product(*pools):
                h = morphism(*images)
                yield lt, images, [h.apply(eq.lhs) == h.apply(eq.rhs) for eq in system]


def compare_with_brute_force(rng, alphabet, systems, max_top):
    """Assert that enumeration and independence agree with brute_force on random systems.

    Returns how many witnesses were found although the side-length skip
    ran ahead of them.
    """
    skipped_before_witness = 0
    for _ in range(systems):
        n, top = rng.randint(1, 3), rng.randint(0, max_top)
        system = [
            Equation(
                tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))),
                tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))),
                n,
            )
            for _ in range(rng.randint(1, 3))
        ]
        budget = EnumerationBudget(alphabet, top)
        visited, solutions = 0, []
        witnesses = [None] * len(system)
        unbalanced = [False] * len(system)
        for lt, images, holds in brute_force(system, n, top, alphabet):
            visited += 1
            if all(holds):
                solutions.append(images)
            for i in range(len(system)):
                if witnesses[i] is not None:
                    continue
                rest = system[:i] + system[i + 1:]
                if any(LengthType(lt).apply(eq.lhs) != LengthType(lt).apply(eq.rhs) for eq in rest):
                    unbalanced[i] = True
                if not holds[i] and all(holds[:i] + holds[i + 1:]):
                    witnesses[i] = [Word(w).to_text() for w in images]
        skipped_before_witness += sum(u and w is not None for u, w in zip(unbalanced, witnesses))

        out = enumerate_solutions(system, budget)
        assert out.candidates_visited == visited
        solutions.sort(key=lambda images: (tuple(len(w) for w in images), images))
        assert [tuple(w.letters for w in h.images) for h in out] == solutions
        report = independence_check(system, budget)
        assert [entry["witness"] for entry in report["subsystems"]] == witnesses
    return skipped_before_witness


def test_oracle_matches_brute_force_on_random_systems():
    skipped_before_witness = compare_with_brute_force(random.Random(20141), (1, 2), 100, 6)
    # the side-length skip ran ahead of witnesses that were still found
    assert skipped_before_witness >= 10


@pytest.mark.parametrize(
    "alphabet, seed, max_top",
    [((1,), 4301, 8), ((1, 2, 3), 4302, 5)],
    ids=["one-letter", "three-letters"],
)
def test_oracle_matches_brute_force_over_other_alphabets(alphabet, seed, max_top):
    compare_with_brute_force(random.Random(seed), alphabet, 40, max_top)


class TestAlphabetChecks:
    def test_budget_rejects_bool_letters(self):
        # bool is an int subclass, and True would merge into 1 when deduplicated
        for alphabet in ((True, 2), (1, True), (False,)):
            with pytest.raises(ValueError, match="alphabet letters must be positive integers"):
                EnumerationBudget(alphabet, 2)

    def test_budget_rejects_non_integer_max_total(self):
        # a float would reach range() inside the enumeration; True would run as 1
        for top in (2.5, True, "3"):
            with pytest.raises(ValueError, match="max_total_length must be an integer"):
                EnumerationBudget((1, 2), top)

    @pytest.mark.parametrize(
        "alphabet", [(0, 1), ("a", "b"), (True,), (1, 2.0)], ids=["zero", "str", "bool", "non-int"]
    )
    def test_pools_reject_bad_letters(self, alphabet):
        with pytest.raises(ValueError, match="letters must be positive integers"):
            list(solutions_of_length_type([SWAP], (1, 1), alphabet))
        with pytest.raises(ValueError, match="letters must be positive integers"):
            rank_theorem_check([CYCLE], (1, 1, 2), [], alphabet=alphabet)


class TestEntireSystem:
    def test_equal_images(self):
        h = morphism((1,), (1,))
        sample = entire_system_sample(h, 4)
        texts = {eq.to_text(["x", "y"]) for eq in sample}
        assert "x = y" in texts
        assert "x y = y x" in texts

    def test_code_images_give_only_trivial_relations(self):
        h = morphism((1,), (2,))
        for eq in entire_system_sample(h, 4):
            # sides must be literally equal words over the unknowns
            assert eq.is_trivial

    def test_common_equations_of_distinct_generators_are_balanced(self):
        g = morphism((1,), (2,), (1, 2))
        h = morphism((1,), (2,), (2, 1))
        kg = {(eq.lhs, eq.rhs) for eq in entire_system_sample(g, 6)}
        kh = {(eq.lhs, eq.rhs) for eq in entire_system_sample(h, 6)}
        assert kg != kh
        for lhs, rhs in kg & kh:
            assert not any(balance_profile(Equation(lhs, rhs, 3)))


class TestPowerIdentity:
    def test_telescoping(self):
        report = power_identity_check(
            s=[parse_word("1"), Word()],
            t=[Word(), parse_word("1")],
            u=[parse_word("21")],
            v=[parse_word("12")],
            indices={1, 2},
        )
        assert report["certified"]
        assert report["spot_verified_through"] == 7

    def test_identical_sides(self):
        report = power_identity_check(
            s=[parse_word("1"), parse_word("2")],
            t=[parse_word("1"), parse_word("2")],
            u=[parse_word("12")],
            v=[parse_word("12")],
            indices={0, 5},
        )
        assert report["certified"]

    def test_premise_failure_detected(self):
        report = power_identity_check(
            s=[Word(), Word()],
            t=[Word(), Word()],
            u=[parse_word("1")],
            v=[parse_word("2")],
            indices={0, 1},
        )
        assert not report["certified"]
        assert report["premise_fails_at"] == 1

    def test_too_few_indices_rejected(self):
        with pytest.raises(ValueError):
            power_identity_check(
                s=[Word(), Word()],
                t=[Word(), Word()],
                u=[parse_word("1")],
                v=[parse_word("1")],
                indices={3},
            )

    def test_empty_repeated_factor_rejected(self):
        with pytest.raises(ValueError):
            power_identity_check(
                s=[Word(), Word()],
                t=[Word(), Word()],
                u=[Word()],
                v=[parse_word("1")],
                indices={0, 1},
            )


class TestLengthTypes:
    def test_enumeration_is_complete_and_unique(self):
        lts = list(length_types_up_to(3, 4))
        assert len(lts) == len(set(lts))
        assert len(lts) == math.comb(4 + 3, 3)
        assert all(sum(lt) <= 4 for lt in lts)
