import itertools
import json
import math
import random
import time

import pytest

import wordeq.oracle as oracle
from wordeq import (
    EnumerationBudget,
    Equation,
    LengthType,
    Word,
    balance_profile,
    balance_theorem_check,
    chain_check,
    combinatorial_rank,
    entire_system_sample,
    graph_components,
    enumerate_solutions,
    independence_check,
    parse_word,
    power_identity_check,
    rank_theorem_check,
    residual,
)
from wordeq.oracle import length_type_record, length_types_up_to, solutions_of_length_type

import record_reference
from conftest import eq1, morphism, random_equation


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

    def test_candidate_count_is_the_sum_over_length_types(self):
        rng = random.Random(61)
        for _ in range(20):
            n, bound = rng.randint(1, 4), rng.randint(0, 5)
            alphabet = tuple(rng.sample(range(1, 6), rng.randint(1, 3)))
            out = enumerate_solutions([], EnumerationBudget(alphabet, bound), n=n)
            per_type = sum(len(alphabet) ** sum(lt) for lt in length_types_up_to(n, bound))
            assert out.candidates_visited == per_type

    def test_budgets_past_the_candidate_bound_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 100)
        budget = EnumerationBudget((1, 2), 6)
        with pytest.raises(ValueError, match="asks for 769 candidates"):
            enumerate_solutions([SWAP], budget)
        # x x y = y x x holds exactly when x and y commute, so no witness exists
        with pytest.raises(ValueError, match="passed 100 candidates"):
            independence_check([SWAP, eq1("x x y = y x x")], budget)

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
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4))
        for h, r in zip(out.solutions, out.ranks):
            if not any(h):
                assert r == 0
        idx = [tuple(w.to_text() for w in h.images) for h in out].index(("1", "2", "12"))
        assert out.ranks[idx] == 2

    def test_rank_filter(self):
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 4))
        rank2 = out.of_rank(2)
        assert len(rank2) > 0
        assert all(r == 2 for r in rank2.ranks)

    def test_json_lines_export(self):
        out = enumerate_solutions([SWAP], EnumerationBudget((1, 2), 2))
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
        # a trivial equation: the same-solution-sets claim does not apply
        with pytest.raises(ValueError, match="letters must be positive integers"):
            rank_theorem_check([Equation((1, 2), (1, 2), 2)], (1, 1), [], alphabet=alphabet)


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

    def test_spot_check_past_the_letter_bound_refused_before_work(self):
        spec = dict(
            s=[parse_word("1"), Word()],
            t=[Word(), parse_word("1")],
            u=[parse_word("21")],
            v=[parse_word("12")],
        )
        # (2 + 506) * 2 + (1 + 500 + 505 * 506 / 2) * 4 = 514,080 letters, within the bound
        assert power_identity_check(**spec, indices={1, 500})["spot_verified_through"] == 505
        start = time.perf_counter()
        for top in (1000, 20000, 10**12):
            with pytest.raises(ValueError, match=f"more than {oracle.MAX_CANDIDATES}"):
                power_identity_check(**spec, indices={1, top})
        assert time.perf_counter() - start < 1.0

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

    def test_balanced_walk_is_the_side_length_filtered_walk(self):
        def filtered(system, n, top):
            return [
                lt for lt in sorted(length_types_up_to(n, top))
                if all(LengthType(lt).apply(eq.lhs) == LengthType(lt).apply(eq.rhs) for eq in system)
            ]

        rng = random.Random(23)
        systems = [
            (1, [Equation((1, 1), (1,), 1)]),
            (3, [CYCLE]),  # zero surplus: every type balances
            (3, [CYCLE, Equation((1, 2), (2, 1, 2), 3)]),  # surpluses (0, 0, 0) and (0, -1, 0)
            (2, [Equation((1, 1), (1,), 2)]),  # (1, 0): a zero in the last coordinate
            # dependent surpluses: (2, 0, -1) and its double; two vectors and their sum
            (3, [Equation((1, 1, 2), (2, 3), 3), Equation((1, 1, 1, 1, 2), (2, 3, 3), 3)]),
            (3, [Equation((1, 2), (3,), 3), Equation((1,), (2,), 3), Equation((1, 1), (2, 3), 3)]),
            (4, [Equation((1, 2, 3, 4), (4, 3), 4)]),
        ]
        for _ in range(300):
            n = rng.randint(1, 4)
            systems.append((n, [random_equation(rng, n) for _ in range(rng.randint(1, 3))]))
        for n, system in systems:
            for top in range(8):
                walked = list(oracle.balanced_length_types(system, n, top))
                assert walked == filtered(system, n, top), (system, top)


def classes(system, lt):
    record = length_type_record(system, lt)
    return None if record is None else record.classes


def generic(record):
    """The generic solution g of a record: class c gets the letter c + 1."""
    return morphism(*[[c + 1 for c in run] for run in record.runs])


class TestPositionClasses:
    def test_commutation_joins_every_position(self):
        assert classes([SWAP], (1, 1)) == (0, 0)
        assert classes([SWAP], (1, 2)) == (0, 0, 0)
        assert classes([SWAP], (2, 2)) == (0, 1, 0, 1)

    def test_classes_numbered_by_first_position(self):
        # x1 x2 x3 = x3 x1 x2 at (1, 1, 2): 1 2 | 3 4 against 3 4 | 1 2
        assert classes([CYCLE], (1, 1, 2)) == (0, 1, 0, 1)
        assert classes([], (2, 0, 1)) == (0, 1, 2)

    def test_sides_of_different_length(self):
        assert length_type_record([SWAP, eq1("x x = y")], (1, 1)) is None
        assert classes([eq1("x x = y")], (1, 2)) == (0, 0, 0)

    def test_assignments_are_the_solutions_in_image_order(self):
        rng = random.Random(83)
        for _ in range(60):
            n = rng.randint(1, 3)
            system = [random_equation(rng, n) for _ in range(rng.randint(1, 3))]
            alphabet = rng.choice(((1,), (1, 2), (1, 2, 3)))
            for lt in length_types_up_to(n, 5):
                scanned = list(solutions_of_length_type(system, lt, alphabet))
                record = length_type_record(system, lt)
                if record is None:
                    assert scanned == []
                    continue
                assert record.count == len(set(record.classes))
                assert sum(record.runs, ()) == record.classes
                assert tuple(map(len, record.runs)) == lt
                listed = [
                    tuple(tuple(a[c] for c in run) for run in record.runs)
                    for a in itertools.product(alphabet, repeat=record.count)
                ]
                assert listed == scanned, (system, lt)


class TestRecordMatchesReference:
    """The one-walk record and the iterative union-find against their slow twins."""

    def test_merge_classes(self):
        rng = random.Random(4409)
        for _ in range(600):
            size = rng.randint(0, 40)
            pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, size))]
            assert oracle.merge_classes(size, pairs) == record_reference.merge_classes(size, pairs), pairs

    def test_length_type_record(self):
        rng = random.Random(4421)
        seen = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            system = [random_equation(rng, n) for _ in range(rng.randint(0, 3))]
            for lt in length_types_up_to(n, 5):
                record = length_type_record(system, lt)
                assert record == record_reference.length_type_record(system, lt), (system, lt)
                seen.add(record is None)
        assert seen == {False, True}


class TestGenericSolution:
    def test_classes_and_their_letters(self):
        record = length_type_record([CYCLE], (1, 1, 2))
        assert record.classes == (0, 1, 0, 1)
        assert record.count == 2
        assert generic(record) == morphism((1,), (2,), (1, 2))
        assert record.generic_rank == 2
        assert length_type_record([SWAP, eq1("x x = y")], (1, 1)) is None

    def test_solutions_are_letter_images_of_g(self):
        # every solution of a length type maps each letter c + 1 of g to one letter
        out = enumerate_solutions([CYCLE], EnumerationBudget((1, 2), 6))
        for h in out:
            g = generic(length_type_record([CYCLE], h.length_type()))
            letter = {}
            for w, v in zip(g, h):
                for c, a in zip(w, v):
                    assert letter.setdefault(c, a) == a


class TestRankRule:
    """The record's rank of a solution, from rank(g), against combinatorial_rank."""

    def test_matches_combinatorial_rank_on_every_assignment(self):
        rng = random.Random(1601)
        seen = set()
        for trial in range(400):
            n = rng.randint(1, 4)
            alphabet = rng.choice(((1, 2), (1, 2, 3)))
            # every fifth system is empty, so g is a code and r is the nonempty image count
            system = [] if trial % 5 == 0 else [
                random_equation(rng, n) for _ in range(rng.randint(1, 2))
            ]
            lt = tuple(rng.randint(0, 3) for _ in range(n))
            record = length_type_record(system, lt)
            if record is None or len(alphabet) ** record.count > 3**6:
                continue
            r = record.generic_rank
            assert r == combinatorial_rank(generic(record))
            seen.add(min(r, 3))
            for a in itertools.product(alphabet, repeat=record.count):
                images = [tuple(a[c] for c in run) for run in record.runs]
                rank = combinatorial_rank(images)
                assert record.solution_rank(a) == rank <= r, (system, lt, images)
                if r == 2:
                    # rank 1 exactly on the assignments agreeing on the period pairs
                    assert (rank == 1) == all(a[c] == a[e] for c, e in record.period)
        assert seen == {0, 1, 2, 3}


def balancing_equation(rng, n, lt):
    """A random equation whose sides have equal length at lt."""
    while True:
        eq = random_equation(rng, n)
        if length_type_record([eq], lt) is not None:
            return eq


class TestTopRankCount:
    """The record's count of rank-r assignments against ranking every assignment."""

    def test_matches_ranking_every_assignment(self):
        rng = random.Random(2311)
        seen = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            first = random_equation(rng, n)
            lt = rng.choice(list(oracle.balanced_length_types([first], n, 6)))
            system = [first, *(balancing_equation(rng, n, lt) for _ in range(rng.randint(0, 2)))]
            for j in range(len(system)):
                record = length_type_record(system[:j + 1], lt)
                r = record.generic_rank
                seen.add((min(r, 3), j > 0))
                for alphabet in ((1,), (1, 2), (1, 2, 3)):
                    if len(alphabet) ** record.count > 3**5:
                        continue
                    ranked = sum(combinatorial_rank(record.images(a)) == r
                                 for a in itertools.product(alphabet, repeat=record.count))
                    assert record.top_rank_count(alphabet) == ranked, (system[:j + 1], lt, alphabet)
        # every rank rule, on records of one equation and of longer prefixes
        assert seen == {(r, longer) for r in range(4) for longer in (False, True)}


class TestBlockRanks:
    """enumerate_solutions' ranks, one generic rank per length type, against per-solution ranks."""

    def test_matches_combinatorial_rank_per_solution(self):
        rng = random.Random(1409)
        # largest max-total per alphabet size, one less at four unknowns
        tops = {1: 8, 2: 6, 3: 5}
        seen = set()
        for trial in range(300):
            n = rng.randint(1, 4)
            alphabet = rng.choice(((1,), (1, 2), (1, 2, 3), (1, 12)))
            top = tops[len(alphabet)] - (n == 4)
            budget = EnumerationBudget(alphabet, rng.randint(2, top))
            # every tenth system is empty, with an explicit unknown count
            system = [] if trial % 10 == 0 else [
                random_equation(rng, n) for _ in range(rng.randint(1, 2))
            ]
            sols = enumerate_solutions(system, budget, n=n)
            flat = list(zip(sols.solutions, sols.ranks))
            lt = rng.choice(sols.solutions).length_type() if sols else (0,) * n
            r = rng.randint(0, 3)
            # each view against the same filter over the flat lists
            views = [
                (sols, lambda h, rank: True),
                (sols.nonerasing(), lambda h, rank: h.is_nonerasing),
                (sols.of_length_type(lt), lambda h, rank: h.length_type() == lt),
                (sols.of_rank(r), lambda h, rank: rank == r),
            ]
            for view, keep in views:
                assert list(zip(view.solutions, view.ranks)) == [(h, rank) for h, rank in flat if keep(h, rank)]
                assert len(view) == len(view.solutions) == len(view.ranks)
                assert view.ranks == tuple(combinatorial_rank(h) for h in view), system
                seen.update(view.ranks)
        assert seen == {0, 1, 2, 3}

    def test_rank_one_solutions_of_a_rank_two_type(self):
        # no equation on two unknowns: the generic solutions (1, 2) at (1, 1) and
        # (12, 34) at (2, 2) have rank 2, and (12, eps) at (2, 0) has rank 1
        out = enumerate_solutions([], EnumerationBudget((1, 2), 4), n=2)
        ranks = dict(zip((tuple(map(Word.to_text, h)) for h in out), out.ranks))
        assert ranks[("1", "1")] == ranks[("12", "12")] == ranks[("11", "eps")] == 1
        assert ranks[("1", "2")] == ranks[("12", "21")] == ranks[("11", "12")] == 2
        assert ranks[("eps", "eps")] == 0


@pytest.mark.parametrize(
    "check",
    [
        lambda system, budget: enumerate_solutions(system, budget),
        lambda system, budget: independence_check(system, budget),
        lambda system, budget: rank_theorem_check(system, (1, 1), []),
        lambda system, budget: chain_check(system, budget),
        lambda system, budget: balance_theorem_check(*system, budget),
        lambda system, budget: graph_components(system),
    ],
    ids=["enumerate", "independence", "rank-theorem", "chain", "balance", "graph"],
)
def test_mixed_unknown_counts_refused(check):
    system = [Equation((1, 2), (2, 1), 2), Equation((1, 2, 3), (3, 2, 1), 3)]
    with pytest.raises(ValueError, match="equations disagree on the number of unknowns"):
        check(system, EnumerationBudget((1, 2), 4))
