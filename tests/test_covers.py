import random

import pytest

from wordeq import (
    CoverError,
    EnumerationBudget,
    Equation,
    Hyperplane,
    HyperplaneCover,
    LinForm,
    balance_profile,
    balance_theorem_check,
    chain_bound,
    chain_bound_corollary,
    chain_check,
    cover_pair,
    cover_soundness_check,
    enumerate_solutions,
    graph_components,
    graph_lemma_check,
    is_periodic,
    pair_form_check,
    rank_annotate,
)

from conftest import eq1, eqs, morphism


class TestCoverPair:
    def test_sample_pair_relations(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        assert (cover.k, cover.l) == (1, 3)
        assert cover.bound == 16
        relations = {p.relation_text() for p in cover.planes}
        assert relations == {"X3 = 0", "X1+X2 = X3", "X2 = 0", "X1+2X2 = 2X3"}

    def test_identical_pair_rejected(self, sample_pair):
        e1, _ = sample_pair
        with pytest.raises(CoverError, match="indistinguishable"):
            cover_pair(e1, e1)

    def test_single_term_split_gives_one_plane(self):
        e1 = Equation((1,), (2,), 2)
        e2 = Equation((1, 1), (2, 2), 2)
        cover = cover_pair(e1, e2)
        assert len(cover.planes) == 1
        assert cover.planes[0].relation_text() == "X1 = X2"
        assert cover.bound == 4

    def test_trivial_equation_rejected(self, sample_pair):
        e1, _ = sample_pair
        with pytest.raises(ValueError):
            cover_pair(e1, Equation((1, 2), (1, 2), 3))

    def test_explicit_pair_override(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2, kl=(1, 2))
        assert (cover.k, cover.l) == (1, 2)
        assert {p.relation_text() for p in cover.planes} <= {
            "X3 = 0",
            "X1+X2 = X3",
            "X2 = 0",
            "X1+2X2 = 2X3",
        }

    def test_full_pairing_contains_minimal_selection(self, sample_pair):
        e1, e2 = sample_pair
        minimal = cover_pair(e1, e2, kl=(1, 3))
        full = cover_pair(e1, e2, kl=(1, 3), full_pairing=True)
        min_normals = {p.normalized_normal() for p in minimal.planes}
        full_normals = {p.normalized_normal() for p in full.planes}
        assert min_normals <= full_normals

    def test_plane_count_within_bound_on_random_pairs(self):
        rng = random.Random(73)
        made = 0
        while made < 60:
            n = rng.randint(2, 3)
            def side(maxlen):
                return tuple(rng.randint(1, n) for _ in range(rng.randint(1, maxlen)))
            e1 = Equation(side(5), side(5), n)
            e2 = Equation(side(6), side(6), n)
            if e1.is_trivial or e2.is_trivial or e1.length > 10:
                continue
            made += 1
            try:
                cover = cover_pair(e1, e2)
            except CoverError:
                continue
            assert len(cover.planes) <= cover.bound

    def test_emitted_planes_pair_retained_forms(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        for plane in cover.planes:
            diff = tuple(a - b for a, b in zip(plane.p, plane.q))
            assert any(diff)
            assert plane.normal == diff


class TestCoverSoundness:
    def test_sample_pair_solutions_are_covered(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        sols = rank_annotate(
            enumerate_solutions([e1, e2], EnumerationBudget((1, 2), 8))
        ).of_rank(2)
        report = cover_soundness_check(e1, e2, cover, list(sols))
        assert report["covered"]
        assert report["solutions_checked"] == len(sols.solutions)

    def test_empty_solution_list_is_vacuous(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        report = cover_soundness_check(e1, e2, cover, [])
        assert report["solutions_checked"] == 0

    def test_erasing_third_unknown_lies_on_plane(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        h = morphism((1,), (2, 1), ())
        assert e1.solved_by(h) and e2.solved_by(h)
        assert cover.covers(tuple(h.length_type()))

    def test_points_of_the_wrong_dimension_rejected(self):
        plane = Hyperplane(LinForm((1, 0, 0)), LinForm((0, 1, 0)))
        cover = HyperplaneCover(
            (plane,), bound=1, k=1, l=2, minor_terms_before=0, minor_terms_after=0
        )
        assert plane.contains((2, 2, 5)) and not plane.contains((1, 2, 5))
        for point in ((0, 0), (5, 5, 1, 7)):
            with pytest.raises(ValueError, match="wrong dimension"):
                plane.contains(point)
            with pytest.raises(ValueError, match="wrong dimension"):
                cover.covers(point)

    def test_random_pairs_cover_their_top_rank_solutions(self):
        # the minimal selection and the full pairing must both cover every
        # maximal-rank common solution found by enumeration
        rng = random.Random(79)
        budget = EnumerationBudget((1, 2), 5)
        exercised = 0
        attempts = 0
        while exercised < 40 and attempts < 400:
            attempts += 1
            n = rng.randint(2, 3)
            def side(maxlen):
                return tuple(rng.randint(1, n) for _ in range(rng.randint(1, maxlen)))
            e1 = Equation(side(4), side(4), n)
            e2 = Equation(side(5), side(5), n)
            if e1.is_trivial or e2.is_trivial:
                continue
            try:
                minimal = cover_pair(e1, e2)
                full = cover_pair(e1, e2, kl=(minimal.k, minimal.l), full_pairing=True)
            except CoverError:
                continue
            top = rank_annotate(
                enumerate_solutions([e1, e2], budget), n
            ).of_rank(n - 1)
            if not top.solutions:
                continue
            exercised += 1
            for h in top:
                lt = tuple(h.length_type())
                assert minimal.covers(lt), (e1.to_text(), e2.to_text(), lt)
                assert full.covers(lt)
        assert exercised >= 20


class TestBalance:
    def test_balanced_cycle(self):
        assert balance_profile(eq1("x1 x2 x3 = x3 x1 x2")) == (0, 0, 0)

    def test_unbalanced_pairs(self):
        assert balance_profile(Equation((1, 2), (2, 2, 1), 2)) == (0, -1)
        assert balance_profile(Equation((1, 1), (2, 2, 2), 2)) == (2, -3)

    def test_length_types_on_balance_plane(self):
        eq = Equation((1, 2), (2, 2, 1), 3)
        profile = balance_profile(eq)
        for h in enumerate_solutions([eq], EnumerationBudget((1, 2), 5)):
            lt = tuple(h.length_type())
            assert sum(a * b for a, b in zip(profile, lt)) == 0

    def test_inclusion_for_constructed_pair(self):
        e1 = Equation((1, 2), (2, 2, 1), 3)   # forces the second image empty
        e2 = Equation((1, 2), (2, 1), 3)
        report = balance_theorem_check(e1, e2, EnumerationBudget((1, 2), 5))
        assert report["applicable"]
        assert report["inclusion_holds"]

    def test_balanced_first_equation_skipped(self):
        e1 = eq1("x1 x2 x3 = x3 x1 x2")
        report = balance_theorem_check(e1, e1, EnumerationBudget((1, 2), 3))
        assert not report["applicable"]

    def test_no_common_top_rank_solution_skipped(self):
        e1 = Equation((1, 2), (2, 2, 1), 3)
        e2 = Equation((1, 2, 3), (3, 1, 2), 3)  # forces the free images to commute
        report = balance_theorem_check(e1, e2, EnumerationBudget((1, 2), 5))
        assert not report["applicable"]


class TestGraph:
    def test_path_graph(self):
        system = eqs("x1 x2 = x2 x1\nx2 x3 = x3 x2")
        assert graph_components(system) == 1

    def test_one_edge_in_four(self):
        system = [Equation((1, 2), (2, 1), 4)]
        assert graph_components(system) == 3

    def test_empty_system(self):
        assert graph_components([], n=5) == 5

    def test_self_loop_keeps_components(self):
        system = [Equation((1, 2), (1, 3), 3)]
        assert graph_components(system) == 3

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            graph_components([Equation((1,), (), 2)])

    def test_lemma_on_commutation_system(self):
        system = eqs("x1 x2 = x2 x1")
        report = graph_lemma_check(system, EnumerationBudget((1, 2), 6))
        assert report["bound_holds"]
        assert report["components"] == 1

    def test_lemma_on_connected_three_unknowns(self):
        system = eqs("x1 x2 = x2 x1\nx2 x3 = x3 x2")
        report = graph_lemma_check(system, EnumerationBudget((1, 2), 6))
        assert report["components"] == 1
        # connected graph forces periodic nonerasing solutions
        for h in enumerate_solutions(system, EnumerationBudget((1, 2), 6)):
            if h.is_nonerasing:
                assert is_periodic(h)


class TestPairForm:
    def test_sample_pair_has_form(self, sample_pair):
        e1, e2 = sample_pair
        h = morphism((1,), (2,), (1, 2))
        report = pair_form_check(e1, e2, h)
        assert report["applicable"]
        assert report["k"] == 1

    def test_commuting_images_not_applicable(self, sample_pair):
        e1, e2 = sample_pair
        h = morphism((1,), (1, 1), (1, 1, 1))
        report = pair_form_check(e1, e2, h)
        assert not report["applicable"]

    def test_trivial_equation_not_applicable(self, sample_pair):
        e1, _ = sample_pair
        trivial = Equation((1, 2), (1, 2), 3)
        report = pair_form_check(e1, trivial, morphism((1,), (2,), (1, 2)))
        assert not report["applicable"]


class TestChain:
    def test_bound_from_occurrences(self):
        eq = eq1("x1 x2 x3 = x3 x1 x2")
        assert chain_bound(eq, 1, 3) == 17
        assert chain_bound_corollary(eq, 1, 3) == 21

    def test_bound_from_cover(self, sample_pair):
        e1, e2 = sample_pair
        cover = cover_pair(e1, e2)
        assert chain_bound(e1, cover.k, cover.l, cover=cover) == 5

    def test_two_chain_descends(self, sample_pair):
        e1, e2 = sample_pair
        report = chain_check([e1, e2], EnumerationBudget((1, 2), 6))
        assert report["strict_descent"] == [True]
        assert report["realized_chain_length"] == 2
        assert report["bound"] == 17
        assert report["cover_bound"] == 5

    def test_three_chain_descends_and_respects_bound(self, sample_pair):
        # third equation keeps only the solutions whose last image is the
        # product of the first two, cutting away the erasing family
        e1, e2 = sample_pair
        e3 = Equation((3,), (1, 2), 3)
        report = chain_check([e1, e2, e3], EnumerationBudget((1, 2), 6))
        assert report["strict_descent"] == [True, True]
        assert report["realized_chain_length"] == 3
        assert report["bound_checked"]
        assert report["realized_chain_length"] <= report["cover_bound"] == 5

    def test_single_equation(self, sample_pair):
        e1, _ = sample_pair
        report = chain_check([e1], EnumerationBudget((1, 2), 4))
        assert report["realized_chain_length"] == 1

    def test_repeated_equation_stalls(self, sample_pair):
        e1, _ = sample_pair
        report = chain_check([e1, e1], EnumerationBudget((1, 2), 4))
        assert report["strict_descent"] == [False]
        assert report["realized_chain_length"] == 1

    def test_trivial_equation_rejected(self):
        with pytest.raises(ValueError):
            chain_check([Equation((1,), (1,), 1)], EnumerationBudget((1, 2), 2))
