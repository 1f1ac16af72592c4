"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value here is either copied from a worked sample that the
implementation must reproduce bit-exactly or recomputed by an independent
brute-force path inside the test.
"""

import itertools
import random
import time

from wordeq import (
    EnumerationBudget,
    Equation,
    LengthType,
    PolyMatrix,
    Word,
    balance_theorem_check,
    chain_bound,
    chain_check,
    coefficient_matrix,
    combinatorial_rank,
    commute_check,
    cover_pair,
    encode_poly,
    encode_ratfun,
    enumerate_solutions,
    graph_lemma_check,
    is_periodic,
    minor_t,
    parse_genpoly,
    parse_polynomial,
    parse_word,
    power_identity_check,
    primitive_root,
    q_polynomial,
    rank_by_evaluation,
    rank_polymatrix,
    residual,
)
from wordeq.transforms import (
    ElementaryTransformation,
    abelian_matrix,
    endo_apply,
    endo_compose,
    endo_identity,
    factorize_solution,
    morphism_after_endo,
    position_matrix,
)
from wordeq.words import words_of_length
from wordeq.oracle import length_types_up_to

from conftest import eq1, eqs, morphism
from rank_reference import symbolic_rank


CYCLE = eq1("x1 x2 x3 = x3 x1 x2")
PAIR_TEXT = "x1 x2 x3 = x3 x1 x2\nx1 x2 x1 x3 x2 x3 = x3 x1 x3 x2 x1 x2"


def _pair():
    return eqs(PAIR_TEXT)


def _report(num, elapsed, budget, detail=""):
    unit = "ms" if budget < 1 else "s"
    shown = elapsed * 1000 if budget < 1 else elapsed
    limit = budget * 1000 if budget < 1 else budget
    print(f"criterion {num:02d}: PASS in {shown:.3f}{unit} (budget {limit:g}{unit}) {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_c01_word_encodings_reproduce_the_sample():
    w = parse_word("1212")
    encode_poly(w)
    encode_ratfun(w)  # warm-up
    start = time.perf_counter()
    p = encode_poly(w)
    r = encode_ratfun(w)
    elapsed = time.perf_counter() - start
    assert p == parse_polynomial("1 + 2X + X^2 + 2X^3")
    # P(1212) = (1 + X^2)(1 + 2X) over X^4 - 1 = (X^2 + 1)(X^2 - 1),
    # so the reduced form has numerator 1 + 2X
    assert r.numerator == parse_polynomial("1 + 2X")
    assert r.denominator == parse_polynomial("-1 + X^2")
    _report(1, elapsed, 0.001)


def test_c02_coefficients_and_residual_reproduce_the_sample():
    lt = LengthType((1, 1, 2))
    h = morphism((1,), (2,), (1, 2))
    q_polynomial(CYCLE, 1, lt)
    residual(CYCLE, h)  # warm-up
    start = time.perf_counter()
    q1 = q_polynomial(CYCLE, 1, lt)
    q2 = q_polynomial(CYCLE, 2, lt)
    q3 = q_polynomial(CYCLE, 3, lt)
    res = residual(CYCLE, h)
    elapsed = time.perf_counter() - start
    assert q1 == parse_polynomial("1 - X^2")
    assert q2 == parse_polynomial("X - X^3")
    assert q3 == parse_polynomial("-1 + X^2")
    assert res.is_zero
    _report(2, elapsed, 0.001)


def test_c03_minor_and_cover_reproduce_the_sample():
    e1, e2 = _pair()
    expected_minor = parse_genpoly(
        "X^{2X1+X2} + X^{2X1+2X2+X3} + X^{X1+2X3} + X^{X1+X2+X3}"
        " - X^{2X1+X2+X3} - X^{X1+X3} - X^{2X1+2X2} - X^{X1+X2+2X3}",
        3,
    )
    minor_t(e1, e2, 1, 3)  # warm-up
    start = time.perf_counter()
    t = minor_t(e1, e2, 1, 3)
    cover = cover_pair(e1, e2)
    elapsed = time.perf_counter() - start
    assert t == expected_minor
    assert (cover.k, cover.l) == (1, 3)
    assert cover.bound == 16
    assert {p.relation_text() for p in cover.planes} == {
        "X3 = 0",
        "X1+X2 = X3",
        "X2 = 0",
        "X1+2X2 = 2X3",
    }
    _report(3, elapsed, 0.010)


def test_c04_cover_semantics_within_budget():
    start = time.perf_counter()
    e1, e2 = _pair()
    budget = EnumerationBudget((1, 2), 10)
    sols = enumerate_solutions([e1, e2], budget)
    nonperiodic = 0
    for h in sols:
        if is_periodic(h):
            continue
        nonperiodic += 1
        l1, l2, l3 = (len(w) for w in h.images)
        assert l3 == 0 or l1 + l2 == l3
        assert len(h.images[1]) > 0, "nonperiodic solution with empty second image"
    # every morphism erasing the third unknown solves the pair
    with_empty_third = sum(1 for h in sols if len(h.images[2]) == 0)
    expected = sum(
        (s + 1) * 2**s for s in range(11)
    )  # all (w1, w2) with |w1| + |w2| <= 10
    assert with_empty_third == expected
    # every morphism whose third image is the product of the first two solves the pair
    checked = 0
    for total in range(6):
        for a in range(total + 1):
            for w1 in words_of_length((1, 2), a):
                for w2 in words_of_length((1, 2), total - a):
                    h = morphism(w1, w2, w1 + w2)
                    assert e1.solved_by(h) and e2.solved_by(h)
                    checked += 1
    assert checked == 321
    elapsed = time.perf_counter() - start
    _report(4, elapsed, 60, f"(nonperiodic common solutions: {nonperiodic})")


def test_c05_residual_vanishes_exactly_on_solutions():
    # all equations of length <= 6 on three unknowns against all binary
    # morphisms of total image length <= 6
    start = time.perf_counter()
    base = 4  # exceeds every letter, so letterwise sums are faithful
    sides_by_len = [[()]]
    for k in range(1, 7):
        sides_by_len.append(
            [w + (x,) for w in sides_by_len[k - 1] for x in (1, 2, 3)]
        )
    equations = []
    for lu in range(7):
        for lv in range(7 - lu):
            for u in sides_by_len[lu]:
                for v in sides_by_len[lv]:
                    equations.append((u, v))
    bpow = [base**k for k in range(40)]
    checked = 0
    skipped_by_length = 0
    for lt in length_types_up_to(3, 6):
        # signed occurrence coefficients for each equation at this length type
        eq_data = []
        for u, v in equations:
            lu = sum(lt[x - 1] for x in u)
            lv = sum(lt[x - 1] for x in v)
            if lu != lv:
                # the two encoded sides have different degrees (their leading
                # coefficients are letters), and the two words have different
                # lengths: both directions of the equivalence fail at once
                skipped_by_length += 1
                continue
            coeff = [0, 0, 0, 0]
            pos = 0
            for x in u:
                coeff[x] += bpow[pos]
                pos += lt[x - 1]
            pos = 0
            for x in v:
                coeff[x] -= bpow[pos]
                pos += lt[x - 1]
            eq_data.append((u, v, coeff[1], coeff[2], coeff[3]))
        if not eq_data:
            continue
        pools = [list(words_of_length((1, 2), k)) for k in lt]
        for images in itertools.product(*pools):
            pvals = []
            raw = []
            for w in images:
                raw.append(bytes(w))
                pvals.append(sum(a * bpow[k] for k, a in enumerate(w)))
            p1, p2, p3 = pvals
            img = {(): b""}
            for k in range(1, 7):
                for w in sides_by_len[k]:
                    img[w] = img[w[:-1]] + raw[w[-1] - 1]
            for u, v, c1, c2, c3 in eq_data:
                res = c1 * p1 + c2 * p2 + c3 * p3
                assert (res == 0) == (img[u] == img[v])
                checked += 1
    # tie the fast evaluation back to the production residual on a sample
    rng = random.Random(101)
    for _ in range(2000):
        u, v = rng.choice(equations), rng.choice(equations)
        eq = Equation(u[0], v[1], 3)
        images = []
        room = 6
        for _ in range(3):
            k = rng.randint(0, room)
            room -= k
            images.append(tuple(rng.choice((1, 2)) for _ in range(k)))
        h = morphism(*images)
        assert residual(eq, h).is_zero == (h.apply(eq.lhs) == h.apply(eq.rhs))
    elapsed = time.perf_counter() - start
    _report(5, elapsed, 120, f"(pairs checked: {checked}, length-skips: {skipped_by_length})")


def test_c06_matrix_rank_bounds_solution_rank():
    start = time.perf_counter()
    systems = [
        [eq1("x y = y x")],
        [CYCLE],
        _pair(),
    ]
    checked = 0
    for system in systems:
        n = system[0].n
        for lt_tuple in itertools.product(range(5), repeat=n):
            lt = LengthType(lt_tuple)
            pools = [list(words_of_length((1, 2), k)) for k in lt_tuple]
            sols = []
            for images in itertools.product(*pools):
                h = morphism(*images)
                if all(eq.solved_by(h) for eq in system):
                    sols.append(h)
            if not sols:
                continue
            matrix_rank = rank_polymatrix(coefficient_matrix(system, lt))
            for h in sols:
                r = combinatorial_rank(h, n)
                assert matrix_rank <= n - r
                checked += 1
    elapsed = time.perf_counter() - start
    _report(6, elapsed, 120, f"(solutions checked: {checked})")


def test_c07_periodicity_transfer_suite():
    start = time.perf_counter()
    words = []
    for k in range(1, 7):
        words.extend(Word(t) for t in itertools.product((1, 2), repeat=k))
    tightness = 0
    from math import gcd

    for u in words:
        for v in words:
            bound = len(u) + len(v) - gcd(len(u), len(v))
            agree_full = all(
                u.letters[i % len(u)] == v.letters[i % len(v)] for i in range(bound)
            )
            roots_equal = primitive_root(u) == primitive_root(v)
            if agree_full:
                assert roots_equal
            elif not roots_equal:
                agree_almost = all(
                    u.letters[i % len(u)] == v.letters[i % len(v)]
                    for i in range(bound - 1)
                )
                if agree_almost:
                    tightness += 1
    assert tightness > 0
    elapsed = time.perf_counter() - start
    _report(7, elapsed, 30, f"(tightness witnesses: {tightness})")


def test_c08_commutation_equivalences():
    start = time.perf_counter()
    pairs = 0
    for total in range(2, 11):
        for a in range(1, total):
            for ut in itertools.product((1, 2), repeat=a):
                for vt in itertools.product((1, 2), repeat=total - a):
                    u, v = Word(ut), Word(vt)
                    same_root = primitive_root(u) == primitive_root(v)
                    assert commute_check(u, v) == same_root
                    assert ((u + v) == (v + u)) == same_root
                    assert (encode_ratfun(u) == encode_ratfun(v)) == same_root
                    if same_root:
                        # equal-length products from {u, v} must coincide
                        assert u * len(v) == v * len(u)
                        assert u + v + u == u + u + v
                    pairs += 1
    elapsed = time.perf_counter() - start
    _report(8, elapsed, 60, f"(pairs: {pairs})")


def test_c09_factorization_suite():
    start = time.perf_counter()
    corpus = [
        Equation((1, 2), (2, 1), 2),
        CYCLE,
        Equation((1, 1, 3), (3, 1, 1), 3),
        Equation((1, 2, 3), (3, 2, 1), 3),
        Equation((1, 2, 2), (2, 2, 1), 3),
        _pair()[1],
    ]
    budget = EnumerationBudget((1, 2), 8)
    total = 0
    for eq in corpus:
        for h in enumerate_solutions([eq], budget):
            fact = factorize_solution(eq, h)
            assert fact.recompose() == h
            assert fact.theta.is_nonerasing
            inter = fact.intermediate()
            assert endo_apply(inter, eq.lhs) == endo_apply(inter, eq.rhs)
            assert combinatorial_rank(h, eq.n) <= fact.rank_bound
            total += 1
    elapsed = time.perf_counter() - start
    _report(9, elapsed, 60, f"(factorizations: {total})")


def _random_chain(rng, n, steps):
    out = []
    for _ in range(steps):
        t = rng.randint(1, n)
        s = rng.choice([i for i in range(1, n + 1) if i != t])
        out.append(ElementaryTransformation(t, s, regular=rng.random() < 0.7))
    return out


def test_c10_composition_matrix_identities():
    start = time.perf_counter()
    rng = random.Random(103)
    for _ in range(500):
        n = rng.randint(2, 4)
        steps = _random_chain(rng, n, rng.randint(1, 4))
        g = morphism(
            *[tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 3))) for _ in range(n)]
        )
        f = endo_identity(n)
        for st in steps:
            f = endo_compose(st.as_endo(n), f)
        composite = morphism_after_endo(g, f)
        # occurrence-count identity across the whole chain
        lg = list(g.length_type())
        for st in reversed(steps):
            lg = list(abelian_matrix(st.as_endo(n)).apply(lg))
        assert lg == list(composite.length_type())
        # encoded-image identity, innermost step first
        vec = tuple(encode_poly(w) for w in g.images)
        current = g
        for st in reversed(steps):
            vec = position_matrix(st.as_endo(n), current.length_type()).apply(vec)
            current = morphism_after_endo(current, st.as_endo(n))
        assert vec == tuple(encode_poly(w) for w in composite.images)
    elapsed = time.perf_counter() - start
    _report(10, elapsed, 10)


def test_c11_graph_lemma_suite():
    start = time.perf_counter()
    b2_6 = EnumerationBudget((1, 2), 6)
    b3_4 = EnumerationBudget((1, 2, 3), 4)
    b2_4 = EnumerationBudget((1, 2), 6)
    b3_5 = EnumerationBudget((1, 2, 3), 5)
    systems = [
        ([Equation((1, 2), (2, 1), 3)], b2_6),
        ([CYCLE], b2_6),
        ([Equation((1, 2), (2, 1), 3), Equation((2, 3), (3, 2), 3)], b2_6),
        ([Equation((1, 2, 3), (2, 3, 1), 3)], b2_6),
        ([Equation((1, 1), (2, 2), 3)], b2_6),
        ([Equation((1, 2), (2, 1), 3), Equation((1, 3), (3, 1), 3)], b2_6),
        ([Equation((1, 2, 3), (3, 2, 1), 3)], b3_4),
        ([Equation((1, 2), (2, 1), 3), Equation((2, 3), (3, 2), 3)], b3_4),
        ([Equation((1, 2), (2, 1), 4)], b2_4),
        ([Equation((1, 2), (2, 1), 4), Equation((3, 4), (4, 3), 4)], b2_4),
        (
            [
                Equation((1, 2), (2, 1), 4),
                Equation((2, 3), (3, 2), 4),
                Equation((3, 4), (4, 3), 4),
            ],
            b2_4,
        ),
        ([Equation((1, 4), (4, 1), 4)], b2_4),
        ([Equation((1, 2, 3, 4), (4, 3, 2, 1), 4)], b3_5),
    ]
    assert len(systems) >= 10
    for system, budget in systems:
        report = graph_lemma_check(system, budget)
        assert report["bound_holds"]
    elapsed = time.perf_counter() - start
    _report(11, elapsed, 60, f"(systems: {len(systems)})")


def _build_power_word(seps, reps, i):
    word = seps[0]
    for r, sep in zip(reps, seps[1:]):
        word = word + r * i + sep
    return word


def _random_word(rng, lo=1, hi=3):
    return Word(tuple(rng.choice((1, 2)) for _ in range(rng.randint(lo, hi))))


def test_c12_power_identity_suite():
    start = time.perf_counter()
    rng = random.Random(107)
    instances = 0
    while instances < 50:
        shape = rng.choice(("single", "double", "unary"))
        if shape == "single":
            a, b, c = _random_word(rng), _random_word(rng), _random_word(rng, 0, 2)
            s, u = [a, c], [b + a]
            t, v = [Word(), a + c], [a + b]
        elif shape == "double":
            a, b, c, d, e = (_random_word(rng) for _ in range(5))
            s, u = [a, c, e], [b + a, d + c]
            t, v = [Word(), a, c + e], [a + b, c + d]
        else:
            a = Word((rng.choice((1, 2)),))
            tail = _random_word(rng, 0, 2)
            s, u = [a + a, tail], [a * 4]
            t, v = [Word(), a + a, tail], [a * 2, a * 2]
        m, n = len(u), len(v)
        indices = set()
        while len(indices) < m + n:
            indices.add(rng.randint(0, 6))
        report = power_identity_check(s, t, u, v, indices)
        assert report["certified"]
        top = max(indices)
        for i in range(top + 1, top + 11):
            assert _build_power_word(s, u, i) == _build_power_word(t, v, i)
        instances += 1
    failing = power_identity_check(
        [Word(), Word()], [Word(), Word()], [Word((1,))], [Word((2,))], {0, 1}
    )
    assert not failing["certified"]
    assert failing["premise_fails_at"] == 1
    elapsed = time.perf_counter() - start
    _report(12, elapsed, 10, f"(instances: {instances})")


def test_c13_unbalanced_inclusion_suite():
    start = time.perf_counter()
    pairs = [
        (Equation((1, 2), (2, 2, 1), 3), Equation((1, 2), (2, 1), 3)),
        (Equation((1, 1, 2), (2, 1), 3), Equation((1, 2), (2, 1), 3)),
        (Equation((2, 3), (3, 3, 2), 3), Equation((2, 3), (3, 2), 3)),
        (Equation((1, 3, 3), (3, 1), 3), Equation((1, 3), (3, 1), 3)),
        (Equation((2, 1), (1, 1, 2), 3), Equation((2, 1), (1, 2), 3)),
    ]
    budget = EnumerationBudget((1, 2), 6)
    applicable = 0
    for e1, e2 in pairs:
        report = balance_theorem_check(e1, e2, budget)
        assert report["applicable"], (e1.to_text(), e2.to_text())
        assert report["inclusion_holds"]
        applicable += 1
    assert applicable >= 5
    elapsed = time.perf_counter() - start
    _report(13, elapsed, 60, f"(pairs: {applicable})")


def test_c14_chain_bounds():
    start = time.perf_counter()
    e1, e2 = _pair()
    assert chain_bound(e1, 1, 3) == 17
    cover = cover_pair(e1, e2)
    assert chain_bound(e1, cover.k, cover.l, cover=cover) == 5
    report = chain_check([e1, e2], EnumerationBudget((1, 2), 6))
    assert report["realized_chain_length"] == 2
    assert report["strict_descent"] == [True]
    elapsed = time.perf_counter() - start
    _report(14, elapsed, 10)


def test_c15_symbolic_rank_cross_check():
    start = time.perf_counter()
    rng = random.Random(109)
    from wordeq import IntPolynomial

    for _ in range(100):
        entries = tuple(
            tuple(
                IntPolynomial(
                    {
                        rng.randrange(5): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 4))
                    }
                )
                for _ in range(4)
            )
            for _ in range(4)
        )
        m = PolyMatrix(entries)
        symbolic = rank_polymatrix(m)
        assert symbolic == symbolic_rank(m)
        numeric = rank_by_evaluation(m, rng.randint(10**3, 10**6))
        assert numeric <= symbolic
        resamples = 0
        while numeric < symbolic and resamples < 4:
            numeric = rank_by_evaluation(m, rng.randint(10**3, 10**6))
            resamples += 1
        assert numeric == symbolic, "persistent symbolic/numeric rank disagreement"
    elapsed = time.perf_counter() - start
    _report(15, elapsed, 5)
