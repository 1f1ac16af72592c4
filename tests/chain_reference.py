"""Slow reference chain and balance checks for the differential tests.

Both list every solution of the first equation within the budget, rank
each one with combinatorial_rank and compare sets of morphisms, as
chain_check and balance_theorem_check did before they counted
maximal-rank solutions from position classes.  They rank solution by
solution, not by length type as enumerate_solutions does, so they stay
independent of the generic-solution argument.
"""

from wordeq import (
    CoverError,
    EnumerationBudget,
    Equation,
    TheoremCheckError,
    balance_profile,
    chain_bound,
    combinatorial_rank,
    cover_pair,
    enumerate_solutions,
)


def listing_balance_check(eq1: Equation, eq2: Equation, budget: EnumerationBudget) -> dict:
    """balance_theorem_check by listing the rank-(n-1) solutions of the first equation."""
    n = eq1.n
    profile = balance_profile(eq1)
    if not any(profile):
        return {"applicable": False, "reason": "first equation is balanced"}
    top = [h for h in enumerate_solutions([eq1], budget) if combinatorial_rank(h) == n - 1]
    common = [h for h in top if eq2.solved_by(h)]
    if not common:
        return {
            "applicable": False,
            "reason": "no common maximal-rank solution within budget",
            "budget": budget.describe(),
        }
    for h in top:
        if not eq2.solved_by(h):
            raise TheoremCheckError(
                "a maximal-rank solution of the unbalanced equation escapes the pair",
                report={"images": [w.to_text() for w in h]},
            )
    return {
        "applicable": True,
        "budget": budget.describe(),
        "rank_filtered": len(top),
        "common": len(common),
        "inclusion_holds": True,
    }


def listing_chain_check(equations, budget: EnumerationBudget) -> dict:
    """chain_check by listing the rank-(n-1) solutions of the first equation as sets."""
    equations = list(equations)
    if not equations:
        raise ValueError("empty chain")
    n = equations[0].n
    for eq in equations:
        if eq.is_trivial:
            raise ValueError("chains are made of nontrivial equations")
    base = enumerate_solutions([equations[0]], budget)
    sets = [{h for h in base if combinatorial_rank(h) == n - 1}]
    strict = []
    for eq in equations[1:]:
        kept = {h for h in sets[-1] if eq.solved_by(h)}
        strict.append(kept < sets[-1])
        sets.append(kept)
    realized = 1
    for flag in strict:
        if flag:
            realized += 1
        else:
            break
    report = {
        "prefix_set_sizes": [len(s) for s in sets],
        "strict_descent": strict,
        "realized_chain_length": realized,
        "budget": budget.describe(),
    }
    if realized >= 2 and sets[realized - 1]:
        try:
            cover = cover_pair(equations[0], equations[1])
        except CoverError:
            report["bound_checked"] = False
            return report
        limit = chain_bound(equations[0], cover.k, cover.l)
        cover_limit = chain_bound(equations[0], cover.k, cover.l, cover=cover)
        report["bound"] = limit
        report["cover_bound"] = cover_limit
        report["bound_pair"] = [cover.k, cover.l]
        report["bound_checked"] = True
        if realized > limit or realized > cover_limit:
            raise TheoremCheckError(
                f"realized chain length {realized} exceeds the bound",
                report=report,
            )
    else:
        report["bound_checked"] = False
    return report


def listing_first_escape(eq1: Equation, eq2: Equation, budget: EnumerationBudget):
    """The first listed rank-(n-1) solution of the first equation that fails the second, or None."""
    for h in enumerate_solutions([eq1], budget):
        if combinatorial_rank(h) == eq1.n - 1 and not eq2.solved_by(h):
            return h
    return None
