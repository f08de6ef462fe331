"""Budget-constrained partition search tests.

The feasibility oracle here re-derives each scheme's overheads from the
closed forms (written out per kind, independent of `schemes.overhead_loads`)
and filters the search box directly; the library's feasible set must match
it exactly.  The sweep's rows are checked against a brute-force search of
each cell alone: the oracle's feasible set, each candidate simulated by
`estimate_mean_latency` on its own, and the minimum taken by the tie-break
rule written out here.  Latency-side checks also use analytic anchors and
the exactness that one pooled draw per trial gives to comparisons between
candidates.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_matmul import optimizer
from coded_matmul.blockmat import PartitionScheme
from coded_matmul.optimizer import (
    SimTemplate,
    TradeoffRow,
    feasible_partitions,
    render_tradeoff_csv,
    tradeoff_curve,
)
from coded_matmul.schemes import SchemeKind, compute_overheads, recovery_threshold
from coded_matmul.straggler_sim import estimate_mean_latency

ALL_KINDS = list(SchemeKind)

SIM = SimTemplate(N=50, T0=1.0, lam=0.1, trials=400, seed=42)


def closed_form_overheads(kind: SchemeKind, p0: int, p1: int, p2: int):
    """(delta_u0, delta_u1, delta_d) from the per-kind closed forms."""
    if kind is SchemeKind.EPC:
        delta = Fraction(p1 - 1, p0 * p1 * p2)
        u0 = p2 - 1 + p2 * delta
        u1 = p0 - 1 + p0 * delta
    elif kind is SchemeKind.BI0:
        delta = Fraction(p1 - 1, p1 * p2)
        u0 = p2 - 1 + p2 * delta
        u1 = delta
    elif kind is SchemeKind.BI2:
        delta = Fraction(p1 - 1, p0 * p1)
        u0 = delta
        u1 = p0 - 1 + p0 * delta
    else:
        delta = Fraction(p1 - 1, p1)
        u0 = u1 = delta
    delta_d = (p1 - 1) + p1 * delta
    return u0, u1, delta_d


def oracle_feasible(
    kind: SchemeKind, budget: Fraction, p0_cap: int, p2_cap: int, p1_cap: int
) -> set[tuple[int, int, int]]:
    out = set()
    for p0 in range(1, p0_cap + 1):
        for p1 in range(1, p1_cap + 1):
            for p2 in range(1, p2_cap + 1):
                u0, u1, d = closed_form_overheads(kind, p0, p1, p2)
                if u0 <= budget and u1 <= budget and d <= budget:
                    out.add((p0, p1, p2))
    return out


def feasible_set(kind: SchemeKind, budget, caps=(10, 10), **kw) -> set[tuple[int, int, int]]:
    got = feasible_partitions(kind, budget, p0_cap=caps[0], p2_cap=caps[1], **kw)
    return {(p.p0, p.p1, p.p2) for p in got}


def one_cell(kind: SchemeKind, budget, caps=(10, 10), sim=SIM, **kw) -> TradeoffRow:
    (row,) = tradeoff_curve([kind], [budget], p0_cap=caps[0], p2_cap=caps[1], sim=sim, **kw)
    return row


def test_zero_budget_epc_only_trivial_scheme() -> None:
    got = feasible_partitions(SchemeKind.EPC, 0, p0_cap=10, p2_cap=10)
    assert got == [PartitionScheme(1, 1, 1)]


def test_zero_budget_tri_all_p1_equal_1() -> None:
    got = feasible_partitions(SchemeKind.TRI, 0, p0_cap=10, p2_cap=10)
    assert len(got) == 100
    assert {(p.p0, p.p1, p.p2) for p in got} == {
        (p0, 1, p2) for p0 in range(1, 11) for p2 in range(1, 11)
    }


@pytest.mark.parametrize("caps", [(0, 3), (3, 0), (-2, -2)])
def test_partition_caps_below_one_rejected(caps: tuple[int, int]) -> None:
    # An empty box is a bad request, not an infeasible budget.
    with pytest.raises(ValueError, match="partition caps must be >= 1"):
        feasible_partitions(SchemeKind.TRI, 4, p0_cap=caps[0], p2_cap=caps[1])
    with pytest.raises(ValueError, match="partition caps must be >= 1"):
        tradeoff_curve([SchemeKind.TRI], [4], p0_cap=caps[0], p2_cap=caps[1], sim=SIM)


def test_feasible_set_matches_closed_form_oracle() -> None:
    for kind in ALL_KINDS:
        for budget in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(8)):
            got = feasible_set(kind, budget, caps=(6, 6))
            p1_cap = int(budget) + 1
            assert got == oracle_feasible(kind, budget, 6, 6, p1_cap)


# Budgets whose numerator or denominator is far beyond int64: the first is
# just under 2, and an int64 product top * den overflows at it.
HUGE_BUDGETS = [
    Fraction(2**61 - 1, 2**60),
    Fraction(2**62 + 1, 2**62),
    Fraction(10**30 + 1, 10**30),
    Fraction(-(2**70), 3),
]


def test_feasible_set_exact_at_huge_budget_denominators() -> None:
    for kind, budget, force_p1_single in itertools.product(
        ALL_KINDS, HUGE_BUDGETS, (False, True)
    ):
        got = feasible_partitions(
            kind, budget, p0_cap=6, p2_cap=6, force_p1_single=force_p1_single
        )
        # The oracle runs p1 one past the derived cap, as `brute_force_row` does.
        p1_cap = 1 if force_p1_single else math.floor(budget) + 2
        want = sorted(oracle_feasible(kind, budget, 6, 6, p1_cap))
        assert [(p.p0, p.p1, p.p2) for p in got] == want, (kind, budget, force_p1_single)


def test_sweep_exact_at_huge_budget_denominator() -> None:
    budget = Fraction(2**61 - 1, 2**60)
    for force_p1_single in (False, True):
        rows = tradeoff_curve(
            ALL_KINDS, [budget], p0_cap=4, p2_cap=3, sim=SIM, force_p1_single=force_p1_single
        )
        for row, kind in zip(rows, ALL_KINDS, strict=True):
            assert row == brute_force_row(kind, budget, (4, 3), SIM, force_p1_single)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    caps=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    budget=st.builds(Fraction, st.integers(-3, 60), st.integers(1, 12)),
    force_p1_single=st.booleans(),
)
def test_feasible_partitions_equal_sorted_oracle(kind, caps, budget, force_p1_single) -> None:
    # As a list, so the lexicographic order is pinned as well as the set.
    got = feasible_partitions(
        kind, budget, p0_cap=caps[0], p2_cap=caps[1], force_p1_single=force_p1_single
    )
    p1_cap = 1 if force_p1_single else math.floor(budget) + 2
    want = sorted(oracle_feasible(kind, budget, caps[0], caps[1], p1_cap))
    assert [(p.p0, p.p1, p.p2) for p in got] == want


def test_derived_p1_cap_is_reachable() -> None:
    # Budget 2.5 allows p1 = 3 for epc once p0*p2 >= 4 (delta_d = 2 + 2/(p0 p2)).
    got = feasible_set(SchemeKind.EPC, Fraction(5, 2), caps=(10, 10))
    assert max(p1 for _, p1, _ in got) == 3 == math.floor(Fraction(5, 2)) + 1


def test_feasible_sets_nest_with_budget() -> None:
    budgets = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    for kind in ALL_KINDS:
        sets = [feasible_set(kind, b, caps=(5, 5)) for b in budgets]
        for small, large in zip(sets, sets[1:]):
            assert small <= large


def test_lexicographic_enumeration_order() -> None:
    got = feasible_partitions(SchemeKind.TRI, 0, p0_cap=2, p2_cap=2)
    assert [(p.p0, p.p1, p.p2) for p in got] == [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2)]


def test_search_single_feasible_scheme() -> None:
    assert feasible_set(SchemeKind.EPC, 0, caps=(4, 4)) == {(1, 1, 1)}
    row = one_cell(SchemeKind.EPC, 0, caps=(4, 4))
    assert row.p == PartitionScheme(1, 1, 1)
    assert row.report.R_th == 1
    est = estimate_mean_latency(SIM, 1, 1)
    assert (row.mean_latency, row.stderr) == (est.mean, est.stderr)


def test_search_epc_zero_budget_latency_analytic() -> None:
    # K = 1, R_th = 1: first of N shifted exponentials, mean T0 + 1/(N lam).
    sim = SimTemplate(N=50, T0=1.0, lam=0.1, trials=3000, seed=13)
    row = one_cell(SchemeKind.EPC, 0, sim=sim)
    expected = sim.T0 + 1.0 / (sim.N * sim.lam)
    assert abs(row.mean_latency - expected) <= 3 * row.stderr


def test_search_prefers_finer_partition_at_equal_ratio() -> None:
    # (4,1,4) has the same R_th/K as (2,1,2) but a smaller per-subtask shift.
    # tri ships no overhead at p1 = 1, so the budget admits the whole box.
    sim = SimTemplate(N=50, T0=1.0, lam=0.1, trials=2000, seed=14)
    assert len(feasible_set(SchemeKind.TRI, 0, caps=(4, 4), force_p1_single=True)) == 16
    row = one_cell(SchemeKind.TRI, 0, caps=(4, 4), sim=sim, force_p1_single=True)
    assert row.p == PartitionScheme(4, 1, 4)


def test_search_infeasible_cell_is_marked_row() -> None:
    assert feasible_partitions(SchemeKind.TRI, Fraction(-1), p0_cap=3, p2_cap=3) == []
    row = one_cell(SchemeKind.TRI, Fraction(-1), caps=(3, 3))
    assert row == TradeoffRow(SchemeKind.TRI, Fraction(-1), False, None, None, None, None)


def test_search_deterministic_and_identical_across_kinds_at_p1_single() -> None:
    # With p1 = 1 all kinds describe the same job, so independent searches
    # must give them bit-identical latency estimates.  At budget 2 no
    # kind's overheads bind in the 3 x 1 x 3 box.
    rows = {}
    for kind in ALL_KINDS:
        assert len(feasible_set(kind, 2, caps=(3, 3), force_p1_single=True)) == 9
        rows[kind] = one_cell(kind, 2, caps=(3, 3), force_p1_single=True)
    means = {r.mean_latency for r in rows.values()}
    bests = {r.p for r in rows.values()}
    assert len(means) == 1
    assert len(bests) == 1
    again = one_cell(SchemeKind.EPC, 2, caps=(3, 3), force_p1_single=True)
    assert again == rows[SchemeKind.EPC]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_search_latency_equals_standalone_estimate(kind: SchemeKind) -> None:
    # The search draws its table up to the largest R_th among the candidates;
    # the winner's column must still be exactly what `coded-matmul simulate`
    # computes for that partition alone.  At these settings every kind's
    # winner has a smaller R_th than the deepest candidate.
    sim = SimTemplate(N=10, T0=1.0, lam=0.1, trials=400, seed=42)
    row = one_cell(kind, 4, caps=(4, 4), sim=sim)
    candidates = feasible_partitions(kind, 4, p0_cap=4, p2_cap=4)
    deepest = max(recovery_threshold(kind, p) for p in candidates)
    assert row.report.R_th < deepest
    est = estimate_mean_latency(sim, row.report.R_th, row.p.K)
    assert (row.mean_latency, row.stderr) == (est.mean, est.stderr)


@pytest.mark.parametrize(
    "field, value, message",
    [("T0", -1.0, "T0 must be >= 0"), ("lam", 0.0, "lam must be > 0")],
)
def test_sim_template_rejects_bad_model(field: str, value: float, message: str) -> None:
    params = dict(N=5, T0=1.0, lam=0.1, trials=10, seed=0)
    params[field] = value
    with pytest.raises(ValueError, match=message):
        SimTemplate(**params)


def test_tradeoff_rows_and_exact_budget_monotonicity() -> None:
    budgets = [Fraction(0), Fraction(1), Fraction(2), Fraction(4)]
    rows = tradeoff_curve(ALL_KINDS, budgets, p0_cap=3, p2_cap=3, sim=SIM)
    assert len(rows) == len(ALL_KINDS) * len(budgets)
    by_kind: dict = {}
    for row in rows:
        assert row.feasible
        by_kind.setdefault(row.kind, []).append(row)
    for kind, kind_rows in by_kind.items():
        assert [r.budget for r in kind_rows] == budgets
        means = [r.mean_latency for r in kind_rows]
        # nested feasible sets + one pooled draw per trial make this exact
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_tradeoff_marks_infeasible_rows() -> None:
    rows = tradeoff_curve(
        [SchemeKind.EPC], [Fraction(-1), Fraction(0)], p0_cap=2, p2_cap=2, sim=SIM
    )
    assert [r.feasible for r in rows] == [False, True]
    assert rows[0].mean_latency is None


def test_tradeoff_force_p1_single() -> None:
    rows = tradeoff_curve(
        [SchemeKind.TRI], [Fraction(4)], p0_cap=3, p2_cap=3, sim=SIM, force_p1_single=True
    )
    assert all(row.p.p1 == 1 for row in rows if row.feasible)


def test_tradeoff_csv_schema_and_stability() -> None:
    budgets = [Fraction(1, 2), Fraction(2)]
    rows = tradeoff_curve([SchemeKind.EPC, SchemeKind.TRI], budgets, p0_cap=2, p2_cap=2, sim=SIM)
    text = render_tradeoff_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "scheme,budget,p0,p1,p2,K,R_th,delta,delta_u0,delta_u1,delta_d,"
        "mean_latency,stderr,feasible"
    )
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 14
        assert fields[0] in ("epc", "tri")
        assert fields[13] in ("true", "false")
    # byte-stable re-render
    rows2 = tradeoff_curve([SchemeKind.EPC, SchemeKind.TRI], budgets, p0_cap=2, p2_cap=2, sim=SIM)
    assert render_tradeoff_csv(rows2) == text


@functools.cache
def simulated_alone(sim: SimTemplate, R_th: int, K: int):
    return estimate_mean_latency(sim, R_th, K)


def brute_force_row(
    kind: SchemeKind, budget: Fraction, caps: tuple[int, int], sim: SimTemplate,
    force_p1_single: bool,
) -> TradeoffRow:
    """The cell searched alone, sharing no code with the sweep: the
    closed-form feasible set (p1 enumerated one past the derived cap), each
    candidate simulated on its own, the minimum by (mean, K, (p0, p1, p2))."""
    p1_cap = 1 if force_p1_single else math.floor(budget) + 2
    best = None
    for p0, p1, p2 in oracle_feasible(kind, budget, caps[0], caps[1], p1_cap):
        p = PartitionScheme(p0, p1, p2)
        est = simulated_alone(sim, compute_overheads(kind, p).R_th, p.K)
        key = (est.mean, p.K, (p0, p1, p2))
        if best is None or key < best[0]:
            best = key, p, est
    if best is None:
        return TradeoffRow(kind, budget, False, None, None, None, None)
    _, p, est = best
    return TradeoffRow(kind, budget, True, p, compute_overheads(kind, p), est.mean, est.stderr)


@pytest.mark.parametrize("force_p1_single", [False, True])
def test_sweep_equals_cells_searched_one_by_one(force_p1_single: bool) -> None:
    # Unsorted budgets with a duplicate, a negative and a zero.  The sweep
    # draws one table deeper than most cells need, scores candidates once
    # and walks the budgets in ascending order; every row must still equal
    # its cell searched alone by brute force, floats compared with ==.
    budgets = [Fraction(4), Fraction(1, 2), Fraction(8), Fraction(1, 2), Fraction(-1), Fraction(0)]
    rows = tradeoff_curve(
        ALL_KINDS, budgets, p0_cap=4, p2_cap=3, sim=SIM, force_p1_single=force_p1_single
    )
    assert len(rows) == len(ALL_KINDS) * len(budgets)
    cells = [(kind, b) for kind in ALL_KINDS for b in budgets]
    for row, (kind, b) in zip(rows, cells):
        assert row == brute_force_row(kind, b, (4, 3), SIM, force_p1_single)
    assert [r.feasible for r in rows].count(False) == len(ALL_KINDS)


@pytest.mark.parametrize("force_p1_single", [False, True])
def test_sweep_breaks_ties_like_the_brute_force_search(force_p1_single: bool) -> None:
    # Few trials on few workers: candidates with equal R_th and K tie on
    # the mean, so K and then (p0, p1, p2) pick rows such as epc's
    # (1,1,2) over (2,1,1) at budget 1 and tri's (2,1,3) over (3,1,2).
    sim = SimTemplate(N=3, T0=1.0, lam=0.1, trials=20, seed=0)
    budgets = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    rows = tradeoff_curve(
        ALL_KINDS, budgets, p0_cap=3, p2_cap=3, sim=sim, force_p1_single=force_p1_single
    )
    cells = [(kind, b) for kind in ALL_KINDS for b in budgets]
    assert [(r.kind, r.budget) for r in rows] == cells
    for row, (kind, b) in zip(rows, cells):
        assert row == brute_force_row(kind, b, (3, 3), sim, force_p1_single)


@pytest.mark.parametrize(
    "budgets, calls", [([Fraction(-1)], 0), ([Fraction(2), Fraction(-1), Fraction(1, 2)], 1)]
)
def test_sweep_draws_one_completion_table(monkeypatch, budgets, calls: int) -> None:
    # At most one table per sweep, and exactly one once any cell is feasible.
    drawn, draw = [], optimizer.completion_table

    def counting(sim, ranks):
        drawn.append(ranks)
        return draw(sim, ranks)

    monkeypatch.setattr(optimizer, "completion_table", counting)
    for force_p1_single in (False, True):
        drawn.clear()
        tradeoff_curve(
            ALL_KINDS, budgets, p0_cap=3, p2_cap=3, sim=SIM, force_p1_single=force_p1_single
        )
        assert len(drawn) == calls


def _never(*args, **kwargs):
    raise AssertionError("allocated past the bound")


@pytest.mark.parametrize(
    "budgets, caps, force",
    [([10**9], 6, False), ([1, 2, 10**6], 10**3, False), ([1], 10**6, True)],
)
def test_oversized_box_refused_before_enumerating(monkeypatch, budgets, caps, force) -> None:
    monkeypatch.setattr(optimizer.np, "meshgrid", _never)
    with pytest.raises(ValueError, match=r"the box of \d+ partitions .* above the bound"):
        tradeoff_curve(ALL_KINDS, budgets, p0_cap=caps, p2_cap=caps, sim=SIM,
                       force_p1_single=force)


def test_oversized_scoring_refused_before_drawing(monkeypatch) -> None:
    monkeypatch.setattr(optimizer, "completion_table", _never)
    sim = SimTemplate(N=50, T0=1.0, lam=0.1, trials=10**12, seed=0)
    with pytest.raises(ValueError, match=r"candidates over \d+ trials .* above the bound"):
        tradeoff_curve(ALL_KINDS, [1], p0_cap=2, p2_cap=2, sim=sim)
