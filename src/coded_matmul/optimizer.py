"""Budget-constrained search for the partition scheme with lowest simulated latency.

For each scheme and overhead budget the search space is the box
[1..p0_cap] x [1..p1_cap] x [1..p2_cap]; a scheme is feasible when its three
communication overheads all sit within the budget (exact rational
comparison, no floating slack).  The p1 cap never needs to be guessed: the
download overhead satisfies delta_d >= p1 - 1, so any p1 above
floor(budget) + 1 is infeasible and the cap is derived.

Every candidate is simulated under one `straggler_sim.SimTemplate`, the
model `coded-matmul simulate` reads too.  A trade-off sweep enumerates each
kind's box once, draws one pooled completion table for all its cells, up
to the largest R_th of its candidates, and scores each candidate once, as
column R_th - 1 over K.  A column does not depend on how far the table was
drawn, so a candidate gets the same estimate in every sweep and from
`estimate_mean_latency(sim, R_th, K)`.  Cross-budget comparisons are
therefore exact: a larger budget's feasible set contains the smaller one's,
and the minimum over a superset of identical values cannot increase.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .blockmat import PartitionScheme
from .overheads import OverheadReport, compute_overheads
from .schemes import SchemeKind, recovery_threshold, upload_counts
from .straggler_sim import LatencyEstimate, SimTemplate, completion_table, summarize


def _as_budget(value) -> Fraction:
    """Budgets are exact rationals; floats are read as their decimal literal."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class TradeoffRow:
    """One (kind, budget) cell of the trade-off table."""

    kind: SchemeKind
    budget: Fraction
    feasible: bool
    p: PartitionScheme | None
    report: OverheadReport | None
    mean_latency: float | None
    stderr: float | None


class _Candidate(NamedTuple):
    p: PartitionScheme
    rth: int
    binding: Fraction  # max(delta_u0, delta_u1, delta_d)


def _feasible(
    kind: SchemeKind, budget: Fraction, p0_cap: int, p2_cap: int, force_p1_single: bool
) -> list[_Candidate]:
    """Every scheme in the box whose three overheads fit the budget, lexicographic.

    Over the common denominator K, the overheads `overheads` defines are
    R0 p2 / K - 1, R1 p0 / K - 1 and R_th p1 / K - 1, so the binding one,
    the largest, is picked and checked against the budget on integers."""
    if min(p0_cap, p2_cap) < 1:
        raise ValueError("partition caps must be >= 1")
    num, den = budget.numerator, budget.denominator
    p1_cap = 1 if force_p1_single else math.floor(budget) + 1
    out = []
    for p0 in range(1, p0_cap + 1):
        for p1 in range(1, p1_cap + 1):
            for p2 in range(1, p2_cap + 1):
                p, k = PartitionScheme(p0, p1, p2), p0 * p1 * p2
                (r0, r1), rth = upload_counts(kind, p), recovery_threshold(kind, p)
                top = max(r0 * p2, r1 * p0, rth * p1)
                if top * den <= (num + den) * k:
                    out.append(_Candidate(p, rth, Fraction(top - k, k)))
    return out


def feasible_partitions(
    kind: SchemeKind, budget, *, p0_cap: int, p2_cap: int, force_p1_single: bool = False
) -> list[PartitionScheme]:
    """Every scheme in the box whose three overheads fit the budget, lexicographic."""
    return [c.p for c in _feasible(kind, _as_budget(budget), p0_cap, p2_cap, force_p1_single)]


def _score(sim: SimTemplate, boxes: list[list[_Candidate]]) -> list[list[LatencyEstimate]]:
    """Every candidate's latency, read off one pooled completion table drawn
    up to the largest R_th among them: its R_th's column over its K."""
    ranks = sorted({c.rth for box in boxes for c in box})
    if not ranks:
        return [[] for _ in boxes]
    table, row = completion_table(sim, ranks).T, {r: j for j, r in enumerate(ranks)}
    return [
        summarize(table[[row[c.rth] for c in box]] / [[c.p.K] for c in box]) if box else []
        for box in boxes
    ]


def _rank(scored: tuple[_Candidate, LatencyEstimate]) -> tuple:
    """Lowest mean latency first; ties go to the smaller partition level K,
    then lexicographic (p0, p1, p2)."""
    p, est = scored[0].p, scored[1]
    return est.mean, p.K, (p.p0, p.p1, p.p2)


def tradeoff_curve(
    kinds: list[SchemeKind],
    budgets: list,
    *,
    p0_cap: int,
    p2_cap: int,
    sim: SimTemplate,
    force_p1_single: bool = False,
) -> list[TradeoffRow]:
    """For each (kind, budget), the feasible scheme with the lowest mean
    latency, ties by `_rank`, with that budget on all three overheads;
    infeasible cells become marked rows, not gaps.

    A cell's feasible set is the candidates of the largest budget whose
    binding overhead is within its budget.  So each kind's box is enumerated
    once, one table serves all kinds, each candidate is scored once, and
    the budgets are visited in ascending order keeping a running best."""
    if not kinds or not budgets:
        raise ValueError("kinds and budgets must be nonempty")
    cells = [_as_budget(b) for b in budgets]
    levels = sorted(set(cells))
    boxes = [_feasible(k, levels[-1], p0_cap, p2_cap, force_p1_single) for k in kinds]
    rows = []
    for kind, box, estimates in zip(kinds, boxes, _score(sim, boxes)):
        buckets: list[list] = [[] for _ in levels]  # by the smallest budget met
        for scored in zip(box, estimates):
            buckets[bisect.bisect_left(levels, scored[0].binding)].append(scored)
        best, at_level = [], {}
        for level, bucket in zip(levels, buckets):
            best = at_level[level] = sorted(best + bucket, key=_rank)[:1]
        for b in cells:
            if not at_level[b]:
                rows.append(TradeoffRow(kind, b, False, None, None, None, None))
                continue
            cand, est = at_level[b][0]
            report = compute_overheads(kind, cand.p)
            rows.append(TradeoffRow(kind, b, True, cand.p, report, est.mean, est.stderr))
    return rows


TRADEOFF_CSV_HEADER = (
    "scheme,budget,p0,p1,p2,K,R_th,delta,delta_u0,delta_u1,delta_d,"
    "mean_latency,stderr,feasible"
)


def render_tradeoff_csv(rows: list[TradeoffRow]) -> str:
    """Stable text form of the trade-off table; identical rows give
    identical bytes."""
    lines = [TRADEOFF_CSV_HEADER]
    for row in rows:
        if not row.feasible:
            lines.append(f"{row.kind.value},{float(row.budget)!r},,,,,,,,,,,,false")
            continue
        p, r = row.p, row.report
        lines.append(
            ",".join(
                [
                    row.kind.value,
                    repr(float(row.budget)),
                    str(p.p0),
                    str(p.p1),
                    str(p.p2),
                    str(p.K),
                    str(r.R_th),
                    repr(float(r.delta)),
                    repr(float(r.delta_u0)),
                    repr(float(r.delta_u1)),
                    repr(float(r.delta_d)),
                    repr(row.mean_latency),
                    repr(row.stderr),
                    "true",
                ]
            )
        )
    return "\n".join(lines) + "\n"
