"""Constrained search for the partition scheme with lowest simulated latency.

The search space is the box [1..p0_cap] x [1..p1_cap] x [1..p2_cap]; a
scheme is feasible when its three communication overheads sit within the
given budgets (exact rational comparison, no floating slack).  The p1 cap
never needs to be guessed: the download overhead satisfies
delta_d >= p1 - 1, so any p1 above floor(budget_d) + 1 is infeasible and
the cap is derived.  With no download budget, an explicit p1 cap is
required to keep the box finite.

Every candidate is simulated under one `straggler_sim.SimTemplate`, the
model `coded-matmul simulate` reads too.  Each search draws one pooled
completion table, up to the largest R_th of its candidates, and reads each
candidate's trial latencies off it as column R_th - 1 over K.  A column
does not depend on how far the table was drawn, so a candidate gets the
same estimate in every search and from `estimate_mean_latency(sim, R_th,
K)`.  Cross-budget comparisons are therefore exact: a larger budget's
feasible set contains the smaller one's, and the minimum over a superset
of identical values cannot increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .blockmat import PartitionScheme
from .overheads import OverheadReport, compute_overheads
from .schemes import SchemeKind, recovery_threshold
from .straggler_sim import LatencyEstimate, SimTemplate, completion_table, summarize


class Infeasible(ValueError):
    """No partition scheme satisfies the budgets within the caps."""


def _as_budget(value) -> Fraction | None:
    """Budgets are exact rationals; floats are read as their decimal literal."""
    if value is None or isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class SearchSpec:
    kind: SchemeKind
    budget_u0: Fraction | None
    budget_u1: Fraction | None
    budget_d: Fraction | None
    p0_cap: int
    p2_cap: int
    sim: SimTemplate
    p1_cap: int | None = None

    def __post_init__(self) -> None:
        for name in ("budget_u0", "budget_u1", "budget_d"):
            object.__setattr__(self, name, _as_budget(getattr(self, name)))
        if self.p0_cap < 1 or self.p2_cap < 1:
            raise ValueError("partition caps must be >= 1")
        if self.budget_d is None and self.p1_cap is None:
            raise ValueError(
                "p1 is unbounded: give a download budget or an explicit p1_cap"
            )

    @property
    def effective_p1_cap(self) -> int:
        if self.budget_d is None:
            return self.p1_cap  # type: ignore[return-value]
        derived = math.floor(self.budget_d) + 1
        if self.p1_cap is not None:
            return min(derived, self.p1_cap)
        return derived


@dataclass(frozen=True)
class SearchResult:
    best: PartitionScheme
    report: OverheadReport
    latency: LatencyEstimate
    feasible_count: int


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


def _within(value: Fraction, budget: Fraction | None) -> bool:
    return budget is None or value <= budget


def feasible_partitions(spec: SearchSpec) -> list[PartitionScheme]:
    """Every scheme in the box meeting all three budgets, lexicographic."""
    out = []
    for p0 in range(1, spec.p0_cap + 1):
        for p1 in range(1, spec.effective_p1_cap + 1):
            for p2 in range(1, spec.p2_cap + 1):
                p = PartitionScheme(p0, p1, p2)
                r = compute_overheads(spec.kind, p)
                if (
                    _within(r.delta_u0, spec.budget_u0)
                    and _within(r.delta_u1, spec.budget_u1)
                    and _within(r.delta_d, spec.budget_d)
                ):
                    out.append(p)
    return out


def search_best_partition(spec: SearchSpec) -> SearchResult:
    """Simulate every feasible scheme and keep the lowest mean latency.

    Ties go to the smaller partition level K, then lexicographic (p0,p1,p2).
    """
    feasible = feasible_partitions(spec)
    if not feasible:
        raise Infeasible(f"no feasible partition for {spec.kind.value} within budgets")
    rths = [recovery_threshold(spec.kind, p) for p in feasible]
    ranks = sorted(set(rths))
    table = completion_table(spec.sim, ranks)
    column = {r: j for j, r in enumerate(ranks)}
    best_key = None
    best: tuple[PartitionScheme, LatencyEstimate] | None = None
    for p, rth in zip(feasible, rths):
        est = summarize(table[:, column[rth]] / p.K)
        key = (est.mean, p.K, (p.p0, p.p1, p.p2))
        if best_key is None or key < best_key:
            best_key = key
            best = (p, est)
    assert best is not None
    return SearchResult(
        best=best[0],
        report=compute_overheads(spec.kind, best[0]),
        latency=best[1],
        feasible_count=len(feasible),
    )


def tradeoff_curve(
    kinds: list[SchemeKind],
    budgets: list,
    *,
    p0_cap: int,
    p2_cap: int,
    sim: SimTemplate,
    force_p1_single: bool = False,
) -> list[TradeoffRow]:
    """One constrained search per (kind, budget), equal budgets on all three
    constraints; infeasible cells become marked rows, not gaps."""
    if not kinds or not budgets:
        raise ValueError("kinds and budgets must be nonempty")
    rows = []
    for kind in kinds:
        for budget in budgets:
            b = _as_budget(budget)
            spec = SearchSpec(
                kind=kind,
                budget_u0=b,
                budget_u1=b,
                budget_d=b,
                p0_cap=p0_cap,
                p2_cap=p2_cap,
                sim=sim,
                p1_cap=1 if force_p1_single else None,
            )
            try:
                res = search_best_partition(spec)
            except Infeasible:
                rows.append(TradeoffRow(kind, b, False, None, None, None, None))
                continue
            rows.append(
                TradeoffRow(
                    kind,
                    b,
                    True,
                    res.best,
                    res.report,
                    res.latency.mean,
                    res.latency.stderr,
                )
            )
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
