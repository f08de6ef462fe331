"""Budget-constrained search for the partition scheme with lowest simulated latency.

For each scheme and overhead budget the search space is the box
[1..p0_cap] x [1..p1_cap] x [1..p2_cap]; a scheme is feasible when its three
communication overheads all sit within the budget (exact rational
comparison, no floating slack).  The p1 cap never needs to be guessed: the
download overhead satisfies delta_d >= p1 - 1, so any p1 above
floor(budget) + 1 is infeasible and the cap is derived.

A sweep is one array pass per kind.  The box of its largest budget, the
same for every kind, is enumerated once as flat int64 arrays in
lexicographic order, on which `schemes.overhead_loads` evaluates unchanged.
It gives each overhead as a load over K, so with top the largest of the
three budgeted loads a point fits budget num/den exactly when
top <= floor((num + den) K / den).  That floor is taken on Python ints, once
per distinct K and budget, and clipped into int64, so one broadcast
comparison buckets every point by the smallest budget it fits, exact for
any rational budget however large its numerator or denominator.

Every candidate is simulated under one `straggler_sim.SimTemplate`, the
model `coded-matmul simulate` reads too.  One pooled completion table is
drawn per sweep, up to the largest R_th of its candidates, and each
candidate is scored once, as column R_th - 1 over K.  A column does not
depend on how far the table was drawn, so a candidate gets the same
estimate in every sweep and from `estimate_mean_latency(sim, R_th, K)`.
One `np.lexsort` by (mean, K, p0, p1, p2) ranks a kind's candidates, and a
budget's winner is the first of them whose bucket is at or below it.  So
cross-budget comparisons are exact: a larger budget's feasible set contains
the smaller one's, and the minimum over a superset of identical values
cannot increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .blockmat import PartitionScheme
from .schemes import (
    OverheadReport,
    SchemeKind,
    compute_overheads,
    overhead_loads,
    render_csv,
    report_columns,
)
from .straggler_sim import SimTemplate, check_array_bytes, completion_table, summarize

_INT64_MAX = np.iinfo(np.int64).max


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


def _box(
    levels: list[Fraction], p0_cap: int, p2_cap: int, force_p1_single: bool
) -> SimpleNamespace:
    """Every point of the box of the largest of the ascending `levels`, in
    lexicographic order, one array entry per point: p0, p1, p2 and K, and
    `limit[i, j]`, the largest budgeted load point i may have at levels[j].
    `overhead_loads` reads the namespace as a partition.  With `_feasible`,
    a point holds at least 80 bytes plus 8 per level at the peak."""
    if min(p0_cap, p2_cap) < 1:
        raise ValueError("partition caps must be >= 1")
    p1_cap = 1 if force_p1_single else max(math.floor(levels[-1]) + 1, 0)
    points = p0_cap * p1_cap * p2_cap
    check_array_bytes(points * (80 + 8 * len(levels)), f"the box of {points} partitions")
    axes = (np.arange(1, cap + 1, dtype=np.int64) for cap in (p0_cap, p1_cap, p2_cap))
    p0, p1, p2 = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    k = p0 * p1 * p2
    ks, at = np.unique(k, return_inverse=True)
    # top * den <= (num + den) * K exactly when top <= floor((num + den) K / den),
    # taken here on Python ints; every count is >= 1 and fits int64, so
    # clipping the floor into [0, int64 max] decides nothing.
    num = np.array([b.numerator + b.denominator for b in levels], dtype=object)
    den = np.array([b.denominator for b in levels], dtype=object)
    limit = np.clip(ks.astype(object)[:, None] * num // den, 0, _INT64_MAX).astype(np.int64)
    return SimpleNamespace(p0=p0, p1=p1, p2=p2, K=k, limit=limit[at])


def _feasible(
    kind: SchemeKind, box: SimpleNamespace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The box points that fit the largest level, in lexicographic order:
    their indices, their R_th and their bucket, the index of the smallest
    level each one fits."""
    rth, *budgeted = overhead_loads(kind, box)
    top = np.maximum.reduce(budgeted)
    bucket = (top[:, None] > box.limit).sum(axis=1)
    (idx,) = np.nonzero(bucket < box.limit.shape[1])
    return idx, rth[idx], bucket[idx]


def _partition(box: SimpleNamespace, i: int) -> PartitionScheme:
    return PartitionScheme(int(box.p0[i]), int(box.p1[i]), int(box.p2[i]))


def feasible_partitions(
    kind: SchemeKind, budget, *, p0_cap: int, p2_cap: int, force_p1_single: bool = False
) -> list[PartitionScheme]:
    """Every scheme in the box whose three overheads fit the budget, lexicographic."""
    box = _box([Fraction(budget)], p0_cap, p2_cap, force_p1_single)
    return [_partition(box, i) for i in _feasible(kind, box)[0]]


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
    latency, with that budget on all three overheads; infeasible cells
    become marked rows, not gaps.  Each budget is read as `Fraction(b)`, so
    a float is its exact binary value: 0.1 is not 1/10.

    Each kind's box points are bucketed by the smallest budget they fit,
    compared exactly on integers, and scored once off one table for all
    kinds.  Ties go to the smaller K, then the lexicographically smaller
    (p0, p1, p2): one `np.lexsort` ranks by (mean, K, p0, p1, p2), and each
    budget's winner is the first ranked candidate whose bucket is at or
    below it.  Objects are built only for the rows returned, with the
    estimates of `summarize`, each bit-identical to its row scored alone."""
    if not kinds or not budgets:
        raise ValueError("kinds and budgets must be nonempty")
    cells = [Fraction(b) for b in budgets]
    levels = sorted(set(cells))
    box = _box(levels, p0_cap, p2_cap, force_p1_single)
    found = [_feasible(kind, box) for kind in kinds]
    most = max(len(idx) for idx, _, _ in found)
    check_array_bytes(16 * most * sim.trials, f"{most} candidates over {sim.trials} trials")
    ranks = sorted(set(np.concatenate([rth for _, rth, _ in found]).tolist()))
    table = completion_table(sim, ranks).T if ranks else np.empty((0, sim.trials))
    rows = []
    for kind, (idx, rth, bucket) in zip(kinds, found):
        samples = table[np.searchsorted(ranks, rth)] / box.K[idx, None]
        order = np.lexsort(
            (box.p2[idx], box.p1[idx], box.p0[idx], box.K[idx], samples.mean(axis=1))
        )
        # The running minimum of the ranked buckets never rises, so budget
        # j's winner is the first ranked candidate where it reaches j.
        first = np.searchsorted(-np.minimum.accumulate(bucket[order]), -np.arange(len(levels)))
        (won,) = np.nonzero(first < len(order))
        chosen, at = np.unique(order[first[won]], return_inverse=True)
        made = []
        for c, est in zip(chosen.tolist(), summarize(samples[chosen])):
            part = _partition(box, idx[c])
            made.append((part, compute_overheads(kind, part), est.mean, est.stderr))
        best = {levels[j]: made[a] for j, a in zip(won.tolist(), at.tolist())}
        for b in cells:
            if b in best:
                rows.append(TradeoffRow(kind, b, True, *best[b]))
            else:
                rows.append(TradeoffRow(kind, b, False, None, None, None, None))
    return rows


TRADEOFF_CSV_HEADER = (
    "scheme,budget,p0,p1,p2,K,R_th,delta,delta_u0,delta_u1,delta_d,"
    "mean_latency,stderr,feasible"
)


def render_tradeoff_csv(rows: list[TradeoffRow]) -> str:
    """Stable text form of the trade-off table; identical rows give
    identical bytes."""
    table = []
    for row in rows:
        cols = {"scheme": row.kind.value, "budget": float(row.budget)}
        if row.feasible:
            cols |= report_columns(row.report) | {"mean_latency": row.mean_latency,
                                                  "stderr": row.stderr}
        table.append(cols | {"feasible": str(row.feasible).lower()})
    return render_csv(TRADEOFF_CSV_HEADER, table)
