"""Overhead model tests: worked cases plus closed-form identities.

The closed forms restated in `closed_form_delta` below are the oracle; the
library must reproduce them exactly (Fraction equality, no rounding) from
the task and share counts alone.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from coded_matmul.blockmat import PartitionScheme
from coded_matmul.schemes import OverheadReport, SchemeKind, compute_overheads, overhead_loads

ALL_KINDS = list(SchemeKind)


def closed_form_delta(kind: SchemeKind, p: PartitionScheme) -> Fraction:
    p0, p1, p2 = p.p0, p.p1, p.p2
    if kind is SchemeKind.EPC:
        return Fraction(p1 - 1, p0 * p1 * p2)
    if kind is SchemeKind.BI0:
        return Fraction(p1 - 1, p1 * p2)
    if kind is SchemeKind.BI2:
        return Fraction(p1 - 1, p0 * p1)
    return Fraction(p1 - 1, p1)


def all_partitions(limit: int):
    for p0 in range(1, limit + 1):
        for p1 in range(1, limit + 1):
            for p2 in range(1, limit + 1):
                yield PartitionScheme(p0, p1, p2)


def test_epc_2_2_2() -> None:
    r = compute_overheads(SchemeKind.EPC, PartitionScheme(2, 2, 2))
    assert r.R_th == 9
    assert r.delta == Fraction(1, 8)
    assert r.delta_u0 == r.delta_u1 == Fraction(5, 4)
    assert r.delta_d == Fraction(5, 4)


def test_tri_2_2_2() -> None:
    r = compute_overheads(SchemeKind.TRI, PartitionScheme(2, 2, 2))
    assert r.R_th == 12
    assert r.delta == Fraction(1, 2)
    assert r.delta_u0 == r.delta_u1 == Fraction(1, 2)
    assert r.delta_d == Fraction(2)


def test_bi0_2_2_2() -> None:
    r = compute_overheads(SchemeKind.BI0, PartitionScheme(2, 2, 2))
    assert (r.R_th, r.R0, r.R1) == (10, 10, 5)
    assert r.delta == Fraction(1, 4)
    assert r.delta_u0 == Fraction(3, 2)
    assert r.delta_u1 == Fraction(1, 4)
    assert r.delta_d == Fraction(3, 2)


def test_bi2_2_2_2() -> None:
    r = compute_overheads(SchemeKind.BI2, PartitionScheme(2, 2, 2))
    assert (r.R_th, r.R0, r.R1) == (10, 5, 10)
    assert r.delta == Fraction(1, 4)
    assert r.delta_u0 == Fraction(1, 4)
    assert r.delta_u1 == Fraction(3, 2)


def test_p1_equal_1_collapses() -> None:
    for kind in ALL_KINDS:
        r = compute_overheads(kind, PartitionScheme(3, 1, 4))
        assert r.delta == 0
        assert r.delta_d == 0
    tri = compute_overheads(SchemeKind.TRI, PartitionScheme(3, 1, 4))
    assert tri.delta_u0 == tri.delta_u1 == 0


def test_closed_forms_and_identities_exhaustive() -> None:
    for kind in ALL_KINDS:
        for p in all_partitions(6):
            r = compute_overheads(kind, p)
            assert isinstance(r.delta, Fraction)
            assert r.delta == closed_form_delta(kind, p)
            assert r.delta == Fraction(r.R_th, p.K) - 1
            assert r.delta_d == Fraction(r.R_th, p.p0 * p.p2) - 1
            assert r.delta_d == (p.p1 - 1) + p.p1 * r.delta
            assert r.delta_u0 == Fraction(r.R0, p.p0 * p.p1) - 1
            assert r.delta_u1 == Fraction(r.R1, p.p1 * p.p2) - 1
            assert r.delta >= 0


def test_upload_closed_forms() -> None:
    # epc uploads a fresh pair per task; bi0 reuses right shares across x;
    # bi2 reuses left shares across z; tri reuses both.
    for p in all_partitions(5):
        epc = compute_overheads(SchemeKind.EPC, p)
        bi0 = compute_overheads(SchemeKind.BI0, p)
        bi2 = compute_overheads(SchemeKind.BI2, p)
        tri = compute_overheads(SchemeKind.TRI, p)
        assert epc.delta_u0 == p.p2 - 1 + p.p2 * epc.delta
        assert epc.delta_u1 == p.p0 - 1 + p.p0 * epc.delta
        assert bi0.delta_u0 == p.p2 - 1 + p.p2 * bi0.delta
        assert bi0.delta_u1 == bi0.delta
        assert bi2.delta_u0 == bi2.delta
        assert bi2.delta_u1 == p.p0 - 1 + p.p0 * bi2.delta
        assert tri.delta_u0 == tri.delta == Fraction(p.p1 - 1, p.p1)
        assert tri.delta_u1 == tri.delta


def test_bi2_is_bi0_mirrored() -> None:
    for p in all_partitions(4):
        swapped = PartitionScheme(p.p2, p.p1, p.p0)
        a = compute_overheads(SchemeKind.BI2, p)
        b = compute_overheads(SchemeKind.BI0, swapped)
        assert a.delta == b.delta
        assert a.delta_d == b.delta_d
        assert a.delta_u0 == b.delta_u1
        assert a.delta_u1 == b.delta_u0
        assert (a.R0, a.R1) == (b.R1, b.R0)


def test_tradeoff_ordering() -> None:
    # more computation overhead buys less upload overhead, never the reverse
    for p in all_partitions(4):
        epc = compute_overheads(SchemeKind.EPC, p)
        bi0 = compute_overheads(SchemeKind.BI0, p)
        bi2 = compute_overheads(SchemeKind.BI2, p)
        tri = compute_overheads(SchemeKind.TRI, p)
        assert epc.delta <= bi0.delta <= tri.delta
        assert epc.delta <= bi2.delta <= tri.delta
        # each scheme is cheap exactly on the input it reuses
        assert bi0.delta_u1 <= epc.delta_u1
        assert bi2.delta_u0 <= epc.delta_u0
        assert tri.delta_u0 <= bi0.delta_u0
        assert tri.delta_u1 <= bi2.delta_u1
        if p.p0 >= 2 and p.p2 >= 2:
            # on the interior of the partition space the multivariate kinds
            # dominate epc on both uploads at once
            assert tri.delta_u0 <= epc.delta_u0
            assert tri.delta_u1 <= epc.delta_u1


def test_tradeoff_ordering_breaks_on_degenerate_axis() -> None:
    # With p0 = 1 there is no row dimension left to reuse across, so the
    # tri-variate grid's extra y points make its right-factor upload worse
    # than epc's.  Pinned so the interior-only claim above stays honest.
    p = PartitionScheme(1, 2, 2)
    tri = compute_overheads(SchemeKind.TRI, p)
    epc = compute_overheads(SchemeKind.EPC, p)
    assert tri.delta_u1 == Fraction(1, 2) > epc.delta_u1 == Fraction(1, 4)


def test_report_carries_inputs() -> None:
    p = PartitionScheme(3, 2, 4)
    r = compute_overheads(SchemeKind.BI0, p)
    assert isinstance(r, OverheadReport)
    assert r.kind is SchemeKind.BI0
    assert r.p == p


def test_loads_on_arrays_match_each_partition() -> None:
    # The optimizer reads the loads off arrays of the whole box at once.
    parts = list(all_partitions(4))
    box = SimpleNamespace(**{a: np.array([getattr(p, a) for p in parts]) for a in ("p0", "p1", "p2")})
    for kind in ALL_KINDS:
        columns = overhead_loads(kind, box)
        for i, p in enumerate(parts):
            r = compute_overheads(kind, p)
            loads = (r.R_th, r.R0 * p.p2, r.R1 * p.p0, r.R_th * p.p1)
            assert overhead_loads(kind, p) == loads
            assert tuple(int(c[i]) for c in columns) == loads
