"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
interleaved; without -s they still appear in captured output.  Every check
here restates the claim from scratch against library behavior; tolerances
are 3 sigma for Monte Carlo quantities and exact equality for everything
else.
"""

import functools
import math
import random
import time
from fractions import Fraction

from coded_matmul.blockmat import Matrix, PartitionScheme, matrix_multiply
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus
from coded_matmul.optimizer import feasible_partitions, tradeoff_curve
from coded_matmul.overheads import compute_overheads
from coded_matmul.runtime import InjectedDelay, JobSpec, run_job
from coded_matmul.schemes import (
    SchemeKind,
    TaskResult,
    decode_product,
    encode_shares,
    recovery_threshold,
    upload_counts,
)
from coded_matmul.straggler_sim import (
    LatencyEstimate,
    SimTemplate,
    estimate_mean_latency,
    trial_latencies,
)

import matrix_helpers as mh

F_BIG = PrimeModulus(DEFAULT_MODULUS)
ALL_KINDS = [SchemeKind.EPC, SchemeKind.BI0, SchemeKind.BI2, SchemeKind.TRI]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {num} ({name}): FAIL")
                raise
            print(f"acceptance {num} ({name}): PASS")

        return wrapper

    return deco


@criterion(1, "overhead identities")
def test_overhead_identities():
    started = time.perf_counter()
    for kind in ALL_KINDS:
        for p0 in range(1, 7):
            for p1 in range(1, 7):
                for p2 in range(1, 7):
                    p = PartitionScheme(p0, p1, p2)
                    rep = compute_overheads(kind, p)
                    if kind is SchemeKind.EPC:
                        delta = Fraction(p1 - 1, p0 * p1 * p2)
                    elif kind is SchemeKind.BI0:
                        delta = Fraction(p1 - 1, p1 * p2)
                    elif kind is SchemeKind.BI2:
                        delta = Fraction(p1 - 1, p0 * p1)
                    else:
                        delta = Fraction(p1 - 1, p1)
                    assert rep.delta == delta
                    assert rep.delta == Fraction(rep.R_th, p.K) - 1
                    assert rep.delta_d == (p1 - 1) + p1 * delta
                    assert rep.delta_u0 == Fraction(rep.R0, p0 * p1) - 1
                    assert rep.delta_u1 == Fraction(rep.R1, p1 * p2) - 1
    assert time.perf_counter() - started < 1.0


@criterion(2, "end-to-end exact decode")
def test_end_to_end_exact_decode():
    started = time.perf_counter()
    rng = random.Random(20260822)
    for kind in ALL_KINDS:
        for p0 in (1, 2, 3):
            for p1 in (1, 2, 3):
                for p2 in (1, 2, 3):
                    p = PartitionScheme(p0, p1, p2)
                    a = mh.random(6, 6, F_BIG, rng)
                    b = mh.random(6, 6, F_BIG, rng)
                    spec = JobSpec(kind, p, a, b, workers=1)
                    assert run_job(spec)[0] == matrix_multiply(a, b)
    assert time.perf_counter() - started < 30.0


@criterion(3, "univariate decode from arbitrary point sets")
def test_univariate_decode_from_random_points():
    rng = random.Random(99)
    for p in (PartitionScheme(2, 2, 2), PartitionScheme(3, 2, 2)):
        r_th = recovery_threshold(SchemeKind.EPC, p)
        a = mh.random(6, 6, F_BIG, rng)
        b = mh.random(6, 6, F_BIG, rng)
        points = rng.sample(range(1, 100000), r_th)
        shares0 = encode_shares(SchemeKind.EPC, p, 0, a, [(v,) for v in points])
        shares1 = encode_shares(SchemeKind.EPC, p, 1, b, [(v,) for v in points])
        results = []
        for v, s0, s1 in zip(points, shares0, shares1):
            s0, s1 = Matrix(*s0.shape, s0, F_BIG), Matrix(*s1.shape, s1, F_BIG)
            results.append(TaskResult((v,), matrix_multiply(s0, s1).data))
        decoded = decode_product(SchemeKind.EPC, p, results, F_BIG)
        assert decoded == matrix_multiply(a, b)


@criterion(4, "upload-count consistency in the runtime")
def test_upload_count_consistency():
    rng = random.Random(4)
    p = PartitionScheme(2, 2, 2)
    a = mh.random(4, 4, F_BIG, rng)
    b = mh.random(4, 4, F_BIG, rng)
    observed = {}
    for kind in ALL_KINDS:
        _, trace = run_job(JobSpec(kind=kind, p=p, M0=a, M1=b, workers=4, seed=1))
        assert trace.encode_counts == upload_counts(kind, p)
        observed[kind] = trace.encode_counts
    assert observed[SchemeKind.TRI] == (6, 6)
    assert observed[SchemeKind.BI0] == (10, 5)


@criterion(5, "simulator calibration anchors")
def test_simulator_calibration():
    started = time.perf_counter()

    # (a) one worker, one subtask, no partitioning: plain shifted exponential
    sim = SimTemplate(N=1, T0=1.0, lam=0.5, trials=10**4, seed=11)
    est = estimate_mean_latency(sim, R_th=1, K=1)
    expect = 1.0 + 1.0 / 0.5
    assert abs(est.mean - expect) <= 3 * est.stderr

    # (b) zero shift: pooled completions form a Poisson stream of rate N*lam*K,
    # so the R_th-th completion has mean exactly R_th/(N*lam*K)
    for n, r_th, k in ((5, 20, 4), (300, 900, 8)):
        sim = SimTemplate(N=n, T0=0.0, lam=1.0, trials=10**4, seed=13)
        est = estimate_mean_latency(sim, R_th=r_th, K=k)
        expect = r_th / (n * 1.0 * k)
        assert abs(est.mean - expect) <= 3 * est.stderr, (n, r_th, k)

    # (c) hard floor: someone must finish ceil(R_th/N) subtasks of >= T0/K each
    sim = SimTemplate(N=7, T0=2.0, lam=1.0, trials=2000, seed=17)
    samples = trial_latencies(sim, R_th=23, K=5)
    floor = -(-23 // 7) * 2.0 / 5
    assert samples.min() >= floor - 1e-12

    assert time.perf_counter() - started < 60.0


def witness_level(kind, K, budget):
    """Smallest K' >= K that a p1 = 1 witness of `kind` is built at.

    tri: m * m with m = ceil(sqrt K); bi: a multiple of floor(budget) + 1, the
    finest split of bi's charged axis that the budget allows.
    """
    if kind is SchemeKind.TRI:
        m = math.isqrt(K - 1) + 1
        return m * m
    step = math.floor(budget) + 1
    return -(-K // step) * step


def p1_single_witness(kind, K, budget):
    """The p1 = 1 partition of a multivariate `kind` with exactly K products.

    At p1 = 1 every code has R_th = K. tri then ships no overhead at all, and
    bi0 pays only delta_u0 = p2 - 1 (bi2 is its mirror image), so bi splits
    its charged axis as finely as the budget allows while dividing K and
    puts the rest of K on the free axis. tri needs K to be a square.
    """
    if kind is SchemeKind.TRI:
        m = math.isqrt(K)
        assert m * m == K, f"tri has no p1 = 1 partition with K={K}"
        return PartitionScheme(m, 1, m)
    charged = max(c for c in range(1, math.floor(budget) + 2) if K % c == 0)
    if kind is SchemeKind.BI0:
        return PartitionScheme(K // charged, 1, charged)
    return PartitionScheme(charged, 1, K // charged)


@criterion(6, "latency ordering across upload budgets")
def test_latency_ordering_across_budgets():
    """tri <= best bi <= epc at every budget, judged on feasible partitions.

    The search box caps p0 and p2 but not p1. At p1 = 1 splitting finer
    along p0 or p2 costs bi/tri nothing that the budgets charge (bi pays
    only p2 - 1 or p0 - 1 upload), so their winners sit on the caps at
    every budget, while epc grows through p1 and stays budget-bound. A
    cross-scheme cell that the sweep rows fail, with the slower code's
    winner on a cap, is therefore judged on that code's p1 = 1 witness, as
    fine as the faster winner and feasible at the same budget. A faster
    winner on a cap is box-bound too: it also gets its p1 = 1 witness, at
    the slower witness's K, and the slower witness must match the better
    of the two. At p1 = 1 tri and bi both have R_th = K, so they tie there.
    This rests on the simulator's assumption that any R_th completions
    decode, and on its charging no time for shipping shares.
    """
    started = time.perf_counter()
    budgets = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8)]
    cap = 10
    sim = SimTemplate(N=300, T0=1.0, lam=0.1, trials=1000, seed=42)
    rows = tradeoff_curve(ALL_KINDS, budgets, p0_cap=cap, p2_cap=cap, sim=sim)
    forced = tradeoff_curve(
        ALL_KINDS, budgets, p0_cap=cap, p2_cap=cap, sim=sim, force_p1_single=True
    )
    by_cell = {(r.kind, r.budget): r for r in rows}
    forced_by_cell = {(r.kind, r.budget): r for r in forced}

    def gap(r1, r2):
        return 3 * (r1.stderr**2 + r2.stderr**2) ** 0.5

    def on_cap(p):
        return p.p0 == cap or p.p2 == cap

    def label(kind, p, est):
        return f"{kind.value} ({p.p0},{p.p1},{p.p2}) K={p.K} {est.mean:.5f}"

    def row_entry(r):
        est = LatencyEstimate(r.mean_latency, r.stderr, sim.trials)
        where = "on a cap" if on_cap(r.p) else "in the box"
        return est, f"{label(r.kind, r.p, est)} {where}"

    def witness_entry(kind, K, b):
        """`kind`'s p1 = 1 witness with K products, asserted feasible at
        budget b and simulated as `simulate` would at the sweep's settings,
        which is exactly what the sweep gives that partition."""
        w = p1_single_witness(kind, K, b)
        box = feasible_partitions(kind, b, p0_cap=w.p0, p2_cap=w.p2, force_p1_single=True)
        assert w in box, (
            f"budget {float(b)}: witness {kind.value} ({w.p0},1,{w.p2}) infeasible"
        )
        est = estimate_mean_latency(sim, recovery_threshold(kind, w), w.K)
        return est, f"witness {label(kind, w, est)}"

    def judge(b, slow_rows, fast_row):
        """Verdict line and outcome of: the best of slow_rows is no slower
        than fast_row."""
        slow, slow_text = min(map(row_entry, slow_rows), key=lambda e: e[0].mean)
        fast, fast_text = row_entry(fast_row)
        head = f"budget {float(b)}: {slow_text} vs {fast_text}"
        if slow.mean <= fast.mean + gap(slow, fast):
            return f"{head}: holds on the sweep rows", True
        notes, held = [], False
        for r in slow_rows:
            if not on_cap(r.p):
                continue
            level = witness_level(r.kind, fast_row.p.K, b)
            w, w_text = witness_entry(r.kind, level, b)
            against, against_text = fast, fast_row.kind.value + " row"
            if on_cap(fast_row.p):
                fw, fw_text = witness_entry(fast_row.kind, level, b)
                if fw.mean < fast.mean:
                    against, against_text = fw, fw_text
            ok = w.mean <= against.mean + gap(w, against)
            held = held or ok
            notes.append(
                f"{w_text} {'holds' if ok else 'slower'} against {against_text}"
            )
        if not notes:
            notes.append("slower winner off the caps, no witness")
        return f"{head}: " + ", ".join(notes), held

    violations = []
    for b in budgets:
        epc = by_cell[(SchemeKind.EPC, b)]
        bi0 = by_cell[(SchemeKind.BI0, b)]
        bi2 = by_cell[(SchemeKind.BI2, b)]
        tri = by_cell[(SchemeKind.TRI, b)]
        assert all(r.feasible for r in (epc, bi0, bi2, tri)), (
            f"budget {float(b)}: infeasible "
            + ", ".join(r.kind.value for r in (epc, bi0, bi2, tri) if not r.feasible)
        )
        # A witness only stands in for the slower code, so the epc row must
        # be epc's budget-bound optimum, not one the box cut off.
        assert not on_cap(epc.p), f"budget {float(b)}: {row_entry(epc)[1]} is box-bound"
        best_bi = min(bi0, bi2, key=lambda r: r.mean_latency)
        for slow_rows, fast in (([tri], best_bi), ([bi0, bi2], epc)):
            line, held = judge(b, slow_rows, fast)
            print(f"acceptance 6 {line}")
            if not held:
                violations.append(line)

    for kind in ALL_KINDS:
        for b_lo, b_hi in zip(budgets, budgets[1:]):
            lo, hi = by_cell[(kind, b_lo)], by_cell[(kind, b_hi)]
            if hi.mean_latency > lo.mean_latency + gap(lo, hi):
                violations.append(
                    f"{kind.value} not nonincreasing between budgets "
                    f"{float(b_lo)} and {float(b_hi)}"
                )

    for key, free in by_cell.items():
        restricted = forced_by_cell[key]
        if restricted.feasible and (
            restricted.mean_latency < free.mean_latency - gap(free, restricted)
        ):
            violations.append(f"p1=1 restriction beat the free search at {key}")

    assert time.perf_counter() - started < 60.0
    assert not violations, "; ".join(violations)


@criterion(7, "feasible-set structure under budgets")
def test_feasible_set_structure():
    def feasible(kind, budget):
        return set(feasible_partitions(kind, budget, p0_cap=10, p2_cap=10))

    assert feasible(SchemeKind.EPC, Fraction(0)) == {PartitionScheme(1, 1, 1)}
    tri_zero = feasible(SchemeKind.TRI, Fraction(0))
    assert tri_zero == {
        PartitionScheme(p0, 1, p2) for p0 in range(1, 11) for p2 in range(1, 11)
    }
    assert len(tri_zero) == 100

    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    for kind in ALL_KINDS:
        sets = [feasible(kind, b) for b in grid]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger, kind


@criterion(8, "runtime exactness and dynamic-over-static latency")
def test_runtime_exactness_under_stragglers():
    rng = random.Random(8)
    p = PartitionScheme(2, 2, 2)
    a = mh.random(8, 8, F_BIG, rng)
    b = mh.random(8, 8, F_BIG, rng)
    direct = matrix_multiply(a, b)
    skew = (10.0,) + (1.0,) * 7
    delay = InjectedDelay(t0_ms=8.0, lam_inv_ms=2.0)

    for kind in ALL_KINDS:
        product, _ = run_job(
            JobSpec(kind=kind, p=p, M0=a, M1=b, workers=8, delay=delay,
                    worker_delay_factors=skew, seed=3)
        )
        assert product == direct, kind

    dyn, sta = [], []
    for rep in range(20):
        base = dict(kind=SchemeKind.EPC, p=p, M0=a, M1=b, workers=8, delay=delay,
                    worker_delay_factors=skew, seed=5000 + rep)
        _, tr_d = run_job(JobSpec(mode="dynamic", **base))
        _, tr_s = run_job(JobSpec(mode="static", **base))
        dyn.append(tr_d.total_ms)
        sta.append(tr_s.total_ms)
    assert sum(dyn) / len(dyn) < sum(sta) / len(sta)
