"""The four workloads: inputs from a seed, one job, and its correctness check.

Every workload is a closed loop with one caller, run in whole cycles of
its `cycle`.  A matrix job i runs scheme KINDS[i % 4], so every run has the
same scheme mix, and takes input i % POOL from a pool generated at set-up;
POOL is odd, so consecutive jobs never share an input.  A sweep job covers
all four schemes with a simulation seed derived from the workload seed and
i.  The warm-up job uses an input outside the pool and a seed no timed job
uses.

Products are checked against references computed here with numpy, never
with the program's `matrix_multiply`.  Checks run outside the job timer.
"""

from __future__ import annotations

import os
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

from coded_matmul import cli, optimizer, runtime, schemes
from coded_matmul.blockmat import Matrix, PartitionScheme
from coded_matmul.ffield import PrimeModulus

KINDS = ("epc", "bi0", "bi2", "tri")
POOL = 5
Q31 = 2**31 - 1
Q61 = 2**61 - 1


def recovery_threshold(kind: str, p: PartitionScheme) -> int:
    """R_th as the README's scheme table states it."""
    p0, p1, p2 = p.p0, p.p1, p.p2
    return {
        "epc": p0 * p1 * p2 + p1 - 1,
        "bi0": p0 * (p1 * p2 + p1 - 1),
        "bi2": (p0 * p1 + p1 - 1) * p2,
        "tri": p0 * p2 * (2 * p1 - 1),
    }[kind]


def uploads(kind: str, p: PartitionScheme) -> int:
    """R0 + R1 as the program's `upload_counts` gives them."""
    return sum(schemes.upload_counts(schemes.SchemeKind(kind), p))


def random_matrix(seed: int, name: str, slot: int, n: int, q: int) -> np.ndarray:
    ss = np.random.SeedSequence((seed, zlib.crc32(name.encode()), slot))
    return np.random.Generator(np.random.PCG64(ss)).integers(0, q, (n, n), dtype=np.int64)


def input_pair(seed: int, name: str, slot: int, n: int, q: int):
    """The two n x n factors of pool input `slot`."""
    return (
        random_matrix(seed, name, 2 * slot, n, q),
        random_matrix(seed, name, 2 * slot + 1, n, q),
    )


def reference_product(a: np.ndarray, b: np.ndarray, q: int) -> list[int]:
    """a @ b mod q, exact, as a flat list of ints.

    Below 2^31 the left factor is split into 16-bit limbs so every int64
    partial sum stays below 2^63 for inner dimensions up to 2^16; larger
    moduli use Python integers through object arrays.
    """
    if q < 2**31 and a.shape[1] < 2**16:
        hi, lo = a >> 16, a & 0xFFFF
        c = ((hi @ b) % q * 65536 + lo @ b) % q
    else:
        c = (a.astype(object) @ b.astype(object)) % q
    return [int(v) for v in c.ravel()]


def entries(m) -> list[int]:
    """The product's entries in row-major order, whatever holds them."""
    data = getattr(m, "data", m)
    return [int(v) for v in (data.ravel() if hasattr(data, "ravel") else data)]


def write_matrix_file(path: Path, m: np.ndarray, q: int) -> None:
    rows = [" ".join(map(str, row)) for row in m.tolist()]
    path.write_text(f"{m.shape[0]} {m.shape[1]} {q}\n" + "\n".join(rows) + "\n")


def job_seed(seed: int, i: int) -> int:
    """Seed of job i; job -1 is the warm-up."""
    return seed * 1_000_003 + i + 1


class MultiplyWorkload:
    """`coded-matmul multiply` through `cli.main`: files in, product file out."""

    span = "bench.job.multiply"
    cycle = KINDS

    def __init__(self, name, seed, workdir, *, n, q, p):
        self.name, self.seed, self.dir = name, seed, Path(workdir)
        self.n, self.q, self.p = n, q, PartitionScheme(*p)
        self.refs: list[list[int]] = []
        self.out = self.dir / "c.mat"
        self._write_pair(POOL)

    def _write_pair(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = input_pair(self.seed, self.name, slot, self.n, self.q)
        write_matrix_file(self.dir / f"a{slot}.mat", a, self.q)
        write_matrix_file(self.dir / f"b{slot}.mat", b, self.q)
        return a, b

    def _argv(self, kind: str, slot: int, out: Path) -> list[str]:
        p = self.p
        return [
            "multiply", "--scheme", kind,
            "--p0", str(p.p0), "--p1", str(p.p1), "--p2", str(p.p2),
            "--a", str(self.dir / f"a{slot}.mat"), "--b", str(self.dir / f"b{slot}.mat"),
            "--out", str(out),
        ]

    def warm_up(self) -> None:
        if cli.main(self._argv(KINDS[0], POOL, self.dir / "warm.mat")) != 0:
            raise RuntimeError(f"{self.name}: warm-up job failed")

    def prepare(self) -> None:
        for slot in range(POOL):
            a, b = self._write_pair(slot)
            self.refs.append(reference_product(a, b, self.q))

    def run(self, i: int) -> int:
        return cli.main(self._argv(KINDS[i % 4], i % POOL, self.out))

    def check(self, i: int, rc: int) -> bool:
        try:
            tokens = self.out.read_text().split()
        except OSError:
            return False
        finally:
            self.out.unlink(missing_ok=True)
        header = [self.n, self.n, self.q]
        return (
            rc == 0
            and [int(t) for t in tokens[:3]] == header
            and [int(t) for t in tokens[3:]] == self.refs[i % POOL]
        )

    def facts(self, i: int, rc: int, seconds: float) -> dict:
        kind = KINDS[i % 4]
        return {"uploads": uploads(kind, self.p), "r_th": recovery_threshold(kind, self.p)}

    def deterministic(self) -> bool:
        again = self.dir / "warm2.mat"
        rc = cli.main(self._argv(KINDS[0], POOL, again))
        return rc == 0 and again.read_bytes() == (self.dir / "warm.mat").read_bytes()


class RuntimeWorkload:
    """`runtime.run_job` in dynamic mode with injected straggler delays."""

    span = "bench.job.run"
    cycle = KINDS

    def __init__(self, name, seed, workdir, *, n, q, p, delay_ms, factors):
        self.name, self.seed = name, seed
        self.n, self.q, self.p = n, q, PartitionScheme(*p)
        self.workers = min(len(factors), os.cpu_count() or 1)
        self.factors = tuple(factors[: self.workers])
        self.delay = runtime.InjectedDelay(*delay_ms)
        self.pool: list[tuple[Matrix, Matrix]] = []
        self.refs: list[list[int]] = []
        self.warm = self._pair(POOL)[0]

    def _pair(self, slot: int):
        field = PrimeModulus(self.q)
        a, b = input_pair(self.seed, self.name, slot, self.n, self.q)
        mats = tuple(Matrix(self.n, self.n, m.ravel().tolist(), field) for m in (a, b))
        return mats, (a, b)

    def _spec(self, kind: str, mats, i: int) -> runtime.JobSpec:
        return runtime.JobSpec(
            kind=schemes.SchemeKind(kind),
            p=self.p,
            M0=mats[0],
            M1=mats[1],
            workers=self.workers,
            delay=self.delay,
            worker_delay_factors=self.factors,
            seed=job_seed(self.seed, i),
        )

    def warm_up(self) -> None:
        runtime.run_job(self._spec(KINDS[0], self.warm, -1))

    def prepare(self) -> None:
        for slot in range(POOL):
            mats, (a, b) = self._pair(slot)
            self.pool.append(mats)
            self.refs.append(reference_product(a, b, self.q))

    def run(self, i: int):
        return runtime.run_job(self._spec(KINDS[i % 4], self.pool[i % POOL], i))

    def check(self, i: int, out) -> bool:
        product, _ = out
        return entries(product) == self.refs[i % POOL]

    def facts(self, i: int, out, seconds: float) -> dict:
        kind = KINDS[i % 4]
        _, trace = out
        return {
            "uploads": uploads(kind, self.p),
            "r_th": recovery_threshold(kind, self.p),
            "run_s": seconds,
            "total_ms": trace.total_ms,
            "workers": self.workers,
            "records": [(r.worker, r.start_ms, r.end_ms) for r in trace.records],
            "encoded": sum(trace.encode_counts),
        }

    def deterministic(self) -> bool:
        # README promises identical bytes for multiply and tradeoff only; a
        # runtime job's product is already checked exactly on every job.
        return True


class SweepWorkload:
    """`optimizer.tradeoff_curve` over every scheme and budget."""

    span = "bench.job.sweep"
    cycle = ("all",)

    def __init__(self, name, seed, workdir, *, budgets, caps, N, T0, lam, trials):
        self.name, self.seed = name, seed
        self.budgets = [Fraction(b) for b in budgets]
        self.caps, self.N, self.T0, self.lam, self.trials = caps, N, T0, lam, trials
        self.warm_csv = ""

    def _sweep(self, i: int):
        sim = optimizer.SimTemplate(
            N=self.N, T0=self.T0, lam=self.lam, trials=self.trials, seed=job_seed(self.seed, i)
        )
        return optimizer.tradeoff_curve(
            [schemes.SchemeKind(k) for k in KINDS],
            self.budgets,
            p0_cap=self.caps[0],
            p2_cap=self.caps[1],
            sim=sim,
        )

    def warm_up(self) -> None:
        self.warm_csv = optimizer.render_tradeoff_csv(self._sweep(-1))

    def prepare(self) -> None:
        pass

    def run(self, i: int):
        return self._sweep(i)

    def check(self, i: int, rows) -> bool:
        """Per scheme: R_th by the README formula, overheads within budget,
        and the best latency never rising as the budget grows."""
        cells = [(k, b) for k in KINDS for b in self.budgets]
        if [(r.kind.value, r.budget) for r in rows] != cells:
            return False
        nb = len(self.budgets)
        return all(
            self._check_scheme(kind, rows[j * nb : (j + 1) * nb]) for j, kind in enumerate(KINDS)
        )

    def _check_scheme(self, kind: str, rows) -> bool:
        best = None
        for row in rows:
            if not row.feasible:
                if best is not None:
                    return False
                continue
            p, rep, b = row.p, row.report, row.budget
            rth = recovery_threshold(kind, p)
            if rep.R_th != rth or p.p0 > self.caps[0] or p.p2 > self.caps[1]:
                return False
            if max(rep.delta_u0, rep.delta_u1, rep.delta_d) > b:
                return False
            if Fraction(rth, p.p0 * p.p2) - 1 > b:
                return False
            if best is not None and row.mean_latency > best:
                return False
            best = row.mean_latency
        return True

    def facts(self, i: int, rows, seconds: float) -> dict:
        return {}

    def deterministic(self) -> bool:
        return optimizer.render_tradeoff_csv(self._sweep(-1)) == self.warm_csv


# Sizes keep every job under about a second on two cores, so a run of
# whole cycles yields enough jobs for a tail percentile.  BENCHMARK.json
# lists three of these; `multiply_fine_q61` is left out to keep the whole
# benchmark inside its run budget, and can still be run by name.
WORKLOADS = {
    "multiply_coarse": (MultiplyWorkload, dict(n=128, q=Q31, p=(2, 2, 2))),
    "multiply_fine_q61": (MultiplyWorkload, dict(n=64, q=Q61, p=(4, 4, 4))),
    "run_stragglers": (
        RuntimeWorkload,
        dict(n=96, q=Q31, p=(3, 2, 3), delay_ms=(200.0, 200.0), factors=(1.0, 3.0)),
    ),
    "tradeoff_sweep": (
        SweepWorkload,
        dict(
            budgets=("1/2", "1", "2", "4", "8"),
            caps=(6, 6),
            N=300,
            T0=1.0,
            lam=0.1,
            trials=20,
        ),
    ),
}


def make(name: str, seed: int, workdir: Path):
    cls, params = WORKLOADS[name]
    return cls(name, seed, workdir, **params)
