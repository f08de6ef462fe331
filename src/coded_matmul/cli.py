"""Command-line front end.

Subcommands map one-to-one onto the library layers: `overheads` prints the
exact cost model, `multiply` runs the coded job on one worker thread,
`simulate` estimates straggler latency, `tradeoff` emits the
budget-vs-latency CSV, and `run` drives the threaded master/worker demo.

Exit codes: 0 success, 1 usage or input error, 2 infeasible configuration
or verification failure.  CSV schemas are fixed; given the same argv and
seed the CSV output is byte-identical (trace timestamps are wall-clock and
necessarily vary).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .blockmat import (
    Matrix,
    PartitionScheme,
    format_matrix,
    matrix_multiply,
    read_matrix,
    write_matrix,
)
from .ffield import PrimeModulus
from .optimizer import render_tradeoff_csv, tradeoff_curve
from .runtime import InjectedDelay, JobFailed, JobSpec, JobTrace, render_trace_csv, run_job
from .schemes import (
    FieldTooSmall,
    SchemeKind,
    compute_overheads,
    recovery_threshold,
    render_csv,
    report_columns,
)
from .straggler_sim import SimTemplate, estimate_mean_latency

OVERHEADS_CSV_HEADER = "scheme,p0,p1,p2,K,R_th,R0,R1,delta,delta_u0,delta_u1,delta_d"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # our exit-code contract reserves 2 for infeasible/verification failures,
    # so bad flags must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _bounded(name: str, parse: type, low: int, strict: bool = False):
    """An argparse type: text `parse`d to a finite number at least `low`, or
    above it when `strict`.  argparse names `name` when `parse` refuses."""
    rule = f"{'>' if strict else '>='} {low}" + (" and finite" if parse is float else "")

    def convert(text: str):
        value = parse(text)
        if not (low < value if strict else low <= value) or not value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    convert.__name__ = name
    return convert


_positive_int = _bounded("_positive_int", int, 1)
_nonneg_int = _bounded("_nonneg_int", int, 0)
_nonneg_float = _bounded("_nonneg_float", float, 0)
_positive_float = _bounded("_positive_float", float, 0, strict=True)


def _add_partition_flags(sub, scheme_choices) -> None:
    sub.add_argument("--scheme", required=True, choices=scheme_choices)
    sub.add_argument("--p0", required=True, type=_positive_int)
    sub.add_argument("--p1", required=True, type=_positive_int)
    sub.add_argument("--p2", required=True, type=_positive_int)


def _add_model_flags(sub) -> None:
    """The straggler model that `_sim_template` reads."""
    sub.add_argument("--workers", required=True, type=_positive_int)
    sub.add_argument("--lambda-inv", required=True, type=_positive_float,
                     help="mean 1/lambda of the exponential tail")
    sub.add_argument("--t0", required=True, type=_nonneg_float)
    sub.add_argument("--trials", type=_positive_int, default=1000)
    sub.add_argument("--seed", type=_nonneg_int, default=0)


def _add_matrix_flags(sub) -> None:
    sub.add_argument("--a", required=True, help="left matrix file")
    sub.add_argument("--b", required=True, help="right matrix file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; `main` only parses with it."""
    parser = _Parser(
        prog="coded-matmul",
        description="Coded distributed matrix multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    kinds = [k.value for k in SchemeKind]

    p_over = sub.add_parser("overheads", help="exact overhead table for a partition")
    _add_partition_flags(p_over, kinds + ["all"])
    p_over.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_over.set_defaults(func=_cmd_overheads)

    p_mul = sub.add_parser("multiply", help="encode, compute, decode one product")
    _add_partition_flags(p_mul, kinds)
    _add_matrix_flags(p_mul)
    p_mul.add_argument("--q", type=int, help="override modulus (values reduced mod q)")
    p_mul.add_argument("--out", help="write product here instead of stdout")
    p_mul.add_argument("--verify", action="store_true",
                       help="recompute directly and require exact equality")
    p_mul.set_defaults(func=_cmd_multiply)

    p_sim = sub.add_parser("simulate", help="Monte Carlo straggler latency")
    _add_partition_flags(p_sim, kinds)
    _add_model_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tr = sub.add_parser("tradeoff", help="budget-constrained search, CSV out")
    p_tr.add_argument("--schemes", required=True,
                      help="comma-separated list (or 'all')")
    p_tr.add_argument("--budgets", required=True,
                      help="comma-separated overhead budgets")
    _add_model_flags(p_tr)
    p_tr.add_argument("--p0-cap", required=True, type=_positive_int)
    p_tr.add_argument("--p2-cap", required=True, type=_positive_int)
    p_tr.add_argument("--force-p1-1", action="store_true",
                      help="restrict the search to p1 = 1")
    p_tr.add_argument("--out", help="write CSV here instead of stdout")
    p_tr.set_defaults(func=_cmd_tradeoff)

    p_run = sub.add_parser("run", help="threaded master/worker demo")
    _add_partition_flags(p_run, kinds)
    p_run.add_argument("--workers", required=True, type=_positive_int)
    _add_matrix_flags(p_run)
    p_run.add_argument("--inject-t0", type=_nonneg_float, default=0.0,
                       help="injected per-task base delay, ms")
    p_run.add_argument("--inject-lambda-inv", type=_nonneg_float, default=0.0,
                       help="injected exponential tail mean, ms")
    p_run.add_argument("--seed", type=_nonneg_int, default=0)
    p_run.add_argument("--trace", help="write per-task trace CSV here")
    p_run.set_defaults(func=_cmd_run)

    return parser


# -- subcommand bodies -------------------------------------------------------


def _partition(args) -> PartitionScheme:
    return PartitionScheme(args.p0, args.p1, args.p2)


def _parse_kind_list(text: str) -> list[SchemeKind]:
    if text.strip() == "all":
        return list(SchemeKind)
    try:
        return [SchemeKind.parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _render_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    text = render_csv(OVERHEADS_CSV_HEADER, rows)
    if fmt == "csv":
        return text
    cells = [line.split(",") for line in text.splitlines()]  # no value holds a comma
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n"
                   for c in cells)


def _cmd_overheads(args) -> int:
    p = _partition(args)
    rows = [report_columns(compute_overheads(k, p)) for k in _parse_kind_list(args.scheme)]
    sys.stdout.write(_render_rows(rows, args.format))
    return 0


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_files(args, **spec) -> tuple[Matrix, Matrix, Matrix, JobTrace]:
    """Load the two matrix files and run the coded job on them: the inputs,
    the decoded product and the trace."""
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    if getattr(args, "q", None) is not None:
        q = PrimeModulus(args.q)
        a = Matrix(a.rows, a.cols, a.data % q.q, q)
        b = Matrix(b.rows, b.cols, b.data % q.q, q)
    elif a.modulus.q != b.modulus.q:
        raise _UsageError(
            f"moduli differ ({a.modulus.q} vs {b.modulus.q}); pass --q to override"
        )
    kind = SchemeKind.parse(args.scheme)
    return a, b, *run_job(JobSpec(kind, _partition(args), a, b, **spec))


def _verified(a: Matrix, b: Matrix, product: Matrix, what: str) -> bool:
    """Whether the product equals the direct one; if not, says so on stderr."""
    ok = product == matrix_multiply(a, b)
    if not ok:
        print(f"verification failed: {what} product differs from direct product",
              file=sys.stderr)
    return ok


def _cmd_multiply(args) -> int:
    a, b, product, _ = _run_files(args, workers=1)
    if args.verify and not _verified(a, b, product, "decoded"):
        return 2
    if args.out:
        write_matrix(product, args.out)
    else:
        sys.stdout.write(format_matrix(product))
    return 0


def _sim_template(args) -> SimTemplate:
    """The one straggler model `simulate` and `tradeoff` both read."""
    return SimTemplate(N=args.workers, T0=args.t0, lam=1.0 / args.lambda_inv,
                       trials=args.trials, seed=args.seed)


def _cmd_simulate(args) -> int:
    p = _partition(args)
    R_th = recovery_threshold(SchemeKind.parse(args.scheme), p)
    est = estimate_mean_latency(_sim_template(args), R_th, p.K)
    print(f"mean_latency {est.mean!r}")
    print(f"stderr {est.stderr!r}")
    return 0


def _parse_budget_list(text: str) -> list[Fraction]:
    try:
        budgets = [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad budget list {text!r}: {exc}") from exc
    if not budgets:
        raise _UsageError("empty budget list")
    return budgets


def _cmd_tradeoff(args) -> int:
    kinds = _parse_kind_list(args.schemes)
    if not kinds:
        raise _UsageError("empty scheme list")
    budgets = _parse_budget_list(args.budgets)
    rows = tradeoff_curve(
        kinds,
        budgets,
        p0_cap=args.p0_cap,
        p2_cap=args.p2_cap,
        sim=_sim_template(args),
        force_p1_single=args.force_p1_1,
    )
    _emit(render_tradeoff_csv(rows), args.out)
    return 0


def _cmd_run(args) -> int:
    delay = InjectedDelay(t0_ms=args.inject_t0, lam_inv_ms=args.inject_lambda_inv)
    a, b, product, trace = _run_files(args, workers=args.workers, delay=delay, seed=args.seed)
    if args.trace:
        _emit(render_trace_csv(trace), args.trace)
    ok = _verified(a, b, product, "runtime")
    print(f"scheme {trace.kind.value}")
    print(f"tasks {len(trace.records)}")
    print(f"workers {args.workers}")
    print(f"total_ms {trace.total_ms:.3f}")
    print(f"verified {'true' if ok else 'false'}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except (_UsageError, JobFailed, ValueError, OSError) as err:
        # FieldTooSmall is a ValueError, so its exit code goes by type
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, (FieldTooSmall, JobFailed)) else 1


if __name__ == "__main__":
    sys.exit(main())
