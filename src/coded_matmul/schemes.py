"""The four coding schemes: encoding polynomials, grids, and exact decoding.

Each scheme encodes the blocks of the two factors as coefficients of low
degree polynomials, evaluates them on a deterministic grid (one evaluation
point per worker subtask), and recovers every block of the product as a
coefficient of the pointwise-product polynomial:

* epc packs all three partition dimensions into one variable, so every
  subtask needs a fresh pair of coded shares, but the task count is lowest.
* bi0 splits the left factor's row dimension onto its own variable x; the
  right factor depends on y alone, so one right share serves all x.
* bi2 is the mirror image: the right factor's column dimension gets its own
  variable z, and one left share (a function of y alone) serves all z.
* tri gives both outer dimensions their own variables; each input depends
  on only two of (x, y, z) and shares are reused across the third.

The product polynomial's coefficient at a known monomial equals one block
of the matrix product.  The grid is held as its axes.  An input's shares
are its block polynomial evaluated on the axes it reads, with length 1 on
the others so that they broadcast to the whole grid: all come from one
coefficient matrix (one row of monomial values per point) times the
input's blocks stacked one per row.  Decoding takes the products as one
array shaped by the axis sizes, applies to each axis in turn only the rows
of its inverse Vandermonde matrix at exponents some target monomial uses,
and gathers the product's blocks from their target coefficients.  Both
are F_q products through `blockmat.modmatmul`, so decoding equality is
bit-for-bit, not approximate.

A `Matrix` enters only as the input that `encode_shares` partitions and
leaves only as the product that `decode_product` assembles.  Between them,
shares and task result blocks are plain field arrays, which the encoder
and the kernel produce already reduced, so nothing checks them again.

The cost model reads the same table.  A job's overheads are ratios against
one uncoded server doing the same job, minus one, all exact `Fraction`s
over the common denominator K = p0 p1 p2:

* delta    — extra blockwise products: R_th / K - 1.
* delta_u0 — extra upload of the left factor: R0 / (p0 p1) - 1 = R0 p2 / K - 1.
* delta_u1 — extra upload of the right factor: R1 / (p1 p2) - 1 = R1 p0 / K - 1.
* delta_d  — extra download of result blocks: R_th / (p0 p2) - 1 = R_th p1 / K - 1,
             identically (p1 - 1) + p1 * delta.

`overhead_loads` writes out the four numerators over K; `compute_overheads`
and the optimizer's budget test both read them from there.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .blockmat import (
    Matrix,
    PartitionScheme,
    assemble_blocks,
    field_array,
    modmatmul,
    partition_matrix,
)
from .ffield import PrimeModulus


class FieldTooSmall(ValueError):
    """The modulus cannot supply enough distinct evaluation points."""


class PointArityError(ValueError):
    """A grid has the wrong number of axes for its scheme."""


class SingularSystem(ValueError):
    """Interpolation points are not pairwise distinct."""


class IncompleteResults(ValueError):
    """Grid axes or samples do not match the scheme's axis sizes."""


class SchemeKind(Enum):
    EPC = "epc"
    BI0 = "bi0"
    BI2 = "bi2"
    TRI = "tri"

    @classmethod
    def parse(cls, label: str) -> SchemeKind:
        try:
            return cls(label.strip().lower())
        except ValueError:
            choices = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown scheme {label!r}; expected one of: {choices}")


@dataclass(frozen=True)
class _Code:
    """One scheme's facts, as functions of the partition p.

    `axis_names` are the variables in grid-axis order; `input_axes` are
    the grid axes each input's polynomial reads; `sizes` gives the points
    per axis.  `left` and `right` give the monomial exponents of block
    (i, j) over that input's own axes: the left factor is indexed (b0, b1),
    the right factor (b1, b2), and the middle index runs in reversed order
    on the right factor so that the wanted block products line up on one
    monomial per output block.  `target` is the monomial of the product
    polynomial holding product block (n0, n2).
    """

    axis_names: tuple[str, ...]
    input_axes: tuple[tuple[int, ...], tuple[int, ...]]
    sizes: Callable[[PartitionScheme], tuple[int, ...]]
    left: Callable[[PartitionScheme, int, int], tuple[int, ...]]
    right: Callable[[PartitionScheme, int, int], tuple[int, ...]]
    target: Callable[[PartitionScheme, int, int], tuple[int, ...]]


# epc evaluates a single variable; the bivariate kinds each drop the outer
# variable that their reused input does not depend on.
_CODES = {
    SchemeKind.EPC: _Code(
        ("x",),
        ((0,), (0,)),
        sizes=lambda p: (p.p0 * p.p1 * p.p2 + p.p1 - 1,),
        left=lambda p, i, j: (p.p1 * p.p2 * i + j,),
        right=lambda p, i, j: (p.p1 * j + (p.p1 - 1 - i),),
        target=lambda p, n0, n2: (p.p1 * p.p2 * n0 + p.p1 * n2 + p.p1 - 1,),
    ),
    SchemeKind.BI0: _Code(
        ("x", "y"),
        ((0, 1), (1,)),
        sizes=lambda p: (p.p0, p.p1 * p.p2 + p.p1 - 1),
        left=lambda p, i, j: (i, p.p1 - 1 - j),
        right=lambda p, i, j: (j * p.p1 + i,),
        target=lambda p, n0, n2: (n0, p.p1 - 1 + n2 * p.p1),
    ),
    SchemeKind.BI2: _Code(
        ("y", "z"),
        ((0,), (0, 1)),
        sizes=lambda p: (p.p0 * p.p1 + p.p1 - 1, p.p2),
        left=lambda p, i, j: (p.p1 * i + j,),
        right=lambda p, i, j: (p.p1 - 1 - i, j),
        target=lambda p, n0, n2: (p.p1 * n0 + p.p1 - 1, n2),
    ),
    SchemeKind.TRI: _Code(
        ("x", "y", "z"),
        ((0, 1), (1, 2)),
        sizes=lambda p: (p.p0, 2 * p.p1 - 1, p.p2),
        left=lambda p, i, j: (i, j),
        right=lambda p, i, j: (p.p1 - 1 - i, j),
        target=lambda p, n0, n2: (n0, p.p1 - 1, n2),
    ),
}


def axis_names(kind: SchemeKind) -> tuple[str, ...]:
    return _CODES[kind].axis_names


def recovery_threshold(kind: SchemeKind, p: PartitionScheme) -> int:
    """Number of completed subtasks that determines the product: the grid size."""
    return math.prod(_CODES[kind].sizes(p))


def upload_counts(kind: SchemeKind, p: PartitionScheme) -> tuple[int, int]:
    """Distinct coded shares of each input needed to cover the grid.

    An input depending on a subset of the variables has one distinct share
    per point of the sub-grid spanned by those variables.
    """
    code = _CODES[kind]
    sizes = code.sizes(p)
    in0, in1 = code.input_axes
    return math.prod([sizes[a] for a in in0]), math.prod([sizes[a] for a in in1])


def overhead_loads(kind: SchemeKind, p: PartitionScheme) -> tuple:
    """The coded job's work, left upload, right upload and download, each as
    a numerator over K: R_th, R0 p2, R1 p0 and R_th p1.  Like the counts, it
    runs unchanged on a partition or on arrays of p0, p1 and p2."""
    (r0, r1), rth = upload_counts(kind, p), recovery_threshold(kind, p)
    return rth, r0 * p.p2, r1 * p.p0, rth * p.p1


@dataclass(frozen=True)
class OverheadReport:
    kind: SchemeKind
    p: PartitionScheme
    R_th: int
    R0: int
    R1: int
    delta: Fraction
    delta_u0: Fraction
    delta_u1: Fraction
    delta_d: Fraction


def compute_overheads(kind: SchemeKind, p: PartitionScheme) -> OverheadReport:
    """Each overhead as the exact `Fraction` (load - K) / K; the share
    counts are the upload loads over p2 and p0."""
    k = p.K
    rth, u0, u1, d = overhead_loads(kind, p)
    return OverheadReport(
        kind=kind,
        p=p,
        R_th=rth,
        R0=u0 // p.p2,
        R1=u1 // p.p0,
        delta=Fraction(rth - k, k),
        delta_u0=Fraction(u0 - k, k),
        delta_u1=Fraction(u1 - k, k),
        delta_d=Fraction(d - k, k),
    )


def report_columns(rep: OverheadReport) -> dict:
    """A report as output columns, in `coded-matmul overheads` order, each
    overhead as a float."""
    p = rep.p
    deltas = ("delta", "delta_u0", "delta_u1", "delta_d")
    return {"scheme": rep.kind.value, "p0": p.p0, "p1": p.p1, "p2": p.p2, "K": p.K,
            "R_th": rep.R_th, "R0": rep.R0, "R1": rep.R1,
            **{name: float(getattr(rep, name)) for name in deltas}}


def render_csv(header: str, rows: list[dict]) -> str:
    """The header line, then each row's values in the header's column order,
    blank where a row has no such column."""
    cols = header.split(",")
    return "\n".join([header, *(",".join(str(r.get(c, "")) for c in cols) for r in rows)]) + "\n"


def grid_axes(
    kind: SchemeKind, p: PartitionScheme, field: PrimeModulus
) -> tuple[tuple[int, ...], ...]:
    """The evaluation grid as its axes: axis k uses points 1..size_k."""
    sizes = _CODES[kind].sizes(p)
    if max(sizes) >= field.q:
        raise FieldTooSmall(
            f"{kind.value} at {p} needs {max(sizes)} distinct nonzero points "
            f"but q = {field.q}"
        )
    return tuple(tuple(range(1, n + 1)) for n in sizes)


def encode_shares(
    kind: SchemeKind, p: PartitionScheme, input_id: int, m: Matrix, axes: Sequence[Sequence[int]]
) -> np.ndarray:
    """Every distinct share of one input, over the grid spanned by `axes`.

    The array keeps the length of each axis the input reads, has length 1 on
    the others, and ends in the block shape: it broadcasts to the whole grid,
    and its size over the axes is the upload count.  All shares are one
    product, the monomial values (one row per point of the read sub-grid)
    times the input's pr x pc blocks stacked one per row; linear in m.
    """
    code = _CODES[kind]
    if len(axes) != len(code.axis_names):
        raise PointArityError(f"{kind.value} has {len(code.axis_names)} axes, got {len(axes)}")
    reads = code.input_axes[input_id]
    pr, pc = (p.p0, p.p1) if input_id == 0 else (p.p1, p.p2)
    blocks = partition_matrix(m, pr, pc)
    exponents = code.left if input_id == 0 else code.right
    q = m.modulus.q
    points = list(itertools.product(*(axes[a] for a in reads)))
    coeffs = [
        math.prod(pow(x, e, q) for x, e in zip(point, exponents(p, i, j))) % q
        for point in points
        for i in range(pr)
        for j in range(pc)
    ]
    br, bc = blocks.shape[2:]
    shares = modmatmul(
        field_array(coeffs).reshape(len(points), pr * pc), blocks.reshape(pr * pc, br * bc), q
    )
    return shares.reshape(*(len(ax) if k in reads else 1 for k, ax in enumerate(axes)), br, bc)


def _lagrange_basis(points: tuple[int, ...], q: int) -> list[list[int]]:
    """Coefficient rows of the Lagrange basis polynomials for the points.

    Row i holds the ascending coefficients of L_i, the unique polynomial of
    degree n-1 with L_i(points[i]) = 1 and 0 at the other points.  Built by
    forming the master root polynomial once and synthetically dividing out
    (x - points[i]) per point.
    """
    n = len(points)
    pts = [x % q for x in points]
    if len(set(pts)) != n:
        raise SingularSystem("interpolation points must be pairwise distinct")
    master = [1]
    for a in pts:
        nxt = [0] * (len(master) + 1)
        for k, c in enumerate(master):
            nxt[k + 1] = (nxt[k + 1] + c) % q
            nxt[k] = (nxt[k] - a * c) % q
        master = nxt
    basis = []
    for a in pts:
        quot = [0] * n
        carry = master[n]
        for k in range(n - 1, -1, -1):
            quot[k] = carry
            carry = (master[k] + a * carry) % q
        val = 0
        for k in range(n - 1, -1, -1):
            val = (val * a + quot[k]) % q
        w = pow(val, q - 2, q)
        basis.append([c * w % q for c in quot])
    return basis


def interpolate_univariate(
    points, samples: np.ndarray, field: PrimeModulus, exponents: Sequence[int]
) -> np.ndarray:
    """Recover the wanted coefficients fitting samples[i] at points[i], along axis 0.

    Entry j of the result's axis 0 holds the coefficient of degree
    exponents[j]; the other axes keep the samples' shape.  This is those
    rows of the inverse Vandermonde matrix (the transposed Lagrange basis)
    times the samples, through `modmatmul`.
    """
    n = len(points)
    if n == 0 or n != samples.shape[0]:
        raise SingularSystem("need equally many points and samples, at least one")
    q = field.q
    rows = field_array(_lagrange_basis(tuple(points), q)).T[np.asarray(exponents)]
    out = modmatmul(rows, samples.reshape(n, -1), q)
    return out.reshape(rows.shape[:1] + samples.shape[1:])


def decode_product(
    kind: SchemeKind,
    p: PartitionScheme,
    samples: np.ndarray,
    field: PrimeModulus,
    axes: Sequence[Sequence[int]],
) -> Matrix:
    """Interpolate the samples over `field` and assemble the p0 x p2 product blocks.

    `samples` is shaped (axis sizes..., block rows, block cols); entry i is
    the product at point (axes[0][i_0], axes[1][i_1], ...).  Each axis may
    hold any pairwise distinct points in any order; epc is the one-axis case.
    """
    sizes = _CODES[kind].sizes(p)
    if len(axes) != len(sizes):
        raise PointArityError(f"{kind.value} has {len(sizes)} axes, got {len(axes)}")
    if tuple(map(len, axes)) != sizes or samples.shape[:-2] != sizes:
        raise IncompleteResults(
            f"{kind.value} needs axes and samples of sizes {sizes}, got axes of sizes "
            f"{tuple(map(len, axes))} and samples shaped {samples.shape}"
        )

    # wanted[k] lists the target exponent on axis k of each product block,
    # and keep[k] the distinct ones.  Axis k of `coeffs` runs over the points
    # of axis k until it is interpolated, and over keep[k] after; the axis
    # that shrinks the array most goes first.
    target = _CODES[kind].target
    wanted = list(zip(*(target(p, n0, n2) for n0 in range(p.p0) for n2 in range(p.p2))))
    keep = [sorted(set(exps)) for exps in wanted]
    coeffs = samples
    for k in sorted(range(len(sizes)), key=lambda k: len(keep[k]) / sizes[k]):
        along = interpolate_univariate(axes[k], np.moveaxis(coeffs, k, 0), field, keep[k])
        coeffs = np.moveaxis(along, 0, k)
    index = [[kept.index(e) for e in exps] for kept, exps in zip(keep, wanted)]
    blocks = coeffs[tuple(np.array(ix) for ix in index)]
    return assemble_blocks(blocks.reshape(p.p0, p.p2, *samples.shape[-2:]), field)
