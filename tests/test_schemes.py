"""Coding scheme tests built around independent oracles.

Two oracles drive everything here:

* a symbolic sparse-polynomial oracle (`oracle_input_poly`, `poly_mul`,
  `poly_eval`) that restates each scheme's encoding sums directly and
  multiplies them exactly, so monomial support and target coefficients can
  be checked without any library decoding, and
* the plain `matrix_multiply` product as ground truth for full
  encode -> per-task multiply -> decode round trips.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from coded_matmul import schemes
from coded_matmul.blockmat import (
    DimensionError,
    Matrix,
    PartitionScheme,
    matrix_multiply,
    partition_matrix,
)
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus
from coded_matmul.schemes import (
    FieldTooSmall,
    IncompleteResults,
    PointArityError,
    SchemeKind,
    SingularSystem,
    axis_names,
    decode_product,
    encode_shares,
    grid_axes,
    interpolate_univariate,
    recovery_threshold,
    upload_counts,
)

import matrix_helpers as mh

F7 = PrimeModulus(7)
F101 = PrimeModulus(101)
FBIG = PrimeModulus(DEFAULT_MODULUS)

ALL_KINDS = list(SchemeKind)

# ---------------------------------------------------------------------------
# symbolic oracle: polynomials as {exponent tuple: scalar coefficient}

Poly = "dict[tuple[int, ...], int]"


def _add_term(poly: dict, exp: tuple[int, ...], coeff: int, q: int) -> None:
    poly[exp] = (poly.get(exp, 0) + coeff) % q


def oracle_input_poly(
    kind: SchemeKind,
    input_id: int,
    p: PartitionScheme,
    vals: dict[tuple[int, int], int],
    q: int,
) -> dict:
    """The encoding sum for one input, written out per scheme.

    Exponent tuples span the scheme's full variable list (unused variables
    get exponent 0) so the two inputs' polynomials can be multiplied.
    """
    p0, p1, p2 = p.p0, p.p1, p.p2
    poly: dict = {}
    if kind is SchemeKind.EPC:
        if input_id == 0:
            for b0 in range(p0):
                for b1 in range(p1):
                    _add_term(poly, (p1 * p2 * b0 + b1,), vals[b0, b1], q)
        else:
            for b1 in range(p1):
                for b2 in range(p2):
                    _add_term(poly, (p1 * b2 + b1,), vals[p1 - 1 - b1, b2], q)
    elif kind is SchemeKind.BI0:
        if input_id == 0:
            for b0 in range(p0):
                for b1 in range(p1):
                    _add_term(poly, (b0, p1 - 1 - b1), vals[b0, b1], q)
        else:
            for b1 in range(p1):
                for b2 in range(p2):
                    _add_term(poly, (0, b2 * p1 + b1), vals[b1, b2], q)
    elif kind is SchemeKind.BI2:
        if input_id == 0:
            for b0 in range(p0):
                for b1 in range(p1):
                    _add_term(poly, (p1 * b0 + b1, 0), vals[b0, b1], q)
        else:
            for b1 in range(p1):
                for b2 in range(p2):
                    _add_term(poly, (b1, b2), vals[p1 - 1 - b1, b2], q)
    else:  # TRI
        if input_id == 0:
            for b0 in range(p0):
                for b1 in range(p1):
                    _add_term(poly, (b0, b1, 0), vals[b0, b1], q)
        else:
            for b1 in range(p1):
                for b2 in range(p2):
                    _add_term(poly, (0, b1, b2), vals[p1 - 1 - b1, b2], q)
    return poly


def oracle_target_exponent(
    kind: SchemeKind, p: PartitionScheme, n0: int, n2: int
) -> tuple[int, ...]:
    p1 = p.p1
    if kind is SchemeKind.EPC:
        return (p1 * p.p2 * n0 + p1 * n2 + p1 - 1,)
    if kind is SchemeKind.BI0:
        return (n0, p1 - 1 + n2 * p1)
    if kind is SchemeKind.BI2:
        return (p1 * n0 + p1 - 1, n2)
    return (n0, p1 - 1, n2)


def poly_mul(a: dict, b: dict, q: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % q
    return out


def poly_eval(poly: dict, point: tuple[int, ...], q: int) -> int:
    total = 0
    for exp, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exp):
            term = term * pow(x, e, q) % q
        total = (total + term) % q
    return total


def scalar_block_values(p: PartitionScheme, which: int, rng: random.Random, q: int):
    rows, cols = ((p.p0, p.p1) if which == 0 else (p.p1, p.p2))
    return {(i, j): rng.randrange(q) for i in range(rows) for j in range(cols)}


def random_matrix(rows: int, cols: int, field: PrimeModulus, seed: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(
        rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)], field
    )


def block(blocks: np.ndarray, i: int, j: int, field: PrimeModulus) -> Matrix:
    """Block (i, j) of a partition_matrix result, as a Matrix."""
    return Matrix(*blocks.shape[2:], blocks[i, j], field)


def share(
    kind: SchemeKind, p: PartitionScheme, input_id: int, m: Matrix, point: tuple[int, ...]
) -> Matrix:
    """The one share of m at a grid point, encoded on one-point axes, as a Matrix."""
    data = encode_shares(kind, p, input_id, m, [(x,) for x in point])
    return Matrix(*data.shape[-2:], data.reshape(data.shape[-2:]), m.modulus)


def grid_points(axes) -> list[tuple[int, ...]]:
    """The grid's points in lexicographic index order."""
    return list(itertools.product(*axes))


def task_samples(
    kind: SchemeKind, p: PartitionScheme, a: Matrix, b: Matrix, axes
) -> np.ndarray:
    """Multiply the share pair at every grid point, each encoded on its own,
    into an array shaped (axis sizes..., block rows, block cols)."""
    blocks = [
        matrix_multiply(share(kind, p, 0, a, point), share(kind, p, 1, b, point)).data
        for point in grid_points(axes)
    ]
    return np.stack(blocks).reshape(tuple(map(len, axes)) + blocks[0].shape)


def run_scheme(
    kind: SchemeKind,
    p: PartitionScheme,
    a: Matrix,
    b: Matrix,
    field: PrimeModulus,
) -> Matrix:
    """Encode both inputs, multiply share pairs at every grid point, decode."""
    axes = grid_axes(kind, p, field)
    return decode_product(kind, p, task_samples(kind, p, a, b, axes), field, axes)


# ---------------------------------------------------------------------------
# recovery thresholds and upload counts


def test_recovery_threshold_worked_cases() -> None:
    p222 = PartitionScheme(2, 2, 2)
    assert recovery_threshold(SchemeKind.EPC, p222) == 9
    assert recovery_threshold(SchemeKind.TRI, p222) == 12
    assert recovery_threshold(SchemeKind.BI0, p222) == 10
    assert recovery_threshold(SchemeKind.BI2, p222) == 10


def test_recovery_threshold_collapses_at_p1_equal_1() -> None:
    for kind in ALL_KINDS:
        for p0 in range(1, 5):
            for p2 in range(1, 5):
                p = PartitionScheme(p0, 1, p2)
                assert recovery_threshold(kind, p) == p0 * p2


def test_recovery_threshold_bi2_is_bi0_with_outer_swap() -> None:
    for p0 in range(1, 5):
        for p1 in range(1, 5):
            for p2 in range(1, 5):
                a = recovery_threshold(SchemeKind.BI2, PartitionScheme(p0, p1, p2))
                b = recovery_threshold(SchemeKind.BI0, PartitionScheme(p2, p1, p0))
                assert a == b


def test_recovery_threshold_ordering() -> None:
    for p0 in range(1, 5):
        for p1 in range(1, 5):
            for p2 in range(1, 5):
                p = PartitionScheme(p0, p1, p2)
                epc = recovery_threshold(SchemeKind.EPC, p)
                bi0 = recovery_threshold(SchemeKind.BI0, p)
                bi2 = recovery_threshold(SchemeKind.BI2, p)
                tri = recovery_threshold(SchemeKind.TRI, p)
                assert epc <= bi0 <= tri
                assert epc <= bi2 <= tri


def test_upload_counts_worked_cases() -> None:
    p222 = PartitionScheme(2, 2, 2)
    assert upload_counts(SchemeKind.EPC, p222) == (9, 9)
    assert upload_counts(SchemeKind.TRI, p222) == (6, 6)
    assert upload_counts(SchemeKind.BI0, p222) == (10, 5)
    assert upload_counts(SchemeKind.BI2, p222) == (5, 10)


# The grid axes each input's polynomial reads, written out per scheme: an
# input's share at a point depends on those coordinates alone.
READS = {
    SchemeKind.EPC: ((0,), (0,)),
    SchemeKind.BI0: ((0, 1), (1,)),
    SchemeKind.BI2: ((0,), (0, 1)),
    SchemeKind.TRI: ((0, 1), (1, 2)),
}


def test_upload_counts_match_distinct_grid_projections() -> None:
    # Oracle: count distinct per-input projections of the lexicographic grid.
    for kind in ALL_KINDS:
        for p0, p1, p2 in [(1, 1, 1), (2, 2, 2), (3, 2, 4), (2, 3, 1)]:
            p = PartitionScheme(p0, p1, p2)
            points = grid_points(grid_axes(kind, p, FBIG))
            distinct = [{tuple(t[k] for k in reads) for t in points} for reads in READS[kind]]
            assert upload_counts(kind, p) == tuple(map(len, distinct))


# ---------------------------------------------------------------------------
# evaluation grids


def test_grid_tri_2_2_2() -> None:
    axes = grid_axes(SchemeKind.TRI, PartitionScheme(2, 2, 2), F101)
    assert axes == ((1, 2), (1, 2, 3), (1, 2))
    assert len(grid_points(axes)) == 12


def test_grid_epc_trivial() -> None:
    axes = grid_axes(SchemeKind.EPC, PartitionScheme(1, 1, 1), F101)
    assert axes == ((1,),)
    assert grid_points(axes) == [(1,)]


def test_grid_bi0_axis_sizes() -> None:
    p = PartitionScheme(3, 2, 4)
    axes = grid_axes(SchemeKind.BI0, p, F101)
    assert tuple(map(len, axes)) == (3, 9)
    assert len(grid_points(axes)) == 27 == recovery_threshold(SchemeKind.BI0, p)


def test_grid_task_count_equals_threshold_everywhere() -> None:
    for kind in ALL_KINDS:
        for p0 in (1, 2, 3):
            for p1 in (1, 2, 3):
                for p2 in (1, 2, 3):
                    p = PartitionScheme(p0, p1, p2)
                    axes = grid_axes(kind, p, FBIG)
                    assert math.prod(map(len, axes)) == recovery_threshold(kind, p)
                    assert all(len(set(axis)) == len(axis) for axis in axes)


def test_grid_lexicographic_order() -> None:
    points = grid_points(grid_axes(SchemeKind.TRI, PartitionScheme(2, 2, 2), F101))
    assert points[:4] == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
    assert points == sorted(points)


def test_grid_field_too_small() -> None:
    with pytest.raises(FieldTooSmall):
        grid_axes(SchemeKind.EPC, PartitionScheme(2, 2, 2), F7)  # needs 9 points
    # 7 > all of Tri's axis sizes at (2,2,2), so this one is fine
    grid_axes(SchemeKind.TRI, PartitionScheme(2, 2, 2), F7)


def test_axis_names() -> None:
    assert axis_names(SchemeKind.EPC) == ("x",)
    assert axis_names(SchemeKind.BI0) == ("x", "y")
    assert axis_names(SchemeKind.BI2) == ("y", "z")
    assert axis_names(SchemeKind.TRI) == ("x", "y", "z")


# ---------------------------------------------------------------------------
# encoding


def test_encode_trivial_partition_returns_sole_block() -> None:
    p = PartitionScheme(1, 1, 1)
    m = random_matrix(4, 4, F101, seed=0)
    for kind in ALL_KINDS:
        for point in grid_points(grid_axes(kind, p, F101)):
            assert share(kind, p, 0, m, point) == m


def test_encode_epc_at_one_sums_blocks() -> None:
    p = PartitionScheme(2, 1, 1)
    m = random_matrix(4, 2, F101, seed=1)
    grid = partition_matrix(m, 2, 1)
    assert share(SchemeKind.EPC, p, 0, m, (1,)) == mh.add(
        block(grid, 0, 0, F101), block(grid, 1, 0, F101)
    )


def test_encode_tri_matches_direct_sum() -> None:
    # Brute force: sum over blocks of value * 2^b0 * 3^b1 mod 101.
    p = PartitionScheme(2, 2, 2)
    m = random_matrix(4, 4, F101, seed=2)
    grid = partition_matrix(m, 2, 2)
    expected = mh.zeros(2, 2, F101)
    for b0 in range(2):
        for b1 in range(2):
            c = pow(2, b0, 101) * pow(3, b1, 101) % 101
            expected = mh.add(expected, mh.scale(block(grid, b0, b1, F101), c))
    # The left share reads (x, y) only, so every z gives the same one.
    for z in (1, 2):
        assert share(SchemeKind.TRI, p, 0, m, (2, 3, z)) == expected


def test_encode_matches_symbolic_oracle_scalar_blocks() -> None:
    # 1x1 blocks let the symbolic oracle evaluate the same encoding sum.
    q = F101.q
    rng = random.Random(3)
    for kind in ALL_KINDS:
        p = PartitionScheme(2, 3, 2)
        for input_id in (0, 1):
            rows, cols = ((p.p0, p.p1) if input_id == 0 else (p.p1, p.p2))
            vals = {
                (i, j): rng.randrange(q) for i in range(rows) for j in range(cols)
            }
            m = Matrix(
                rows, cols, [vals[i, j] for i in range(rows) for j in range(cols)], F101
            )
            poly = oracle_input_poly(kind, input_id, p, vals, q)
            # The encoded array, broadcast to the grid, matches the oracle
            # at every grid point.
            axes = grid_axes(kind, p, F101)
            sizes = tuple(map(len, axes))
            shares = np.broadcast_to(encode_shares(kind, p, input_id, m, axes), sizes + (1, 1))
            for ix, point in zip(np.ndindex(*sizes), grid_points(axes)):
                assert shares[ix][0, 0] == poly_eval(poly, point, q)


def test_encode_is_linear() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, F101, seed=4)
    b = random_matrix(4, 4, F101, seed=5)
    for kind in ALL_KINDS:
        point = grid_points(grid_axes(kind, p, F101))[-1]
        lhs = share(kind, p, 0, mh.add(a, b), point)
        rhs = mh.add(share(kind, p, 0, a, point), share(kind, p, 0, b, point))
        assert lhs == rhs


def test_encode_rejects_wrong_arity() -> None:
    p = PartitionScheme(2, 2, 2)
    m = random_matrix(4, 4, F101, seed=6)
    with pytest.raises(PointArityError):
        encode_shares(SchemeKind.TRI, p, 0, m, [(1, 2), (1, 2, 3)])  # tri has three axes
    with pytest.raises(PointArityError):
        encode_shares(SchemeKind.EPC, p, 0, m, [(1, 2), (1,)])


def test_encode_rejects_indivisible_input() -> None:
    # a 4x3 left factor cannot be split into p0 x p1 = 2 x 2 blocks
    m = random_matrix(4, 3, F101, seed=25)
    with pytest.raises(DimensionError):
        encode_shares(SchemeKind.TRI, PartitionScheme(2, 2, 2), 0, m, [(1,), (1,), (1,)])


# ---------------------------------------------------------------------------
# symbolic product structure: full-box support and target coefficients


def expected_box(kind: SchemeKind, p: PartitionScheme) -> set[tuple[int, ...]]:
    p0, p1, p2 = p.p0, p.p1, p.p2
    if kind is SchemeKind.EPC:
        return {(e,) for e in range(p0 * p1 * p2 + p1 - 1)}
    if kind is SchemeKind.BI0:
        return {
            (x, y) for x in range(p0) for y in range(p1 * p2 + p1 - 1)
        }
    if kind is SchemeKind.BI2:
        return {
            (y, z) for y in range(p0 * p1 + p1 - 1) for z in range(p2)
        }
    return {
        (x, y, z)
        for x in range(p0)
        for y in range(2 * p1 - 1)
        for z in range(p2)
    }


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 1), (1, 2, 3)])
def test_product_polynomial_structure(kind: SchemeKind, dims: tuple) -> None:
    q = FBIG.q
    p = PartitionScheme(*dims)
    rng = random.Random(7)
    vals0 = scalar_block_values(p, 0, rng, q)
    vals1 = scalar_block_values(p, 1, rng, q)
    prod = poly_mul(
        oracle_input_poly(kind, 0, p, vals0, q),
        oracle_input_poly(kind, 1, p, vals1, q),
        q,
    )
    # support fills the whole exponent box (random coefficients never cancel
    # to zero here; seeds are fixed)
    assert {e for e, c in prod.items() if c} == expected_box(kind, p)
    # the coefficient at each target exponent is the block-product sum
    for n0 in range(p.p0):
        for n2 in range(p.p2):
            want = sum(vals0[n0, b1] * vals1[b1, n2] for b1 in range(p.p1)) % q
            assert prod[oracle_target_exponent(kind, p, n0, n2)] == want


# ---------------------------------------------------------------------------
# univariate interpolation


def test_interpolate_constant() -> None:
    c = np.array([[5]])
    coeffs = interpolate_univariate((1, 2, 3), np.stack([c, c, c]), F7, range(3))
    assert coeffs.tolist() == [[[5]], [[0]], [[0]]]


def test_interpolate_line_by_hand() -> None:
    # 1 + 2x fits (1,3) and (2,5) in F_7
    coeffs = interpolate_univariate((1, 2), np.array([[[3]], [[5]]]), F7, range(2))
    assert coeffs.ravel().tolist() == [1, 2]


def test_interpolate_round_trip_degree_5() -> None:
    rng = random.Random(8)
    coeffs = [random_matrix(2, 3, F101, seed=rng.randrange(10**6)) for _ in range(6)]
    points = (1, 2, 3, 4, 5, 6)
    samples = []
    for x in points:
        acc = mh.zeros(2, 3, F101)
        for k, c in enumerate(coeffs):
            acc = mh.add(acc, mh.scale(c, pow(x, k, 101)))
        samples.append(acc.data)
    recovered = interpolate_univariate(points, np.stack(samples), F101, range(6))
    assert recovered.tolist() == [c.data.tolist() for c in coeffs]


@pytest.mark.parametrize("q", [101, 2**61 - 1])
def test_interpolate_keeps_rows_of_inverse_vandermonde(q: int) -> None:
    # With identity samples the result is the kept rows of the inverse
    # itself: all of them undo the Vandermonde matrix, and any subset is
    # those rows of the full inverse, in the order asked for.
    field = PrimeModulus(q)
    points = (3, 17, 5, 40, 9, 11)
    n = len(points)
    full = interpolate_univariate(points, np.eye(n, dtype=np.int64), field, range(n))
    vandermonde = [[pow(x, k, q) for k in range(n)] for x in points]
    inv = [[int(v) for v in row] for row in full]
    product = [
        [sum(inv[k][i] * vandermonde[i][j] for i in range(n)) % q for j in range(n)]
        for k in range(n)
    ]
    assert product == np.eye(n, dtype=int).tolist()
    some = interpolate_univariate(points, np.eye(n, dtype=np.int64), field, [4, 1])
    assert some.tolist() == [full[4].tolist(), full[1].tolist()]


def test_interpolate_rejects_repeated_points() -> None:
    c = np.array([[5]])
    with pytest.raises(SingularSystem):
        interpolate_univariate((1, 1, 2), np.stack([c, c, c]), F7, range(3))


# ---------------------------------------------------------------------------
# decoding


def test_decode_trivial_partition() -> None:
    p = PartitionScheme(1, 1, 1)
    a = random_matrix(3, 3, F101, seed=9)
    b = random_matrix(3, 3, F101, seed=10)
    for kind in ALL_KINDS:
        assert run_scheme(kind, p, a, b, F101) == matrix_multiply(a, b)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_decode_exact_2_2_2_big_field(kind: SchemeKind) -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, FBIG, seed=11)
    b = random_matrix(4, 4, FBIG, seed=12)
    assert run_scheme(kind, p, a, b, FBIG) == matrix_multiply(a, b)


@pytest.mark.parametrize("dims", [(3, 2, 2), (1, 3, 2), (2, 1, 3), (3, 3, 3)])
def test_decode_exact_more_partitions(dims: tuple) -> None:
    p = PartitionScheme(*dims)
    a = random_matrix(6, 6, F101, seed=13)
    b = random_matrix(6, 6, F101, seed=14)
    for kind in ALL_KINDS:
        assert run_scheme(kind, p, a, b, F101) == matrix_multiply(a, b)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_decode_accepts_results_in_any_order(kind: SchemeKind) -> None:
    # Each axis's points in another order, with the sample slices along
    # that axis permuted the same way.
    p = PartitionScheme(2, 3, 2)
    a = random_matrix(4, 6, F101, seed=20)
    b = random_matrix(6, 4, F101, seed=21)
    axes = grid_axes(kind, p, F101)
    samples = task_samples(kind, p, a, b, axes)
    rng = random.Random(22)
    shuffled = [rng.sample(range(len(axis)), len(axis)) for axis in axes]
    reversed_ = [list(range(len(axis)))[::-1] for axis in axes]
    assert shuffled != [list(range(len(axis))) for axis in axes]
    for perms in (reversed_, shuffled):
        order = [[axis[i] for i in perm] for axis, perm in zip(axes, perms)]
        permuted = samples[np.ix_(*perms)]
        assert decode_product(kind, p, permuted, F101, order) == matrix_multiply(a, b)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_decode_epc_arbitrary_points(kind: SchemeKind) -> None:
    # Decoding must not depend on using the default 1..size axes: each
    # axis gets random distinct points, in random order.
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, FBIG, seed=15)
    b = random_matrix(4, 4, FBIG, seed=16)
    rng = random.Random(17)
    sizes = map(len, grid_axes(kind, p, FBIG))
    axes = [rng.sample(range(1000, 10**9), n) for n in sizes]
    samples = task_samples(kind, p, a, b, axes)
    assert decode_product(kind, p, samples, FBIG, axes) == matrix_multiply(a, b)


@pytest.mark.parametrize("q", [101, 2**61 - 1])
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3), (2, 4, 2), (4, 1, 4)])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_decode_shuffled_random_grid(kind: SchemeKind, dims: tuple, q: int) -> None:
    # Random distinct points per axis, in random order, with both inputs
    # encoded once over those axes and broadcast to the grid.
    field = PrimeModulus(q)
    p = PartitionScheme(*dims)
    a = random_matrix(12, 4, field, seed=40)
    b = random_matrix(4, 12, field, seed=41)
    rng = random.Random(f"{kind.value} {dims} {q}")
    sizes = tuple(map(len, grid_axes(kind, p, field)))
    axes = [rng.sample(range(1, q), n) for n in sizes]
    s0, s1 = (
        np.broadcast_to(e, sizes + e.shape[-2:])
        for e in (encode_shares(kind, p, 0, a, axes), encode_shares(kind, p, 1, b, axes))
    )

    def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return matrix_multiply(Matrix(*x.shape, x, field), Matrix(*y.shape, y, field)).data

    samples = np.stack([mul(s0[ix], s1[ix]) for ix in np.ndindex(*sizes)])
    samples = samples.reshape(sizes + samples.shape[1:])
    assert decode_product(kind, p, samples, field, axes) == matrix_multiply(a, b)


@pytest.mark.parametrize(
    "kind, inverse_shapes",
    [
        # epc keeps p0 p2 = 4 of its 19 coefficients.
        (SchemeKind.EPC, [(4, 19)]),
        # bi0's y-axis keeps exponents 3 and 7 of 11 and goes first.
        (SchemeKind.BI0, [(2, 11), (2, 2)]),
        # bi2's y-axis keeps exponents 3 and 7 of 11.
        (SchemeKind.BI2, [(2, 11), (2, 2)]),
        # tri's y-axis keeps only exponent p1 - 1 = 3 of 7.
        (SchemeKind.TRI, [(1, 7), (2, 2), (2, 2)]),
    ],
    ids=lambda v: v.value if isinstance(v, SchemeKind) else None,
)
def test_decode_applies_only_wanted_rows(kind, inverse_shapes, monkeypatch) -> None:
    p = PartitionScheme(2, 4, 2)
    a = random_matrix(4, 8, F101, seed=42)
    b = random_matrix(8, 4, F101, seed=43)
    axes = grid_axes(kind, p, F101)
    samples = task_samples(kind, p, a, b, axes)
    shapes = []
    kernel = schemes.modmatmul

    def recorded(x, y, modulus):
        shapes.append(x.shape)
        return kernel(x, y, modulus)

    monkeypatch.setattr(schemes, "modmatmul", recorded)
    assert decode_product(kind, p, samples, F101, axes) == matrix_multiply(a, b)
    assert shapes == inverse_shapes


def test_decode_rejects_missing_and_duplicate_tasks() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, F101, seed=18)
    b = random_matrix(4, 4, F101, seed=19)
    axes = grid_axes(SchemeKind.TRI, p, F101)
    samples = task_samples(SchemeKind.TRI, p, a, b, axes)
    assert samples.shape == (2, 3, 2, 2, 2)
    assert decode_product(SchemeKind.TRI, p, samples, F101, axes) == matrix_multiply(a, b)
    x, y, z = axes
    # Missing or extra samples, or an axis with a point too few or too many.
    for bad_samples, bad_axes in [
        (samples[:, :, :1], axes),
        (samples[:, :2], axes),
        (np.concatenate([samples, samples[:1]]), axes),
        (samples, (x, y, z[:1])),
        (samples, (x, y + (4,), z)),
        (np.concatenate([samples, samples[:1]]), ((1, 2, 3), y, z)),
        (samples[..., 0, 0], axes),
    ]:
        with pytest.raises(IncompleteResults):
            decode_product(SchemeKind.TRI, p, bad_samples, F101, bad_axes)
    # A point twice on one axis leaves the system singular.
    with pytest.raises(SingularSystem):
        decode_product(SchemeKind.TRI, p, samples, F101, (x, (1, 2, 2), z))
    for bad_axes in [axes + ((1,),), (x, y)]:
        with pytest.raises(PointArityError):
            decode_product(SchemeKind.TRI, p, samples, F101, bad_axes)


def test_share_shapes() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 6, F101, seed=20)  # left factor 4x6 -> blocks 2x3
    b = random_matrix(6, 4, F101, seed=21)  # right factor 6x4 -> blocks 3x2
    axes = grid_axes(SchemeKind.BI0, p, F101)
    assert tuple(map(len, axes)) == (2, 5)
    # The left share reads (x, y), the right y alone.
    assert encode_shares(SchemeKind.BI0, p, 0, a, axes).shape == (2, 5, 2, 3)
    assert encode_shares(SchemeKind.BI0, p, 1, b, axes).shape == (1, 5, 3, 2)
    tri_axes = grid_axes(SchemeKind.TRI, p, F101)
    assert encode_shares(SchemeKind.TRI, p, 0, a, tri_axes).shape == (2, 3, 1, 2, 3)
    assert encode_shares(SchemeKind.TRI, p, 1, b, tri_axes).shape == (1, 3, 2, 3, 2)
    assert run_scheme(SchemeKind.BI0, p, a, b, F101) == matrix_multiply(a, b)


def test_rectangular_matrices_all_kinds() -> None:
    p = PartitionScheme(2, 3, 2)
    a = random_matrix(4, 6, F101, seed=22)
    b = random_matrix(6, 8, F101, seed=23)
    for kind in ALL_KINDS:
        assert run_scheme(kind, p, a, b, F101) == matrix_multiply(a, b)


def test_scheme_kind_parsing() -> None:
    assert SchemeKind.parse("epc") is SchemeKind.EPC
    assert SchemeKind.parse("TRI") is SchemeKind.TRI
    with pytest.raises(ValueError):
        SchemeKind.parse("quad")
