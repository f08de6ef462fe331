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

import random

import numpy as np
import pytest

from coded_matmul.blockmat import (
    DimensionError,
    Matrix,
    PartitionScheme,
    matrix_multiply,
    partition_matrix,
)
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus
from coded_matmul.schemes import (
    EvaluationGrid,
    FieldTooSmall,
    IncompleteResults,
    PointArityError,
    SchemeKind,
    SingularSystem,
    TaskResult,
    axis_names,
    decode_product,
    encode_shares,
    evaluation_grid,
    interpolate_univariate,
    project_point,
    recovery_threshold,
    upload_counts,
)

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
    """The one share of m at a (projected) point, as a Matrix."""
    (data,) = encode_shares(kind, p, input_id, m, [point])
    return Matrix(*data.shape, data, m.modulus)


def task_results(
    kind: SchemeKind,
    p: PartitionScheme,
    a: Matrix,
    b: Matrix,
    field: PrimeModulus,
) -> tuple[EvaluationGrid, list[TaskResult]]:
    """Encode both inputs and multiply share pairs at every grid task."""
    grid = evaluation_grid(kind, p, field)
    results = []
    for point in grid.tasks:
        s0 = share(kind, p, 0, a, project_point(kind, 0, point))
        s1 = share(kind, p, 1, b, project_point(kind, 1, point))
        results.append(TaskResult(point, matrix_multiply(s0, s1)))
    return grid, results


def run_scheme(
    kind: SchemeKind,
    p: PartitionScheme,
    a: Matrix,
    b: Matrix,
    field: PrimeModulus,
) -> Matrix:
    """Encode both inputs, multiply share pairs at every grid task, decode."""
    grid, results = task_results(kind, p, a, b, field)
    return decode_product(kind, p, grid, results)


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


def test_upload_counts_match_distinct_grid_projections() -> None:
    # Oracle: count distinct per-input projections of the actual task list.
    for kind in ALL_KINDS:
        for p0, p1, p2 in [(1, 1, 1), (2, 2, 2), (3, 2, 4), (2, 3, 1)]:
            p = PartitionScheme(p0, p1, p2)
            grid = evaluation_grid(kind, p, FBIG)
            distinct0 = {project_point(kind, 0, t) for t in grid.tasks}
            distinct1 = {project_point(kind, 1, t) for t in grid.tasks}
            assert upload_counts(kind, p) == (len(distinct0), len(distinct1))


# ---------------------------------------------------------------------------
# evaluation grids


def test_grid_tri_2_2_2() -> None:
    grid = evaluation_grid(SchemeKind.TRI, PartitionScheme(2, 2, 2), F101)
    assert grid.axes == ((1, 2), (1, 2, 3), (1, 2))
    assert len(grid.tasks) == 12


def test_grid_epc_trivial() -> None:
    grid = evaluation_grid(SchemeKind.EPC, PartitionScheme(1, 1, 1), F101)
    assert grid.axes == ((1,),)
    assert grid.tasks == ((1,),)


def test_grid_bi0_axis_sizes() -> None:
    p = PartitionScheme(3, 2, 4)
    grid = evaluation_grid(SchemeKind.BI0, p, F101)
    assert tuple(len(a) for a in grid.axes) == (3, 9)
    assert len(grid.tasks) == 27 == recovery_threshold(SchemeKind.BI0, p)


def test_grid_task_count_equals_threshold_everywhere() -> None:
    for kind in ALL_KINDS:
        for p0 in (1, 2, 3):
            for p1 in (1, 2, 3):
                for p2 in (1, 2, 3):
                    p = PartitionScheme(p0, p1, p2)
                    grid = evaluation_grid(kind, p, FBIG)
                    assert len(grid.tasks) == recovery_threshold(kind, p)
                    assert len(set(grid.tasks)) == len(grid.tasks)


def test_grid_lexicographic_order() -> None:
    grid = evaluation_grid(SchemeKind.TRI, PartitionScheme(2, 2, 2), F101)
    assert grid.tasks[:4] == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2))
    assert list(grid.tasks) == sorted(grid.tasks)


def test_grid_field_too_small() -> None:
    with pytest.raises(FieldTooSmall):
        evaluation_grid(SchemeKind.EPC, PartitionScheme(2, 2, 2), F7)  # needs 9 points
    # 7 > all of Tri's axis sizes at (2,2,2), so this one is fine
    evaluation_grid(SchemeKind.TRI, PartitionScheme(2, 2, 2), F7)


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
        g = evaluation_grid(kind, p, F101)
        for point in g.tasks:
            assert share(kind, p, 0, m, project_point(kind, 0, point)) == m


def test_encode_epc_at_one_sums_blocks() -> None:
    p = PartitionScheme(2, 1, 1)
    m = random_matrix(4, 2, F101, seed=1)
    grid = partition_matrix(m, 2, 1)
    assert share(SchemeKind.EPC, p, 0, m, (1,)) == (
        block(grid, 0, 0, F101) + block(grid, 1, 0, F101)
    )


def test_encode_tri_matches_direct_sum() -> None:
    # Brute force: sum over blocks of value * 2^b0 * 3^b1 mod 101.
    p = PartitionScheme(2, 2, 2)
    m = random_matrix(4, 4, F101, seed=2)
    grid = partition_matrix(m, 2, 2)
    expected = Matrix.zeros(2, 2, F101)
    for b0 in range(2):
        for b1 in range(2):
            c = pow(2, b0, 101) * pow(3, b1, 101) % 101
            expected = expected + block(grid, b0, b1, F101).scale(c)
    assert share(SchemeKind.TRI, p, 0, m, (2, 3)) == expected


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
            grid = evaluation_grid(kind, p, F101)
            for point in grid.tasks[:6]:
                proj = project_point(kind, input_id, point)
                # oracle works on the full-arity point
                assert share(kind, p, input_id, m, proj).at(0, 0) == poly_eval(poly, point, q)


def test_encode_is_linear() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, F101, seed=4)
    b = random_matrix(4, 4, F101, seed=5)
    for kind in ALL_KINDS:
        grid = evaluation_grid(kind, p, F101)
        point = grid.tasks[-1]
        proj = project_point(kind, 0, point)
        lhs = share(kind, p, 0, a + b, proj)
        rhs = share(kind, p, 0, a, proj) + share(kind, p, 0, b, proj)
        assert lhs == rhs


def test_encode_rejects_wrong_arity() -> None:
    p = PartitionScheme(2, 2, 2)
    m = random_matrix(4, 4, F101, seed=6)
    with pytest.raises(PointArityError):
        encode_shares(SchemeKind.TRI, p, 0, m, [(1, 2), (1, 2, 3)])  # input 0 uses (x, y)
    with pytest.raises(PointArityError):
        encode_shares(SchemeKind.EPC, p, 0, m, [(1, 2)])


def test_encode_rejects_indivisible_input() -> None:
    # a 4x3 left factor cannot be split into p0 x p1 = 2 x 2 blocks
    m = random_matrix(4, 3, F101, seed=25)
    with pytest.raises(DimensionError):
        encode_shares(SchemeKind.TRI, PartitionScheme(2, 2, 2), 0, m, [(1, 1)])


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
    coeffs = interpolate_univariate((1, 2, 3), np.stack([c, c, c]), F7)
    assert coeffs.tolist() == [[[5]], [[0]], [[0]]]


def test_interpolate_line_by_hand() -> None:
    # 1 + 2x fits (1,3) and (2,5) in F_7
    coeffs = interpolate_univariate((1, 2), np.array([[[3]], [[5]]]), F7)
    assert coeffs.ravel().tolist() == [1, 2]


def test_interpolate_round_trip_degree_5() -> None:
    rng = random.Random(8)
    coeffs = [random_matrix(2, 3, F101, seed=rng.randrange(10**6)) for _ in range(6)]
    points = (1, 2, 3, 4, 5, 6)
    samples = []
    for x in points:
        acc = Matrix.zeros(2, 3, F101)
        for k, c in enumerate(coeffs):
            acc = acc + c.scale(pow(x, k, 101))
        samples.append(acc.data)
    recovered = interpolate_univariate(points, np.stack(samples), F101)
    assert recovered.tolist() == [c.data.tolist() for c in coeffs]


def test_interpolate_rejects_repeated_points() -> None:
    c = np.array([[5]])
    with pytest.raises(SingularSystem):
        interpolate_univariate((1, 1, 2), np.stack([c, c, c]), F7)


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
    p = PartitionScheme(2, 3, 2)
    a = random_matrix(4, 6, F101, seed=20)
    b = random_matrix(6, 4, F101, seed=21)
    grid, results = task_results(kind, p, a, b, F101)
    shuffled = list(results)
    random.Random(22).shuffle(shuffled)
    assert shuffled != results
    for order in (results[::-1], shuffled):
        assert decode_product(kind, p, grid, order) == matrix_multiply(a, b)


def test_decode_epc_arbitrary_points() -> None:
    # Decoding must not depend on using the default 1..R_th axis.
    p = PartitionScheme(2, 2, 2)
    field = FBIG
    a = random_matrix(4, 4, field, seed=15)
    b = random_matrix(4, 4, field, seed=16)
    rng = random.Random(17)
    points = rng.sample(range(1000, 10**9), recovery_threshold(SchemeKind.EPC, p))
    grid = evaluation_grid(SchemeKind.EPC, p, field)
    results = []
    for x in points:
        s0 = share(SchemeKind.EPC, p, 0, a, (x,))
        s1 = share(SchemeKind.EPC, p, 1, b, (x,))
        results.append(TaskResult((x,), matrix_multiply(s0, s1)))
    assert decode_product(SchemeKind.EPC, p, grid, results) == matrix_multiply(a, b)


def test_decode_rejects_missing_and_duplicate_tasks() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 4, F101, seed=18)
    b = random_matrix(4, 4, F101, seed=19)
    grid, results = task_results(SchemeKind.TRI, p, a, b, F101)
    with pytest.raises(IncompleteResults):
        decode_product(SchemeKind.TRI, p, grid, results[:-1])
    with pytest.raises(IncompleteResults):
        decode_product(SchemeKind.TRI, p, grid, results[:-1] + [results[0]])


def test_share_shapes() -> None:
    p = PartitionScheme(2, 2, 2)
    a = random_matrix(4, 6, F101, seed=20)  # left factor 4x6 -> blocks 2x3
    b = random_matrix(6, 4, F101, seed=21)  # right factor 6x4 -> blocks 3x2
    grid = evaluation_grid(SchemeKind.BI0, p, F101)
    points = grid.tasks[:3]
    s0 = encode_shares(
        SchemeKind.BI0, p, 0, a, [project_point(SchemeKind.BI0, 0, t) for t in points]
    )
    s1 = encode_shares(
        SchemeKind.BI0, p, 1, b, [project_point(SchemeKind.BI0, 1, t) for t in points]
    )
    assert s0.shape == (3, 2, 3)
    assert s1.shape == (3, 3, 2)
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
