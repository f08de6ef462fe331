"""Matrix arithmetic and constructors that only the tests use.

The library holds arrays inside its pipeline and builds a `Matrix` only
where a matrix enters or leaves, so entry access, sums, scaling and the
zero, identity and random constructors live here.  Every result is built
through `Matrix`, so it passes the same checks as library output.  Sums
and scalings run on Python ints, which int64 entries near 2^63 would
overflow.
"""

from __future__ import annotations

import numpy as np

from coded_matmul.blockmat import DimensionError, Matrix
from coded_matmul.ffield import PrimeModulus


def at(m: Matrix, i: int, j: int) -> int:
    return int(m.data[i, j])


def add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError("matrix addition requires equal shapes")
    q = a.modulus.q
    return Matrix(a.rows, a.cols, (a.data.astype(object) + b.data) % q, a.modulus)


def scale(m: Matrix, c: int) -> Matrix:
    q = m.modulus.q
    return Matrix(m.rows, m.cols, c % q * m.data.astype(object) % q, m.modulus)


def zeros(rows: int, cols: int, modulus: PrimeModulus) -> Matrix:
    return Matrix(rows, cols, np.zeros(rows * cols, dtype=np.int64), modulus)


def identity(n: int, modulus: PrimeModulus) -> Matrix:
    return Matrix(n, n, np.eye(n, dtype=np.int64), modulus)


def random(rows: int, cols: int, modulus: PrimeModulus, rng) -> Matrix:
    """Uniform entries drawn with `rng.randrange`, row by row."""
    data = [rng.randrange(modulus.q) for _ in range(rows * cols)]
    return Matrix(rows, cols, data, modulus)
