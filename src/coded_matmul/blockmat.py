"""Dense matrices over F_q with block partitioning and exact products.

A matrix is split into an equal-size grid of blocks: the left factor into
p0 x p1 blocks, the right factor into p1 x p2 blocks.  Block (n0, n2) of the
product is the sum over the middle index of blockwise products, which is the
identity every coding scheme in this package relies on.  Dimensions must be
exactly divisible by the partition counts; padding is never applied silently,
so decode-equality checks stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .ffield import PrimeModulus


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class ShapeError(ValueError):
    """Blocks in a grid do not share a single shape."""


@dataclass(frozen=True)
class PartitionScheme:
    """Block counts (p0, p1, p2): left factor p0 x p1, right factor p1 x p2."""

    p0: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        if min(self.p0, self.p1, self.p2) < 1:
            raise ValueError(f"partition counts must be >= 1, got {self}")

    @property
    def K(self) -> int:
        """Partition level: number of blockwise products in the full job."""
        return self.p0 * self.p1 * self.p2


@dataclass(frozen=True, eq=True)
class Matrix:
    """Row-major dense matrix of canonical residues in [0, q)."""

    rows: int
    cols: int
    data: list[int] = field(compare=True)
    modulus: PrimeModulus = field(compare=True)

    def __post_init__(self) -> None:
        if len(self.data) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries, got {len(self.data)}"
            )

    def at(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition requires equal shapes")
        q = self.modulus.q
        return Matrix(
            self.rows,
            self.cols,
            [(x + y) % q for x, y in zip(self.data, other.data)],
            self.modulus,
        )

    def scale(self, c: int) -> Matrix:
        q = self.modulus.q
        c %= q
        return Matrix(self.rows, self.cols, [c * x % q for x in self.data], self.modulus)

    @staticmethod
    def zeros(rows: int, cols: int, modulus: PrimeModulus) -> Matrix:
        return Matrix(rows, cols, [0] * (rows * cols), modulus)

    @staticmethod
    def identity(n: int, modulus: PrimeModulus) -> Matrix:
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return Matrix(n, n, data, modulus)

    @staticmethod
    def random(rows: int, cols: int, modulus: PrimeModulus, rng) -> Matrix:
        data = [rng.randrange(modulus.q) for _ in range(rows * cols)]
        return Matrix(rows, cols, data, modulus)


@dataclass(frozen=True)
class BlockGrid:
    """A pr x pc grid of equally shaped blocks tiling one matrix."""

    blocks: list[list[Matrix]]

    def __post_init__(self) -> None:
        if not self.blocks or not self.blocks[0]:
            raise ShapeError("empty block grid")
        first = self.blocks[0][0]
        for row in self.blocks:
            if len(row) != len(self.blocks[0]):
                raise ShapeError("ragged block grid")
            for blk in row:
                if (blk.rows, blk.cols) != (first.rows, first.cols):
                    raise ShapeError("blocks differ in shape")

    @property
    def pr(self) -> int:
        return len(self.blocks)

    @property
    def pc(self) -> int:
        return len(self.blocks[0])


def partition_matrix(m: Matrix, pr: int, pc: int) -> BlockGrid:
    """Split m into a pr x pc grid of contiguous equally sized blocks."""
    if m.rows % pr or m.cols % pc:
        raise DimensionError(
            f"{m.rows}x{m.cols} matrix not divisible into {pr}x{pc} blocks"
        )
    br, bc = m.rows // pr, m.cols // pc
    grid = []
    for i in range(pr):
        row = []
        for j in range(pc):
            data = []
            for r in range(i * br, (i + 1) * br):
                base = r * m.cols + j * bc
                data.extend(m.data[base : base + bc])
            row.append(Matrix(br, bc, data, m.modulus))
        grid.append(row)
    return BlockGrid(grid)


def assemble_blocks(g: BlockGrid) -> Matrix:
    """Tile the grid back into one matrix; exact inverse of partition_matrix."""
    br, bc = g.blocks[0][0].rows, g.blocks[0][0].cols
    rows, cols = g.pr * br, g.pc * bc
    data = [0] * (rows * cols)
    for i, row in enumerate(g.blocks):
        for j, blk in enumerate(row):
            for r in range(br):
                dst = (i * br + r) * cols + j * bc
                src = r * bc
                data[dst : dst + bc] = blk.data[src : src + bc]
    return Matrix(rows, cols, data, g.blocks[0][0].modulus)


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    """Standard product over F_q; the ground truth for every decode test."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.modulus.q != b.modulus.q:
        raise DimensionError("operands use different moduli")
    q = a.modulus.q
    n, m, k = a.rows, b.cols, a.cols
    # Transposing b gives contiguous column slices for the inner dot product.
    bt = [[b.data[r * m + j] for r in range(k)] for j in range(m)]
    out = [0] * (n * m)
    for i in range(n):
        arow = a.data[i * k : (i + 1) * k]
        base = i * m
        for j in range(m):
            out[base + j] = sum(x * y for x, y in zip(arow, bt[j])) % q
    return Matrix(n, m, out, a.modulus)


def read_matrix(path: str | Path) -> Matrix:
    """Read the plain-text format: header `rows cols q`, then one row per line."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols, q = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {lines[0]!r}") from exc
    modulus = PrimeModulus(q)
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(lines) - 1}")
    data: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = [int(tok) for tok in line.split()]
        if len(values) != cols:
            raise ValueError(f"{path}:{lineno}: expected {cols} values")
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"{path}:{lineno}: value {v} outside [0, {q})")
        data.extend(values)
    return Matrix(rows, cols, data, modulus)


def format_matrix(m: Matrix) -> str:
    """The plain-text format that `read_matrix` reads."""
    lines = [f"{m.rows} {m.cols} {m.modulus.q}"]
    for i in range(m.rows):
        lines.append(" ".join(str(v) for v in m.data[i * m.cols : (i + 1) * m.cols]))
    return "\n".join(lines) + "\n"


def write_matrix(m: Matrix, path: str | Path) -> None:
    Path(path).write_text(format_matrix(m))
