"""Dense matrices over F_q with block partitioning and one exact product kernel.

A `Matrix` holds a checked rows x cols `field_array`, int64 for every q the
program accepts (q < 2^63).  It is the boundary type: what `read_matrix`
returns and `write_matrix` takes, a job's two inputs and its decoded
product, and the operands of `matrix_multiply`, the reference product.
Inside the coded pipeline, blocks, shares and task results are plain field
arrays, and `modmatmul` is the one F_q matrix product under encoding,
per-task multiply and decoding.

`modmatmul` multiplies in 16-bit limbs with float64 BLAS products, which
are exact while every sum they form stays at most 2^52; its docstring gives
the rule.  Its products run on one BLAS thread, which the package decides
when it is imported, before numpy is (see `coded_matmul`).

A matrix is split into an equal-size grid of blocks, held as one array
indexed (block row, block column, row, col): the left factor into p0 x p1
blocks, the right factor into p1 x p2 blocks.  Block (n0, n2) of the
product is the sum over the middle index of blockwise products, which is
the identity every coding scheme in this package relies on.  Dimensions
must be exactly divisible by the partition counts; padding is never
applied silently, so decode-equality checks stay exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ffield import PrimeModulus, is_integer

# Inner dimensions below this multiply by `_short_product` for q < 2^31: up
# to 31 its sums stay exact.  It is faster than the limb kernel at every
# inner dimension it takes, so exactness sets the bound.  Medians of 300
# interleaved rounds (2-vCPU host, one OpenBLAS thread), its time over the
# limb kernel's: 0.35x on (9 x 4) @ (4 x 4096), 0.34x on (4 x 9) @
# (9 x 4096), 0.37x and 0.38x at inner 16 and 31 on 9 x 4096 outputs,
# 0.39x on (64 x 31) @ (31 x 64) and 0.42x on (4 x 31) @ (31 x 4).
_SHORT_INNER = 32

# The characters of a matrix file that `read_matrix` parses in bulk: ASCII
# digits, signs and whitespace.  numpy's integer parser reads some other text
# differently from `int()`: it misreads some non-ASCII characters as digits,
# and numpy releases before the removal of a 1.23 deprecation truncate
# decimals such as `2.5` or `1e3` with only a DeprecationWarning.  The
# whitespace is Python's `string.whitespace`.
_BULK_CHARS = b"0123456789+- \t\n\r\x0b\x0c"

# Entries per block of rows that `_text` formats at once.  A block's arrays
# (32 KiB per int64 array, 84 KiB of records at 19 digits) stay below
# glibc's 128 KiB mmap threshold, so the heap reuses them from block to
# block.  Arrays of a whole 128 x 128 matrix were mapped afresh on many
# writes, at 60 to 190 minor page faults each.
_TEXT_BLOCK = 4096


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class ShapeError(ValueError):
    """Entries or blocks do not match the shape they are declared with."""


@dataclass(frozen=True)
class PartitionScheme:
    """Block counts (p0, p1, p2): left factor p0 x p1, right factor p1 x p2."""

    p0: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        if not all(map(is_integer, (self.p0, self.p1, self.p2))):
            raise ValueError(f"partition counts must be integers, got {self}")
        if min(self.p0, self.p1, self.p2) < 1:
            raise ValueError(f"partition counts must be >= 1, got {self}")

    @property
    def K(self) -> int:
        """Partition level: number of blockwise products in the full job."""
        return self.p0 * self.p1 * self.p2


def field_array(data) -> np.ndarray:
    """Entries as held over F_q: int64, which holds every residue below 2^63."""
    return np.asarray(data, dtype=np.int64)


def modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact a @ b mod q, as int64, for 2-D int64 arrays of residues in [0, q).

    Both factors split into L = ceil(bits(q - 1) / 16) limbs of 16 bits, held
    in float64, and the limb products are dgemms.  Diagonal d of the product
    sums the limb pairs (i, d - i), so it has at most L terms, each a sum of
    `inner` products below 2^32: the inner dimension is cut into chunks of at
    most 2^52 / (L * (2^16 - 1)^2) columns (524,304 at L = 2, 262,152 at
    L = 4), which keeps every partial sum an integer of at most 2^52, exact
    in float64 in any order.  `_limb_product` reduces one chunk, and the
    chunks' residues are added mod q.

    Where q < 2^31 and the inner dimension is below `_SHORT_INNER`, as in
    share encoding and decoding, `_short_product` splits a alone and takes
    two dgemms against b whole.
    """
    if q < 2**31 and a.shape[1] < _SHORT_INNER:
        return _short_product(a, b, q)
    inner = a.shape[1]
    limbs = -(-(q - 1).bit_length() // 16)
    chunk = 2**52 // (limbs * 0xFFFF**2)
    out = _limb_product(a[:, :chunk], b[:chunk], q, limbs)
    for start in range(chunk, inner, chunk):
        out += _limb_product(a[:, start:start + chunk], b[start:start + chunk], q, limbs)
        np.minimum(out, out - np.uint64(q), out=out)
    return out.view(np.int64)


def _short_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, as int64, for q < 2^31 and an inner dimension below 32.

    a splits into 16-bit limbs, a = hi * 2^16 + lo, held in float64 with b
    whole, and the product is ((hi @ b) mod q * 2^16 + lo @ b) mod q.  Each
    dgemm sums at most 31 products below 2^47, so it is exact.  `_reduce`
    takes hi @ b to [0, q], which keeps x * 2^16 + lo @ b below
    2^47 + 31 * 2^47 = 2^52, and takes that to [0, q]; one conditional
    subtract of q on the int64 result ends it.  Beside x, the output runs
    through one scratch array, which becomes the result.
    """
    fb = b.astype(np.float64)
    x = np.matmul((a >> 16).astype(np.float64), fb)
    scratch = np.empty_like(x)
    _reduce(x, scratch, q)
    x *= 2.0**16
    x += np.matmul((a & 0xFFFF).astype(np.float64), fb, out=scratch)
    _reduce(x, scratch, q)
    out = scratch.view(np.int64)
    np.copyto(out, x, casting="unsafe")
    u = out.view(np.uint64)
    np.minimum(u, np.subtract(u, np.uint64(q), out=x.view(np.uint64)), out=u)
    return out


def _reduce(x: np.ndarray, scratch: np.ndarray, q: int) -> None:
    """x -= floor(x * (1/q)) * q in place, for float64 x of integers in [0, 2^52).

    This leaves x in [0, q].  The computed quotient carries two roundings,
    so it is within (x / q) * (2^-52 + 2^-106) < 1/q of x / q, which lies
    at least 1/q below the next integer.  So its floor is floor(x / q), or
    one less where q divides x and the quotient rounds down, which leaves
    q.  The product of the floor and q and the difference are integers
    below 2^52, exact.  `scratch` is overwritten.
    """
    np.multiply(x, 1.0 / q, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= q
    x -= scratch


def _limbs(x: np.ndarray, limbs: int) -> np.ndarray:
    """The low `limbs` 16-bit limbs of x's entries, as a last axis, low limb first."""
    return np.ascontiguousarray(x, dtype="<i8").view(np.uint16).reshape(*x.shape, 4)[..., :limbs]


def _limb_product(a: np.ndarray, b: np.ndarray, q: int, limbs: int) -> np.ndarray:
    """a @ b mod q, as uint64, where every diagonal sum is at most 2^52.

    a's limbs lie side by side, low limb first, and b's are stacked high limb
    first, so the pairs (i, d - i) of diagonal d are one column slice of the
    one and one row slice of the other, and each diagonal is one dgemm.

    The diagonals combine from the top by Horner's rule in base 2^16: each
    step forms y = r * 2^16 + s from the residue so far, r in [0, 2q), and the
    diagonal, s in [0, 2^52], and sets r = y - t * q.  The quotient t is
    y / q estimated in float64 less 1/2, truncated.  The estimate is off by
    less than 0.34: for q >= 2^20, y / q < 2^17 + 2^32 and four roundings
    give at most 2^-19; below, y < 2^53 is exact and two roundings give at
    most (2^17 + 2^52 / 3) * 2^-52.  So t is floor(y / q) or one less, and r
    stays in [0, 2q).  y and t * q exceed 64 bits, but r does not, so r is
    formed in wrapping uint64 arithmetic, which is exact mod 2^64.  One
    conditional subtract of q ends it.  No step uses an array `%`, which
    costs about ten float multiplies.
    """
    (m, k), n = a.shape, b.shape[1]
    fa = np.ascontiguousarray(_limbs(a, limbs).transpose(0, 2, 1), dtype=np.float64)
    fa = fa.reshape(m, limbs * k)
    fb = np.ascontiguousarray(_limbs(b, limbs)[..., ::-1].transpose(2, 0, 1), dtype=np.float64)
    fb = fb.reshape(limbs * k, n)
    qinv, uq = 1.0 / q, np.uint64(q)
    s, e = np.empty((m, n)), np.empty((m, n))
    t = np.empty((m, n), np.int64)
    t_unsigned = t.view(np.uint64)
    r = np.zeros((m, n), np.uint64)
    # r converts to float faster as int64, which holds it while 2q <= 2^63.
    r_signed = r.view(np.int64) if q <= 2**62 else r
    for d in range(2 * limbs - 2, -1, -1):
        i0, i1 = max(0, d - limbs + 1), min(d, limbs - 1) + 1
        j0 = limbs - 1 - d + i0
        np.matmul(fa[:, i0 * k:i1 * k], fb[j0 * k:(j0 + i1 - i0) * k], out=s)
        np.multiply(r_signed, 2.0**16, out=e)
        e += s
        e *= qinv
        e -= 0.5
        r <<= np.uint64(16)
        np.copyto(t_unsigned, s, casting="unsafe")
        r += t_unsigned
        np.copyto(t, e, casting="unsafe")
        t_unsigned *= uq
        r -= t_unsigned
    np.minimum(r, np.subtract(r, uq, out=t_unsigned), out=r)
    return r


@dataclass(frozen=True, eq=False)
class Matrix:
    """A rows x cols matrix of canonical residues in [0, q).

    `data` takes rows * cols integer entries in row-major order, in any
    array-like form, and holds them as its own read-only rows x cols
    `field_array`, which no later write to the input reaches.  Both
    dimensions are integers of at least 1.
    """

    rows: int
    cols: int
    data: np.ndarray
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        q = self.modulus.q
        if not (is_integer(self.rows) and is_integer(self.cols)):
            raise ValueError(f"matrix dimensions must be integers, got {self.rows!r}x{self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"matrix dimensions must be >= 1, got {self.rows}x{self.cols}")
        raw = np.asarray(self.data)
        if raw.dtype.kind not in "iu" or isinstance(self.data, (list, tuple)):
            # Entries given as Python objects are read one by one: numpy casts
            # a list of ints and bools to int64, and one of floats, or of ints
            # beyond int64, to float64 or object.  A float or bool entry is
            # refused rather than truncated by the int64 cast.
            raw = np.asarray(self.data, dtype=object)
            if not all(map(is_integer, raw.flat)):
                raise ValueError("matrix entries must be integers")
        if raw.size != self.rows * self.cols:
            raise ShapeError(f"expected {self.rows * self.cols} entries, got {raw.size}")
        try:
            # Always a copy: the caller may still write to an input array or buffer.
            arr = raw.astype(np.int64)
        except OverflowError:
            arr = None
        if arr is None or arr.min() < 0 or arr.max() >= q:
            raise ValueError(f"matrix entries must be residues in [0, {q})")
        arr = arr.reshape(self.rows, self.cols)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.data, other.data)


def partition_matrix(m: Matrix, pr: int, pc: int) -> np.ndarray:
    """Split m into a pr x pc grid of contiguous equally sized blocks.

    The result is a read-only (pr, pc, rows / pr, cols / pc) view of m's
    entries: element [i, j] is block (i, j).
    """
    if m.rows % pr or m.cols % pc:
        raise DimensionError(
            f"{m.rows}x{m.cols} matrix not divisible into {pr}x{pc} blocks"
        )
    return m.data.reshape(pr, m.rows // pr, pc, m.cols // pc).swapaxes(1, 2)


def assemble_blocks(blocks: np.ndarray, modulus: PrimeModulus) -> Matrix:
    """Tile a (pr, pc, br, bc) block array into one matrix; partition_matrix's inverse."""
    pr, pc, br, bc = blocks.shape
    return Matrix(pr * br, pc * bc, blocks.swapaxes(1, 2).reshape(-1), modulus)


def check_operands(a: Matrix, b: Matrix) -> None:
    """Refuse a product a @ b whose inner dimensions or moduli differ."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.modulus.q != b.modulus.q:
        raise DimensionError("operands use different moduli")


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    """Standard product over F_q; the ground truth for every decode test."""
    check_operands(a, b)
    return Matrix(a.rows, b.cols, modmatmul(a.data, b.data, a.modulus.q), a.modulus)


def read_matrix(path: str | Path) -> Matrix:
    """Read the plain-text format: header `rows cols q`, then one row per line.

    Blank lines are skipped; error messages give physical line numbers.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0][1]
    try:
        rows, cols, q = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {header!r}") from exc
    try:
        modulus = PrimeModulus(q)
        if rows < 1 or cols < 1:
            raise ValueError("dimensions must be >= 1")
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {header!r}: {exc}") from None
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(body)}")
    data = None
    if text.isascii() and not text.encode().translate(None, _BULK_CHARS):
        try:
            data = np.loadtxt([ln for _, ln in body], dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
    if data is None or data.shape != (rows, cols) or data.min() < 0 or data.max() >= q:
        data = _parse_rows(path, body, cols, q)
    return Matrix(rows, cols, data, modulus)


def _parse_rows(path, body: list[tuple[int, str]], cols: int, q: int) -> list[int]:
    """Entries of numbered rows parsed one token at a time; raises at the first bad line.

    This is `read_matrix`'s reference parser: it runs when the file holds
    characters outside `_BULK_CHARS`, such as `1_0`, or when the bulk parse
    fails or finds an entry out of range.  Its values stand whenever it finds
    no fault.
    """
    data: list[int] = []
    for lineno, line in body:
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer entry in {line.strip()!r}") from None
        if len(values) != cols:
            raise ValueError(f"{path}:{lineno}: expected {cols} values")
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"{path}:{lineno}: value {v} outside [0, {q})")
        data.extend(values)
    return data


def _digit_table() -> np.ndarray:
    """The 4-byte text of each base-10^4 chunk, one uint32 per row.

    Row c < 10^4 is c zero-padded ("0042"); row 10^4 + c is c with a NUL
    for each leading zero (two NULs and "42"; three NULs and "0" for 0);
    row 2 * 10^4 is all NUL.  `_text` writes an entry's chunks below its
    leading one from the first half, its leading chunk from the second, and
    the chunks above it as the blank.
    """
    n = np.arange(10**4)
    text = np.zeros((2 * 10**4 + 1, 4), np.uint8)
    for i in range(4):
        text[: 10**4, i] = n // 10 ** (3 - i) % 10 + ord("0")
    text[10**4 : 2 * 10**4] = text[: 10**4]
    for i in range(3):
        text[10**4 : 10**4 + 10 ** (3 - i), i] = 0
    return text.view(np.uint32).ravel()


_DIGITS = _digit_table()


def _text(m: Matrix) -> Iterator[bytes]:
    """The text of m as `read_matrix` reads it: the header, then blocks of rows.

    An entry is written as the `_DIGITS` rows of its base-10^4 chunks, as
    many as q - 1 has, followed by its space or newline, and one
    `bytes.translate` per block drops the NULs of the unpadded and blank
    rows.  The row of chunk j (0 the least significant) is picked by
    comparing the entry with 10^(4j) and 10^(4j + 4), which every entry is
    below at the top chunk.
    """
    q = m.modulus.q
    yield b"%d %d %d\n" % (m.rows, m.cols, q)
    chunks = -(-len(str(q - 1)) // 4)
    rows = max(1, _TEXT_BLOCK // m.cols)
    records = np.empty(rows * m.cols, [("text", np.uint32, (chunks,)), ("sep", np.uint8)])
    records["sep"] = ord(" ")
    records["sep"][m.cols - 1 :: m.cols] = ord("\n")
    for start in range(0, m.rows, rows):
        value = rest = m.data[start : start + rows].ravel()
        block = records[: value.size]
        for j in range(chunks):
            high = rest // 10**4
            row = rest - high * 10**4 + 10**4 * (value < min(10 ** (4 * j + 4), q))
            if j:
                row += 10**4 * (value < 10 ** (4 * j))
            block["text"][:, chunks - 1 - j] = _DIGITS[row]
            rest = high
        yield block.tobytes().translate(None, b"\0")


def format_matrix(m: Matrix) -> str:
    """The plain-text format that `read_matrix` reads."""
    return b"".join(_text(m)).decode("ascii")


def write_matrix(m: Matrix, path: str | Path) -> None:
    """Write `format_matrix(m)` to path, block by block."""
    with open(path, "wb") as f:
        f.writelines(_text(m))
