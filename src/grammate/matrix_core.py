"""
Exact dense matrices over {0,1} and {-1,0,1}, permutations, block partitions,
and the .mtxt text format.

Entries may be given as bool, integer or float arrays or nested lists.
Each entry is range-checked as given, before any cast: it must be an integer
in the matrix's alphabet.  int8 input is checked bytewise, one byte per
entry; every other dtype is checked with min/max (and integrality for
floats).  Entries are then stored as int8 numpy arrays.  Matrices are
immutable values.

Every product the package decides with is exact, though not all are taken
in int64.  The Gram products of (0,1) arrays are BLAS products through one
helper, _gram, whose docstring states the one bound that makes them exact:
the Gram identities (gram._same_grams), iso's Gram rows and fingerprints,
enumerate_mates_of's Grams, and oracle.matrices_with_grams' candidate
products, which take _gram_dtype's type.  gram.convertibility's products on
{-1,0,1,2} data and matrices_with_grams' stacked leaf check and residuals
are int64.  rank_exact runs in int64 while its minors fit and in Python
integers after.  _stack_ranks runs the same elimination on a whole
(N, m, n) stack in int64 only, so it refuses min(m, n) > 15, where the
minors could pass 2^63.  oracle's enumeration scan takes its Gram keys by
batched int8 matmuls, as an entry and each of its partial sums is at most
max(m, n) <= 20 under its cell cap, so equal keys are equal Grams.  What
matrices_with_grams returns has passed the int64 identities, and every
GramPair has passed _gram's.

One writer, _mtxt_texts, makes the .mtxt text of a whole stack of
matrices; serialize_matrix is its one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class MatrixFormatError(ValueError):
    """Raised for malformed .mtxt input."""


def _freeze(a: np.ndarray) -> np.ndarray:
    # always a private copy: a view of the caller's array could change later
    a = a.astype(np.int8, order="C")
    a.setflags(write=False)
    return a


def _in_range(a: np.ndarray, lo: int, hi: int) -> bool:
    """True when every entry of ``a`` is an integer in ``lo..hi``.

    The alphabets are contiguous integer ranges, so a min/max check is exact
    for integer and bool arrays; float arrays must also be integral.  Any
    other dtype (complex, strings, objects) is rejected.
    """
    kind = a.dtype.kind
    if kind not in "biuf":
        return False
    if not (a.min() >= lo and a.max() <= hi):
        return False
    return kind != "f" or bool((a == np.trunc(a)).all())


def _int8_within(a: np.ndarray, alphabet: bytes) -> bool:
    """True when every entry of int8 array ``a`` is one of the int8 values
    whose bytes are ``alphabet``.  Exact: an int8 entry is one byte, and
    deleting the alphabet's bytes leaves nothing exactly when all are in it."""
    return not a.tobytes().translate(None, alphabet)


@dataclass(frozen=True)
class _DenseMatrix:
    """Shared implementation of the two matrix kinds."""

    data: np.ndarray = field(repr=False)

    _ALPHABET: ClassVar[tuple[int, ...]] = ()
    _ALPHABET_BYTES: ClassVar[bytes] = b""

    def __post_init__(self):
        a = np.asarray(self.data)
        if a.ndim < 2:
            a = a.reshape(1, -1)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("matrix must be 2-dimensional with positive size")
        if a.dtype == np.int8:
            ok = _int8_within(a, self._ALPHABET_BYTES)
        else:
            ok = _in_range(a, self._ALPHABET[0], self._ALPHABET[-1])
        if not ok:
            raise ValueError(f"entry out of range {self._ALPHABET}")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def int64(self) -> np.ndarray:
        """Writable int64 copy for exact arithmetic."""
        return self.data.astype(np.int64)

    def transpose(self):
        return type(self)(self.data.T)

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.data.shape, self.data.tobytes()))

    def __str__(self) -> str:
        return serialize_matrix(self)


class BinaryMatrix(_DenseMatrix):
    """Dense m x n matrix over {0,1}."""

    _ALPHABET = (0, 1)
    _ALPHABET_BYTES = np.array(_ALPHABET, dtype=np.int8).tobytes()

    @staticmethod
    def zeros(rows: int, cols: int) -> "BinaryMatrix":
        return BinaryMatrix(np.zeros((rows, cols), dtype=np.int8))

    @staticmethod
    def ones(rows: int, cols: int) -> "BinaryMatrix":
        return BinaryMatrix(np.ones((rows, cols), dtype=np.int8))

    @staticmethod
    def identity(n: int) -> "BinaryMatrix":
        return BinaryMatrix(np.eye(n, dtype=np.int8))


class SignedMatrix(_DenseMatrix):
    """Dense m x n matrix over {-1,0,1}."""

    _ALPHABET = (-1, 0, 1)
    _ALPHABET_BYTES = np.array(_ALPHABET, dtype=np.int8).tobytes()

    @staticmethod
    def zeros(rows: int, cols: int) -> "SignedMatrix":
        return SignedMatrix(np.zeros((rows, cols), dtype=np.int8))


def _inverse_image(image) -> list[int]:
    """The image of the inverse of the permutation i -> image[i]."""
    inv = [0] * len(image)
    for i, j in enumerate(image):
        inv[j] = i
    return inv


@dataclass(frozen=True)
class Permutation:
    """Bijection i -> image[i] on {0..size-1}."""

    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(i) for i in self.image)
        if sorted(img) != list(range(len(img))):
            raise ValueError("image is not a bijection on {0..size-1}")
        object.__setattr__(self, "image", img)

    @property
    def size(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def inverse(self) -> "Permutation":
        return Permutation(tuple(_inverse_image(self.image)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.image[other.image[i]] for i in range(self.size)))

    def matrix(self) -> BinaryMatrix:
        """Permutation matrix P with P e_i = e_image[i]."""
        m = np.zeros((self.size, self.size), dtype=np.int8)
        for i, j in enumerate(self.image):
            m[j, i] = 1
        return BinaryMatrix(m)

    def is_involution(self) -> bool:
        return all(self.image[self.image[i]] == i for i in range(self.size))


def row_sums(M) -> tuple[int, ...]:
    return tuple(M.data.sum(axis=1, dtype=np.int64).tolist())


def col_sums(M) -> tuple[int, ...]:
    return tuple(M.data.sum(axis=0, dtype=np.int64).tolist())


def _gram_dtype(k: int):
    """The float type in which _gram's bound makes its products with inner
    dimension k exact."""
    return np.float32 if k <= 1 << 24 else np.float64


def _gram(a: np.ndarray) -> np.ndarray:
    """a @ a.T for a (0,1) array a of shape (m, k), exactly, through BLAS;
    the column Gram a.T @ a is _gram(a.T).

    The one bound of the package's float Gram products: every entry of the
    product, and every partial sum BLAS forms for it in whatever order, is
    an integer from 0 to the inner dimension k.  Such integers are exact in
    float32 while k <= 2^24 and in float64 while k <= 2^53, which every
    array that fits in memory meets, so the result is exact and summation
    order cannot change it.  _gram_dtype picks the type from k alone.  The
    products of (0,1) entries are +0.0 or 1.0 and their sums are never
    -0.0, so equal Grams are equal bytes.
    """
    f = a.astype(_gram_dtype(a.shape[1]))
    # np.dot, not @: about 0.4 us less per call on the small matrices that
    # most checks see, at some cost from about 50 x 50 to 300 x 300
    return np.dot(f, f.T)


# Bareiss step k forms piv*a - a[:, c]*a[r] from k-minors of a {-1,0,1}
# matrix, each at most k**(k/2) by Hadamard's bound, so at most 2*k**k
# before dividing.  That is below 2**63 while k <= 15; later steps run on
# Python ints.
_INT64_STEPS = 15


def _pivots(d: np.ndarray) -> tuple[list[int], list[int]]:
    """(rows, cols) of the pivots of {-1,0,1} matrix d: exact bases of its
    row space and of its column space.

    Bareiss fraction-free elimination with full pivoting.  Each step pivots
    on the first nonzero entry in row-major order and updates the whole
    matrix at once; the pivot row and column become zero, so the loop runs
    once per unit of rank.  The rows ascend and are the rows independent of
    the rows before them.  The cols come in pivot order; d[rows][:, cols]
    is nonsingular, so they are independent and as many as the rank.
    """
    a = d.astype(np.int64)
    rows: list[int] = []
    cols: list[int] = []
    prev = 1
    while True:
        rs, cs = a.nonzero()
        if not len(rs):
            return rows, cols
        r, c = int(rs[0]), int(cs[0])
        piv = int(a[r, c])
        if len(rows) == _INT64_STEPS:
            a = a.astype(object)
        b = a * piv
        b -= a[:, c, None] * a[r]
        b //= prev
        a, prev = b, piv
        rows.append(r)
        cols.append(c)


def rank_exact(E) -> int:
    """Rank over the rationals of a BinaryMatrix or SignedMatrix.

    Bareiss elimination with full pivoting: each pivot is one whole-matrix
    numpy update, so the cost is rank + 1 passes over the m x n entries.
    The first 15 steps run in int64, which the {-1,0,1} alphabet keeps
    exact; later steps run on Python ints, so the rank is exact at any size.
    """
    if not isinstance(E, (BinaryMatrix, SignedMatrix)):
        raise TypeError(f"rank_exact needs a BinaryMatrix or SignedMatrix, not {type(E).__name__}")
    return len(_pivots(E.data)[0])


def _stack_ranks(stack: np.ndarray) -> np.ndarray:
    """Ranks over the rationals of an (N, m, n) stack of {-1,0,1} matrices.

    Bareiss elimination run on the whole stack at once, with _pivots' rule:
    each matrix pivots on its first nonzero entry in row-major order.  A
    matrix with no nonzero entry left is dropped from the stack, so it stays
    zero and its rank stops growing.  The loop takes at most min(m, n)
    steps, all in int64, so a stack whose min(m, n) exceeds _INT64_STEPS is
    a ValueError.
    """
    count, m, n = stack.shape
    if min(m, n) > _INT64_STEPS:
        raise ValueError(f"stacked ranks run in int64 only, up to {_INT64_STEPS} steps")
    ranks = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    a = stack.astype(np.int64)
    prev = np.ones(count, dtype=np.int64)
    while True:
        nonzero = (a != 0).reshape(len(a), m * n)
        keep = nonzero.any(axis=1)
        if not keep.all():
            live, a, prev, nonzero = live[keep], a[keep], prev[keep], nonzero[keep]
        if not len(live):
            return ranks
        ranks[live] += 1
        r, c = np.divmod(nonzero.argmax(axis=1), n)
        at = np.arange(len(live))
        piv = a[at, r, c]
        b = a * piv[:, None, None]
        b -= a[at, :, c][:, :, None] * a[at, r][:, None, :]
        b //= prev[:, None, None]
        a, prev = b, piv


def apply_perms(M, P: Permutation, Q: Permutation):
    """Return PMQ'-style relabeling: entry (i,j) of result = M[P^-1(i), Q^-1(j)].

    Row i of M lands at row P(i); column j lands at column Q(j).  The
    result gathers M by the inverse images.
    """
    if P.size != M.rows or Q.size != M.cols:
        raise ValueError("permutation size mismatch")
    return type(M)(M.data.take(_inverse_image(P.image), 0).take(_inverse_image(Q.image), 1))


def _parse_entries(text: str) -> np.ndarray:
    """The entries of .mtxt text as an int64 array, any integers allowed.

    Checks the dimension line, the row count and the row lengths.  Lines
    starting with '#' are comments.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MatrixFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError(f"malformed dimension line: {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixFormatError(f"malformed dimension line: {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError("dimensions must be positive")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"expected {rows} rows, found {len(lines) - 1}")
    tokens = [ln.split() for ln in lines[1:]]
    for ln, parts in zip(lines[1:], tokens):
        if len(parts) != cols:
            raise MatrixFormatError(f"row length mismatch: {ln!r}")
    try:
        # numpy converts each token with Python's int(), so it accepts
        # exactly what int() accepts
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    for ln, parts in zip(lines[1:], tokens):
        try:
            list(map(int, parts))
        except ValueError:
            raise MatrixFormatError(f"non-integer entry in row: {ln!r}") from None
    raise MatrixFormatError("entry out of the int64 range")


def parse_matrix(text: str):
    """Parse .mtxt text into a BinaryMatrix or SignedMatrix.

    Returns a BinaryMatrix when all entries are in {0,1}, otherwise a
    SignedMatrix.  Lines starting with '#' are comments.
    """
    a = _parse_entries(text)
    if not _in_range(a, -1, 1):
        raise MatrixFormatError(f"entry out of range: {int(a[(a < -1) | (a > 1)][0])}")
    if (a >= 0).all():
        return BinaryMatrix(a)
    return SignedMatrix(a)


def _mtxt_texts(stack: np.ndarray) -> list[str]:
    """The .mtxt text of each matrix of an (N, m, n) int8 {-1,0,1} stack.

    One byte buffer holds every text: the dimension line, then per entry a
    sign byte, a digit and a separator.  The sign byte of a non-negative
    entry is a NUL pad, which one bytes.translate drops, and each text's
    length follows from its count of negative entries.
    """
    count, m, n = stack.shape
    head = f"{m} {n}\n".encode()
    buf = np.empty((count, len(head) + 3 * m * n), dtype=np.uint8)
    buf[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    cells = buf[:, len(head):].reshape(count, m, n, 3)
    negative = stack < 0
    cells[..., 0] = negative.view(np.uint8) * np.uint8(ord("-"))
    cells[..., 1] = (stack != 0).view(np.uint8) + np.uint8(ord("0"))
    cells[..., 2] = ord(" ")
    cells[:, :, -1, 2] = ord("\n")
    text = buf.tobytes().translate(None, b"\0").decode("ascii")
    if count == 1:
        return [text]
    ends = np.cumsum(len(head) + 2 * m * n + negative.sum(axis=(1, 2))).tolist()
    return [text[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def serialize_matrix(M) -> str:
    return _mtxt_texts(M.data[None])[0]


def _read_mtxt(path, parse):
    """parse(the text of the file at path), with the path in front of any
    format error, a non-UTF-8 file included."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def load_matrix(path):
    return _read_mtxt(path, parse_matrix)


def save_matrix(M, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_matrix(M))
