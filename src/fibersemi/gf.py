"""Exact linear algebra over small prime fields GF(p).

Vectors are rows and endomorphisms act on the right (v -> v.M), so
composing maps left to right is plain matrix multiplication.  Every matrix
is an int64 array, or its base-p code where it must be hashable.  A
subspace is its position in subspace_lattice, where its reduced
row-echelon basis, padded with zero rows, is a row of the lattice's bases;
the one lookup row_spaces finds the position of any matrix's row space by
the matrix's code.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)

SUBSPACE_ENUM_LIMIT = 4096  # max number of subspaces of GF(p)^n
ENDO_ENUM_LIMIT = 1 << 20   # max p**(n*n)
ASSOC_GUARD = 1500          # largest order of a Cayley table checked for associativity


class GuardExceeded(ValueError):
    """Requested enumeration is beyond the desk-scale guard."""


class Record:
    """Base of the immutable value types.  The fields are the names a
    subclass annotates in its own body, in order.  Instances are built by
    position or keyword, equal only to instances of the same class with
    equal fields, hash as the tuple of their fields and print as
    Name(field=value, ...).  One attrgetter per class reads the fields;
    nothing is compiled per class, which keeps the package's import cheap."""
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", {}))
        key = attrgetter(*names)
        cls._key = staticmethod(key if len(names) > 1 else lambda x: (key(x),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {**dict(zip(names, args)), **kwargs}
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                                f"not {len(args)} positional and {sorted(kwargs)}")
            args = [values[k] for k in names]
        for k, v in zip(names, args):  # in field order, so instances share dict keys
            object.__setattr__(self, k, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")


def check_field(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported field GF({p}); p must be one of {SUPPORTED_PRIMES}")
    return p


def check_dim(n: int) -> int:
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return n


def count_text(x):
    """A count for a guard's message: its digits, or a power of two it
    reaches once it passes 64 bits (Python refuses to convert an int of
    more than 4300 digits to text)."""
    return str(x) if x.bit_length() <= 64 else f"at least 2^{x.bit_length() - 1}"


def power_text(p, e):
    """count_text(p^e) at any e, with no number of more than about
    2 e.bit_length() + 130 bits built.  Past e = 64 the text names
    floor(log2 p^e), read from lo.2^s <= p^e <= hi.2^s: repeated squaring,
    each product cut to e.bit_length() + 64 bits, rounded down for lo and
    up for hi.  Where the bounds' bit lengths differ, lo's is named, which
    p^e still reaches."""
    if e <= 64:
        return count_text(p ** e)
    keep, lo, hi, shift = e.bit_length() + 64, 1, 1, 0
    for bit in map(int, bin(e)[2:]):
        lo, hi, shift = lo * lo * p ** bit, hi * hi * p ** bit, 2 * shift
        cut = max(0, hi.bit_length() - keep)
        lo, hi, shift = lo >> cut, -(-hi >> cut), shift + cut
    return f"at least 2^{lo.bit_length() - 1 + shift}"


def _endo_count(p, n):
    """p^(n^2), the number of n x n matrices, once p, n and the guard pass.
    p^(n^2) >= 2^(n^2), so past n^2 = log2 of the guard no power is built."""
    check_field(p)
    check_dim(n)
    if n * n > math.log2(ENDO_ENUM_LIMIT) or p ** (n * n) > ENDO_ENUM_LIMIT:
        raise GuardExceeded(f"p^(n^2) = {power_text(p, n * n)} exceeds endomorphism guard {ENDO_ENUM_LIMIT}")
    return p ** (n * n)


# ---------------------------------------------------------------------------
# row reduction

def rref_stack(a, p):
    """rref of every matrix of a stack (count, m, w) at once: the reduced
    matrices with their zero rows last, a mask of pivot columns, the ranks."""
    a, inverse = a % p, np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    rank, pivot = np.zeros(len(a), dtype=np.int64), np.zeros((len(a), a.shape[2]), dtype=bool)
    for c in range(a.shape[2]):
        free = (a[:, :, c] != 0) & (np.arange(a.shape[1]) >= rank[:, None])
        at = np.flatnonzero(free.any(axis=1))
        if len(at):
            top, src = rank[at], free[at].argmax(axis=1)
            lead = a[at, src] * inverse[a[at, src, c]][:, None] % p
            a[at, src] = a[at, top]
            a[at] = (a[at] - a[at, :, c][:, :, None] * lead[:, None]) % p
            a[at, top], pivot[at, c] = lead, True
            rank[at] += 1
    return a, pivot, rank


def rref_augmented(mats, p):
    """rref_stack of [M | I] for every matrix M of a stack (count, m, w), I
    the m x m identity: one batched elimination, whose right half E is
    invertible with E.M the rref of M, the left half."""
    count, m = mats.shape[:2]
    eye = np.broadcast_to(np.eye(m, dtype=np.int64), (count, m, m))
    return rref_stack(np.concatenate([mats, eye], axis=2), p)


def inverse_stack(mats, p):
    """The right half of the rref of [E | I] for each matrix E of a stack
    (count, n, n): E^-1 where E is invertible and meaningless where it is
    not, so callers check E.E^-1 = I."""
    return rref_augmented(mats, p)[0][:, :, mats.shape[2]:]


def invertible_matrix(mat, p, d, shape_error, singular_error):
    """The d x d matrix mat over GF(p) as an int64 array, its entries
    reduced mod p as Python ints (so any integer is accepted), once one
    rref_stack rank shows it invertible; ValueError with shape_error or
    singular_error otherwise."""
    mat = np.asarray(mat, dtype=object)
    if mat.shape != (d, d):
        raise ValueError(shape_error)
    mat = (mat % p).astype(np.int64)
    if rref_stack(mat[None], p)[2][0] != d:
        raise ValueError(singular_error)
    return mat


# ---------------------------------------------------------------------------
# subspaces

def subspace_count(p, n):
    """The number of subspaces of GF(p)^n, once p, n and the subspace guard
    pass.  There are [n, n // 2]_p >= p^e subspaces of dimension n // 2
    alone, e = n^2 // 4, so the count is exact only while p^e fits in 64
    bits (to n = 16 at p = 2, 9 at p = 7); past that the guard names p^e,
    which is beyond it.  p >= 2, so p^e is built only at e <= 64."""
    check_field(p)
    check_dim(n)
    e = n * n // 4
    exact = e <= 64 and p ** e <= 1 << 64
    count = _galois_number(p, n) if exact else None
    if not exact or count > SUBSPACE_ENUM_LIMIT:
        text = count_text(count) if exact else power_text(p, e)
        raise GuardExceeded(f"GF({p})^{n} has {text} subspaces, beyond the subspace guard {SUBSPACE_ENUM_LIMIT}")
    return count


def _galois_number(p, n):
    """The sum over k of the Gaussian binomials [n, k]_p, by the recurrence
    G(m + 1) = 2 G(m) + (p^m - 1) G(m - 1) from G(0) = 1 and G(1) = 2: no
    division."""
    before, count = 1, 2
    for m in range(1, n):
        before, count = count, 2 * count + (p ** m - 1) * before
    return count


@lru_cache(maxsize=None)
def enumerate_subspaces(p, n):
    """Every subspace of GF(p)^n as its RREF basis padded with zero rows, in
    canonical order (dimension, then basis entries), as one read-only
    (S, n, n) int64 array.  The bases of each pivot set are built at once:
    a unit at each pivot, and every combination of values at the entries
    right of a row's pivot outside the pivot columns."""
    subspace_count(p, n)
    blocks = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
            block = np.zeros((p ** len(free), n, n), dtype=np.int64)
            block[:, list(range(k)), list(pivots)] = 1
            if free:
                rows, cols = zip(*free)
                block[:, rows, cols] = from_base_p(np.arange(len(block)), p, 1, len(free))[:, 0]
            blocks.append(block)
    bases = np.concatenate(blocks)
    bases = bases[np.lexsort((base_p(bases, p), (bases != 0).any(axis=2).sum(axis=1)))]
    bases.flags.writeable = False  # shared by every caller
    return bases


def gl_order(p, n):
    """|GL_n(p)| = prod_(i<n) (p^n - p^i)."""
    return math.prod(p ** n - p ** i for i in range(n))


def singular_count(p, n):
    """Closed form p^(n^2) - |GL_n(p)|."""
    return p ** (n * n) - gl_order(p, n)


# ---------------------------------------------------------------------------
# integer-coded kernel: an n x n matrix is the base-p number of its row-major
# entries, so code order is the lexicographic order of the entries

TABLE_BLOCK_CELLS = 1 << 15  # table cells per block of rows (256 KB of int64 codes)


def base_p(mats, p):
    """The base-p number of the row-major entries of each matrix in a stack."""
    flat = mats.reshape(len(mats), -1)
    return flat @ p ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64)


def from_base_p(codes, p, m, w):
    """The m x w matrices with the given base-p codes, as an int64 stack."""
    return (codes[:, None] // p ** np.arange(m * w - 1, -1, -1) % p).reshape(len(codes), m, w)


@lru_cache(maxsize=None)
def _reduced(p, n):
    """(ranks, rref codes) of every n x n matrix over GF(p), both indexed by
    its code, from one batched elimination over all p^(n^2) of them.  The
    rref code is the code of the RREF with its zero rows last, so two
    matrices share it exactly when they have the same row space."""
    red, _, ranks = rref_stack(from_base_p(np.arange(_endo_count(p, n)), p, n, n), p)
    codes = base_p(red, p)
    ranks.flags.writeable = codes.flags.writeable = False
    return ranks, codes


def _ranks(p, n):
    """The rank of every n x n matrix over GF(p), indexed by its code."""
    return _reduced(p, n)[0]


@lru_cache(maxsize=None)
def _sing_matrices(p, n):
    """The singular n x n matrices in code order, as one read-only
    (order, n, n) array: the elements of Sing, at their sing_decode
    indices."""
    mats = from_base_p(np.flatnonzero(_ranks(p, n) < n), p, n, n)
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def enumerate_automorphisms(p, n):
    """The invertible n x n matrices over GF(p) in code order, as one
    read-only (count, n, n) array."""
    mats = from_base_p(np.flatnonzero(_ranks(p, n) == n), p, n, n)
    mats.flags.writeable = False  # shared by every caller
    return mats


def idempotent_matrices(p, n):
    """The idempotents of Sing(GF(p)^n) in code order, from one batched
    e.e = e over _sing_matrices."""
    mats = _sing_matrices(p, n)
    return mats[(mats @ mats % p == mats).all(axis=(1, 2))]


def rows_json(p, rows):
    """The {"n", "p", "rows"} document of a matrix, or of a subspace's basis,
    over GF(p), from its rows (m, n): the interchange form of both."""
    return {"p": p, "n": rows.shape[1], "rows": rows.tolist()}


def endo_text(mats):
    """The text of each matrix of a stack (count, n, n) with entries below
    10: each row's digits, the rows joined by "/"."""
    count, n = mats.shape[:2]
    text = np.full((count, n, n + 1), ord("/"), dtype=np.uint8)
    text[:, :, :n] = mats + ord("0")
    width = n * (n + 1) - 1
    flat = text.reshape(count, -1)[:, :width].tobytes().decode("ascii")
    return [flat[i:i + width] for i in range(0, len(flat), width)]


@lru_cache(maxsize=None)
def sing_decode(p, n):
    """The Sing index of every n x n matrix over GF(p), by its code: its
    position in _sing_matrices, -1 for an invertible matrix.  A read-only
    int32 array of p^(n^2) entries, from _ranks, so behind the endomorphism
    guard only."""
    singular = _ranks(p, n) < n
    decode = np.full(len(singular), -1, dtype=np.int32)
    decode[singular] = np.arange(np.count_nonzero(singular), dtype=np.int32)
    decode.flags.writeable = False  # shared by every caller
    return decode


def check_sing_order(p, n):
    """Sing(GF(p)^n)'s order, in closed form, once the endomorphism guard
    and the associativity guard pass.  sing_table refuses by it, and so do
    the cli commands that write the table, before they build it or any
    linked pair: crossconn, and amalgam for its core and each fiber
    dimension."""
    _endo_count(p, n)
    order = singular_count(p, n)
    if order > ASSOC_GUARD:
        raise GuardExceeded(f"Sing(GF({p})^{n}) has order {order}, beyond the associativity guard {ASSOC_GUARD}")
    return order


@lru_cache(maxsize=None)
def sing_table(p, n):
    """Sing(GF(p)^n)'s Cayley table over _sing_matrices: table[i, j] is the
    index of the product of matrices i and j, as a read-only int32 array.
    Both guards are checked before anything is enumerated.

    Each cell is the product of the two matrices, read by row codes: row r
    of A.B is A[r].B, so code(A.B) = sum_r code(A[r].B) p^(n(n-1-r)), with
    code(v.B_j) looked up in rowprod[v, j] for each of the p^n row vectors v.
    Blocks of rows keep every intermediate to a few MB.
    """
    order = check_sing_order(p, n)
    mats, decode = _sing_matrices(p, n), sing_decode(p, n)
    digits = p ** np.arange(n - 1, -1, -1)
    vectors = np.arange(p ** n)[:, None] // digits % p
    rows = mats @ digits                                  # rows[i, r] = code(A_i[r])
    rowprod = (vectors @ mats % p @ digits).T             # rowprod[v, j] = code(v.B_j)
    weighted = rowprod * p ** (n * np.arange(n - 1, -1, -1))[:, None, None]
    table = np.empty((order, order), dtype=np.int32)
    block = max(1, TABLE_BLOCK_CELLS // order)
    for lo in range(0, order, block):
        acc = weighted[0][rows[lo:lo + block, 0]]
        for r in range(1, n):
            acc += weighted[r][rows[lo:lo + block, r]]
        table[lo:lo + block] = decode[acc]
    table.flags.writeable = False  # shared by every caller
    return table


# ---------------------------------------------------------------------------
# the subspace lattice: every subspace at its enumerate_subspaces position

LATTICE_BLOCK_CELLS = 1 << 20  # vector-by-row products per block of the lattice build (8 MB of int64)


class SubspaceLattice(Record):
    """Every subspace of GF(p)^n at its position in enumerate_subspaces order
    (the full space last), with containment and annihilators as read-only
    arrays; S subspaces."""
    bases: np.ndarray       # (S, n, n) RREF bases, zero rows last: enumerate_subspaces
    dims: np.ndarray        # (S,)
    pivots: np.ndarray      # (S, n) each basis's pivot columns in order, then its other columns
    contains: np.ndarray    # (S, S) contains[u, v]: v is a subspace of u
    ann: np.ndarray         # position of the annihilator

    @cached_property
    def direct_sum(self):
        """direct_sum[u, v]: u (+) v is the whole space, that is dim u +
        dim v = n and no line lies in both; built on first use."""
        lines = self.contains[:, self.dims == 1].astype(np.int64)
        both = (self.dims[:, None] + self.dims == self.bases.shape[1]) & (lines @ lines.T == 0)
        both.flags.writeable = False
        return both

    def basis(self, k):
        """The RREF basis of the subspace at position k, without padding."""
        return self.bases[k, :self.dims[k]]


@lru_cache(maxsize=None)
def subspace_lattice(p, n) -> SubspaceLattice:
    """The lattice of GF(p)^n, built once on the bases of enumerate_subspaces,
    so its guard refuses first.

    ann(u) = {x : x.B_u^T = 0}, and u = ann(ann(u)).  B_u kept at its pivot
    columns, which are unit columns of an RREF basis, is P_u with
    P_u[i, pivot i] = 1, so the rows of A_u = I - B_u^T.P_u are e_f - sum_i
    B_u[i, f] e_(pivot i) at each non-pivot column f and zero at the
    pivots: a spanning set of ann(u).  So a vector x lies in u iff
    x.A_u^T = 0.  One product of every vector of GF(p)^n, coded in base p,
    by every A_u, in blocks (LATTICE_BLOCK_CELLS), gives that table; then
    v <= u iff every row of B_v lies in u, which is B_v.A_u^T = 0 read row
    by row.  ann(u) is the row space of A_u: one rref_stack of the A_u, and
    each reduced code looked up among the bases' own codes, since a padded
    RREF basis is its own rref.  The lookup is a dict of S codes: a numpy
    sort and search would page in kernels that no other step of a command
    runs, about 0.4 MB of peak RSS in a short process.
    """
    bases = enumerate_subspaces(p, n)
    nonzero = bases != 0
    dims = nonzero.any(axis=2).sum(axis=1)
    pivot = (nonzero & (nonzero.cumsum(axis=2) == 1)).any(axis=1)  # each row's first nonzero column
    spans = np.eye(n, dtype=np.int64) - bases.transpose(0, 2, 1) @ (bases * pivot[:, None])  # the A_u
    vectors = from_base_p(np.arange(p ** n), p, 1, n).reshape(-1, n)
    perp = np.empty((len(vectors), len(bases)), dtype=bool)  # perp[x, u]: x.A_u^T = 0, x lies in u
    block = max(1, LATTICE_BLOCK_CELLS // (len(vectors) * n))
    for lo in range(0, len(bases), block):
        flat = spans[lo:lo + block].reshape(-1, n)
        perp[:, lo:lo + block] = ~(vectors @ flat.T % p).reshape(len(vectors), -1, n).any(axis=2)
    rows = bases @ p ** np.arange(n - 1, -1, -1)  # the code of every basis row, 0 on padding
    inside = perp[rows[:, 0]]                     # inside[v, u]: B_v.A_u^T = 0
    for r in range(1, n):
        inside &= perp[rows[:, r]]
    position = dict(zip(base_p(bases, p).tolist(), range(len(bases))))
    ann = [position.get(code, -1) for code in base_p(rref_stack(spans, p)[0], p).tolist()]
    lattice = SubspaceLattice(bases, dims, np.argsort(~pivot, axis=1, kind="stable"), inside.T, np.array(ann))
    for k in SubspaceLattice._fields:
        getattr(lattice, k).flags.writeable = False  # shared by every caller
    return lattice


@lru_cache(maxsize=None)
def row_spaces(p, n):
    """The position in subspace_lattice(p, n) of the row space of every
    n x n matrix over GF(p), by the matrix's code: the one answer to "which
    subspace is this?" that the package computes with.  A read-only array
    of p^(n^2) positions.  _reduced comes first, so the endomorphism guard
    refuses before the lattice is built.  Two matrices share a row space
    exactly when they share an rref code, and a subspace's RREF basis,
    padded with zero rows, is a matrix whose rref code is its own code, so
    each position is read through the rref code; nothing is reduced here."""
    codes = _reduced(p, n)[1]
    bases = subspace_lattice(p, n).bases
    position = np.full(len(codes), -1, dtype=np.intp)
    position[base_p(bases, p)] = np.arange(len(bases))
    spaces = position[codes]
    spaces.flags.writeable = False  # shared by every caller
    return spaces


@lru_cache(maxsize=None)
def sing_images(p, n):
    """(img, timg): the lattice positions of im x and of im x^T for every
    element x of Sing(GF(p)^n), in Sing order, read from row_spaces.  Maps
    act on row vectors, so im x is the row space of x, and im x^T is
    ann(ker x).  Both arrays are read-only."""
    mats = _sing_matrices(p, n)
    img, timg = row_spaces(p, n)[base_p(np.concatenate([mats, mats.transpose(0, 2, 1)]), p)].reshape(2, -1)
    img.flags.writeable = timg.flags.writeable = False  # shared by every caller
    return img, timg
