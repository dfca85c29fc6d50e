"""Exact linear algebra over small prime fields GF(p).

Vectors are row tuples and endomorphisms act on the right (v -> v.M), so
composing maps left to right is plain matrix multiplication.  Subspaces are
identified by their reduced row-echelon basis, which makes equality, hashing
and set membership exact.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)

SUBSPACE_ENUM_LIMIT = 4096  # max p**n
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


def _endo_count(p, n):
    """p^(n^2), the number of n x n matrices, once p, n and the guard pass."""
    check_field(p)
    check_dim(n)
    if p ** (n * n) > ENDO_ENUM_LIMIT:
        raise GuardExceeded(f"p^(n^2) = {p ** (n * n)} exceeds endomorphism guard {ENDO_ENUM_LIMIT}")
    return p ** (n * n)


# ---------------------------------------------------------------------------
# matrices as tuples of row tuples

def mat_mul(a, b, p):
    """Product of matrices a (m x k) and b (k x n) over GF(p)."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
        for row in a
    )

def mat_transpose(a):
    return tuple(zip(*a))

def vec_mat(v, a, p):
    """Row vector times matrix over GF(p)."""
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in zip(*a))

def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

def zero_matrix(m, n):
    return tuple((0,) * n for _ in range(m))


def rref(rows, width, p):
    """Canonical reduced row-echelon form.

    Returns (basis, pivots): the nonzero rows with strictly increasing unit
    pivots, every pivot column zero elsewhere.
    """
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def mat_rank(rows, width, p):
    return len(rref(rows, width, p)[0])


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


def mat_inverse(a, p):
    """Inverse of a square matrix over GF(p), or None if singular."""
    n = len(a)
    if n == 0:
        return ()
    aug = [list(ra) + list(rb) for ra, rb in zip(a, identity_matrix(n))]
    red, piv = rref(aug, 2 * n, p)
    if tuple(piv[:n]) != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red[:n])


def solve_homogeneous(rows, width, p):
    """Canonical basis of {x in GF(p)^width : rows . x^T = 0}."""
    red, pivots = rref(rows, width, p)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f]) % p
        basis.append(tuple(v))
    return rref(basis, width, p)[0]


def express_in_basis(v, rows, p):
    """Coefficients t with t . rows = v, or None if v is outside the span."""
    if not rows:
        return () if all(x % p == 0 for x in v) else None
    width = len(v)
    aug = [list(col) + [x] for col, x in zip(zip(*rows), v)]
    red, pivots = rref(aug, len(rows) + 1, p)
    if len(rows) in pivots:
        return None
    t = [0] * len(rows)
    for i, c in enumerate(pivots):
        t[c] = red[i][-1]
    return tuple(t)


# ---------------------------------------------------------------------------
# subspaces

class Subspace(Record):
    """A subspace of GF(p)^n held as its canonical RREF basis."""
    p: int
    n: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self):
        """Pivot column of each basis row; computed once per instance, kept
        out of the fields so equality, hashing and JSON ignore it."""
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def contains(self, v) -> bool:
        return self.coords(v) is not None

    def coords(self, v):
        """Coefficients of v over the canonical basis, or None.

        RREF pivot columns are unit columns, so candidate coefficients are
        read off at the pivot positions and then checked.
        """
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != ambient dim {self.n}")
        c = tuple(v[j] % self.p for j in self.pivots)
        return c if self.from_coords(c) == tuple(x % self.p for x in v) else None

    def from_coords(self, c):
        w = [0] * self.n
        for coeff, row in zip(c, self.basis):
            for j, x in enumerate(row):
                w[j] = (w[j] + coeff * x) % self.p
        return tuple(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sort_key(self):
        return (self.dim, self.basis)

    def to_json(self):
        return {"p": self.p, "n": self.n, "rows": [list(r) for r in self.basis]}

    @staticmethod
    def from_json(d):
        return subspace_span([tuple(r) for r in d["rows"]], d["n"], d["p"])


def subspace_span(vectors, ambient_dim, p) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    check_field(p)
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"vector {v} has length {len(v)}, expected {ambient_dim}")
    basis, _ = rref(vectors, ambient_dim, p)
    return Subspace(p, ambient_dim, basis)


def zero_subspace(p, n) -> Subspace:
    return Subspace(p, n, ())


def complement_in(a: Subspace, b: Subspace) -> Subspace:
    """Deterministic complement of a inside b (requires a <= b): the rows of
    b's basis at the non-pivot columns of a's coordinates over it, so for b
    the full space the standard basis vectors outside a's pivots."""
    coords = []
    for v in a.basis:
        c = b.coords(v)
        if c is None:
            raise ValueError("complement_in: first subspace not contained in second")
        coords.append(c)
    red, pivots = rref(coords, b.dim, a.p)
    piv = set(pivots)
    rows = [b.basis[j] for j in range(b.dim) if j not in piv]
    basis, _ = rref(rows, a.n, a.p)
    return Subspace(a.p, a.n, basis)


def annihilator(a: Subspace) -> Subspace:
    """Functionals vanishing on a, as a subspace in dual-basis coordinates.

    The same computation sends a subspace of the dual back into V, which is
    the double-dual identification.
    """
    basis = solve_homogeneous(a.basis, a.n, a.p)
    return Subspace(a.p, a.n, basis)


def is_direct_sum(a: Subspace, b: Subspace) -> bool:
    """Whether a + b = V with a and b meeting only in 0."""
    if a.dim + b.dim != a.n:
        return False
    return mat_rank(a.basis + b.basis, a.n, a.p) == a.n


@lru_cache(maxsize=None)
def enumerate_subspaces(p, n, proper_only=False):
    """All subspaces of GF(p)^n in canonical order (dimension, then basis).

    proper_only drops the full space but keeps the zero subspace.
    """
    check_field(p)
    check_dim(n)
    if p ** n > SUBSPACE_ENUM_LIMIT:
        raise GuardExceeded(f"p^n = {p ** n} exceeds subspace guard {SUBSPACE_ENUM_LIMIT}")
    out = []
    top = n if proper_only else n + 1
    for k in range(0, top):
        for pivots in itertools.combinations(range(n), k):
            free = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, n)
                if j not in pivots
            ]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), x in zip(free, vals):
                    rows[i][j] = x
                out.append(Subspace(p, n, tuple(tuple(r) for r in rows)))
    out.sort(key=Subspace.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# endomorphisms

class Endo(Record):
    """An n x n matrix over GF(p) acting on row vectors on the right."""
    p: int
    n: int
    rows: tuple

    def __str__(self):
        return "/".join("".join(str(x) for x in row) for row in self.rows)

    def apply(self, v):
        return vec_mat(v, self.rows, self.p)

    def compose(self, other: "Endo") -> "Endo":
        """self then other; the matrix product rows(self) . rows(other)."""
        return Endo(self.p, self.n, mat_mul(self.rows, other.rows, self.p))

    def __mul__(self, other):
        return self.compose(other)

    @property
    def rank(self) -> int:
        return mat_rank(self.rows, self.n, self.p)

    def is_invertible(self) -> bool:
        return self.rank == self.n

    def inverse(self) -> "Endo":
        inv = mat_inverse(self.rows, self.p)
        if inv is None:
            raise ValueError("endomorphism is singular")
        return Endo(self.p, self.n, inv)

    def image(self) -> Subspace:
        return subspace_span(self.rows, self.n, self.p)

    def kernel(self) -> Subspace:
        """Left kernel {v : v.M = 0}."""
        basis = solve_homogeneous(mat_transpose(self.rows), self.n, self.p)
        return Subspace(self.p, self.n, basis)

    def sort_key(self):
        return self.rows

    def to_json(self):
        return {"p": self.p, "n": self.n, "rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(d):
        return Endo(d["p"], d["n"], tuple(tuple(r) for r in d["rows"]))


def endo(rows, p) -> Endo:
    rows = tuple(tuple(x % p for x in r) for r in rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("endomorphism matrix must be square")
    return Endo(p, n, rows)


def identity_endo(p, n) -> Endo:
    return Endo(p, n, identity_matrix(n))


def transpose(alpha: Endo) -> Endo:
    """The same matrix data read as an endomorphism of the dual space."""
    return Endo(alpha.p, alpha.n, mat_transpose(alpha.rows))


@lru_cache(maxsize=None)
def enumerate_endos(p, n, singular_only=False):
    """All n x n matrices over GF(p), lexicographic by entries; singular_only
    keeps those of rank below n."""
    mats = _sing_matrices(p, n) if singular_only else from_base_p(np.arange(_endo_count(p, n)), p, n, n)
    return tuple(Endo(p, n, tuple(map(tuple, m))) for m in mats.tolist())


@lru_cache(maxsize=None)
def enumerate_automorphisms(p, n):
    """All invertible n x n matrices over GF(p), lexicographic by entries."""
    mats = from_base_p(np.flatnonzero(_ranks(p, n) == n), p, n, n)
    return tuple(Endo(p, n, tuple(map(tuple, m))) for m in mats.tolist())


def singular_count(p, n):
    """Closed form p^(n^2) - prod_i (p^n - p^i)."""
    gl = 1
    for i in range(n):
        gl *= p ** n - p ** i
    return p ** (n * n) - gl


# ---------------------------------------------------------------------------
# integer-coded kernel: an n x n matrix is the base-p number of its row-major
# entries, which is exactly the lexicographic order of enumerate_endos

TABLE_BLOCK_CELLS = 1 << 15  # table cells per block of rows (256 KB of int64 codes)


def base_p(mats, p):
    """The base-p number of the row-major entries of each matrix in a stack."""
    flat = mats.reshape(len(mats), -1)
    return flat @ p ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64)


def from_base_p(codes, p, m, w):
    """The m x w matrices with the given base-p codes, as an int64 stack."""
    return (codes[:, None] // p ** np.arange(m * w - 1, -1, -1) % p).reshape(len(codes), m, w)


@lru_cache(maxsize=None)
def _ranks(p, n):
    """The rank of every n x n matrix over GF(p), indexed by its code: one
    batched elimination over all p^(n^2) of them."""
    ranks = rref_stack(from_base_p(np.arange(_endo_count(p, n)), p, n, n), p)[2]
    ranks.flags.writeable = False
    return ranks


@lru_cache(maxsize=None)
def _sing_matrices(p, n):
    """The singular n x n matrices in code order, as one read-only
    (order, n, n) array: the sing_table elements."""
    mats = from_base_p(np.flatnonzero(_ranks(p, n) < n), p, n, n)
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def sing_table(p, n):
    """(singular Endos, decode, table) for Sing(GF(p)^n).

    The Endos are in enumerate_endos order; decode maps a matrix code to its
    index there, -1 for invertible matrices; table[i, j] is the index of
    elems[i] * elems[j] as an int32 array.  Both guards are checked before
    anything is enumerated.

    Each cell is the product of the two matrices, read by row codes: row r
    of A.B is A[r].B, so code(A.B) = sum_r code(A[r].B) p^(n(n-1-r)), with
    code(v.B_j) looked up in rowprod[v, j] for each of the p^n row vectors v.
    Blocks of rows keep every intermediate to a few MB.
    """
    count, order = _endo_count(p, n), singular_count(p, n)
    if order > ASSOC_GUARD:
        raise GuardExceeded(f"Sing(GF({p})^{n}) has order {order}, beyond the associativity guard {ASSOC_GUARD}")
    mats, decode = _sing_matrices(p, n), np.full(count, -1, dtype=np.int32)
    decode[_ranks(p, n) < n] = np.arange(order, dtype=np.int32)
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
    decode.flags.writeable = table.flags.writeable = False  # shared by every caller
    return enumerate_endos(p, n, singular_only=True), decode, table


def sing_conjugation(left: Endo, right: Endo):
    """perm[i] = index of left . elems[i] . right in sing_table order (-1
    where that product is invertible)."""
    p, n = right.p, right.n
    _, decode, _ = sing_table(p, n)
    conj = np.array(left.rows) @ _sing_matrices(p, n) % p @ np.array(right.rows) % p
    return decode[base_p(conj, p)]


# ---------------------------------------------------------------------------
# linear maps between subspaces

class LinearMap(Record):
    """A linear map dom -> cod, stored over the canonical bases."""
    dom: Subspace
    cod: Subspace
    matrix: tuple  # dim(dom) x dim(cod)

    @property
    def p(self):
        return self.dom.p

    def apply(self, v):
        c = self.dom.coords(v)
        if c is None:
            raise ValueError(f"vector {v} not in domain")
        return self.cod.from_coords(vec_mat(c, self.matrix, self.p) if self.matrix else ())

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self then other (domains must chain)."""
        if self.cod != other.dom:
            raise ValueError("maps do not compose: codomain != next domain")
        if self.cod.dim == 0:
            m = zero_matrix(self.dom.dim, other.cod.dim)
        else:
            m = mat_mul(self.matrix, other.matrix, self.p)
        return LinearMap(self.dom, other.cod, m)

    @property
    def rank(self):
        return mat_rank(self.matrix, self.cod.dim, self.p)

    def is_iso(self) -> bool:
        return self.dom.dim == self.cod.dim and self.rank == self.dom.dim

    def is_epi(self) -> bool:
        return self.rank == self.cod.dim


def linear_map(dom: Subspace, cod: Subspace, images) -> LinearMap:
    """Map sending the canonical basis of dom to the given ambient vectors."""
    rows = []
    for img in images:
        c = cod.coords(img)
        if c is None:
            raise ValueError(f"image vector {img} not contained in codomain")
        rows.append(c)
    return LinearMap(dom, cod, tuple(rows))


def restriction(alpha: Endo, dom: Subspace, cod: Subspace) -> LinearMap:
    """alpha restricted to dom, landing in cod."""
    return linear_map(dom, cod, [alpha.apply(v) for v in dom.basis])


def inclusion_map(a: Subspace, b: Subspace) -> LinearMap:
    if not b.contains_subspace(a):
        raise ValueError("inclusion requires containment")
    return linear_map(a, b, list(a.basis))


def identity_map(a: Subspace) -> LinearMap:
    return LinearMap(a, a, identity_matrix(a.dim))

