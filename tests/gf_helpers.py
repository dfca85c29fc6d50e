"""GF(p) constructions the tests use and the program does not: the
pure-Python rref, the Subspace record (a subspace as its canonical RREF
basis of row tuples, the label-level form of what the program holds as a
row of gf.subspace_lattice), subspace_span and the tuple-building subspace
enumeration (subspaces), which gf.enumerate_subspaces is compared against;
matrices as tuples of row tuples with their pure-Python product, rank and
inverse, and the Endo record built on them (the label-level form of a
matrix, which the program holds as an int64 array or its base-p code), with
the conversions between the two forms; the full and zero spaces, the zero
matrix and map, the transpose of a matrix and of an Endo, an Endo's action
on a row vector, its image and kernel, the solution space of a homogeneous
system, a Subspace's pivot columns and the coordinates of a vector over its
basis, sums and intersections of subspaces, containment of subspaces,
linear maps between subspaces (LinearMap, with the inclusion and identity
maps), and the Gaussian binomial that counts subspaces of each dimension;
and the one-subspace-at-a-time forms of what gf.subspace_lattice reads from
arrays (annihilators, direct sums, complements and coordinates over a
spanning set), which the lattice is compared against."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from fibersemi import gf
from fibersemi.gf import Record


# ---------------------------------------------------------------------------
# row reduction and subspaces as records of row tuples

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


class Subspace(Record):
    """A subspace of GF(p)^n held as its canonical RREF basis."""
    p: int
    n: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def sort_key(self):
        return (self.dim, self.basis)

    def to_json(self):
        return {"p": self.p, "n": self.n, "rows": [list(r) for r in self.basis]}

    @staticmethod
    def from_json(d):
        return subspace_span([tuple(r) for r in d["rows"]], d["n"], d["p"])


def subspace_span(vectors, ambient_dim, p) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    gf.check_field(p)
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"vector {v} has length {len(v)}, expected {ambient_dim}")
    basis, _ = rref(vectors, ambient_dim, p)
    return Subspace(p, ambient_dim, basis)


@lru_cache(maxsize=None)
def subspaces(p, n):
    """All subspaces of GF(p)^n as Subspace records in canonical order
    (dimension, then basis), one RREF basis per pivot set and value of its
    free entries: the order and bases of gf.enumerate_subspaces."""
    gf.subspace_count(p, n)
    out = []
    for k in range(n + 1):
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
# matrices as tuples of row tuples, and Endo records on them

def mat_mul(a, b, p):
    """Product of matrices a (m x k) and b (k x n) over GF(p)."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
        for row in a
    )


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_rank(rows, width, p):
    return len(rref(rows, width, p)[0])


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


class Endo(Record):
    """An n x n matrix over GF(p) acting on row vectors on the right."""
    p: int
    n: int
    rows: tuple

    def __str__(self):
        return "/".join("".join(str(x) for x in row) for row in self.rows)

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


def endos_of(mats, p):
    """The Endo of each matrix of an int64 stack (count, n, n)."""
    return tuple(Endo(p, mats.shape[1], tuple(map(tuple, m))) for m in mats.tolist())


def automorphisms(p, n):
    """gf.enumerate_automorphisms(p, n) as Endos, in its order."""
    return endos_of(gf.enumerate_automorphisms(p, n), p)


def stack(endos):
    """The int64 stack (count, n, n) of a nonempty sequence of Endos, the
    form the program holds automorphisms in."""
    return np.array([e.rows for e in endos], dtype=np.int64)


def code(e: Endo) -> int:
    """The base-p code of an Endo's matrix, as bundles holds automorphisms."""
    return int(gf.base_p(stack([e]), e.p)[0])


def from_code(code, p, n) -> Endo:
    """The Endo of the n x n matrix with the given base-p code."""
    return endos_of(gf.from_base_p(np.array([code]), p, n, n), p)[0]


def zero_matrix(m, n):
    return tuple((0,) * n for _ in range(m))


def mat_transpose(a):
    return tuple(zip(*a))


def transpose(alpha: Endo) -> Endo:
    """The same matrix data read as an endomorphism of the dual space."""
    return Endo(alpha.p, alpha.n, mat_transpose(alpha.rows))


def pivots(a: Subspace):
    """The pivot column of each row of a's canonical basis."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in a.basis)


def coords(a: Subspace, v):
    """Coefficients of v over a's canonical basis, or None.

    RREF pivot columns are unit columns, so candidate coefficients are
    read off at the pivot positions and then checked.
    """
    if len(v) != a.n:
        raise ValueError(f"vector length {len(v)} != ambient dim {a.n}")
    c = tuple(v[j] % a.p for j in pivots(a))
    return c if from_coords(a, c) == tuple(x % a.p for x in v) else None


def from_coords(a: Subspace, c):
    """The vector with coefficients c over a's canonical basis."""
    w = [0] * a.n
    for coeff, row in zip(c, a.basis):
        for j, x in enumerate(row):
            w[j] = (w[j] + coeff * x) % a.p
    return tuple(w)


def vec_mat(v, a, p):
    """Row vector times matrix over GF(p)."""
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in zip(*a))


def apply(alpha: Endo, v):
    """The row vector v.alpha."""
    return vec_mat(v, alpha.rows, alpha.p)


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


def image(alpha: Endo) -> Subspace:
    return subspace_span(alpha.rows, alpha.n, alpha.p)


def kernel(alpha: Endo) -> Subspace:
    """Left kernel {v : v.M = 0}."""
    return Subspace(alpha.p, alpha.n, solve_homogeneous(mat_transpose(alpha.rows), alpha.n, alpha.p))


def zero_subspace(p, n) -> Subspace:
    return Subspace(p, n, ())


def contains_subspace(a: Subspace, b: Subspace) -> bool:
    """Whether b is a subspace of a."""
    return all(coords(a, v) is not None for v in b.basis)


class LinearMap(Record):
    """A linear map dom -> cod, stored over the canonical bases."""
    dom: Subspace
    cod: Subspace
    matrix: tuple  # dim(dom) x dim(cod)

    @property
    def p(self):
        return self.dom.p

    def apply(self, v):
        c = coords(self.dom, v)
        if c is None:
            raise ValueError(f"vector {v} not in domain")
        return from_coords(self.cod, vec_mat(c, self.matrix, self.p) if self.matrix else ())

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
        c = coords(cod, img)
        if c is None:
            raise ValueError(f"image vector {img} not contained in codomain")
        rows.append(c)
    return LinearMap(dom, cod, tuple(rows))


def full_space(p, n) -> Subspace:
    return Subspace(p, n, identity_matrix(n))


def zero_endo(p, n) -> Endo:
    return Endo(p, n, zero_matrix(n, n))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return subspace_span(a.basis + b.basis, a.n, a.p)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the left kernel of the stacked bases."""
    stacked = a.basis + b.basis
    if not stacked:
        return zero_subspace(a.p, a.n)
    kern = solve_homogeneous(mat_transpose(stacked), len(stacked), a.p)
    return subspace_span([from_coords(a, k[: a.dim]) for k in kern], a.n, a.p)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** n - p ** i
        den *= p ** k - p ** i
    return num // den


def express_in_basis(v, rows, p):
    """Coefficients t with t . rows = v, or None if v is outside the span."""
    if not rows:
        return () if all(x % p == 0 for x in v) else None
    aug = [list(col) + [x] for col, x in zip(zip(*rows), v)]
    red, pivots = rref(aug, len(rows) + 1, p)
    if len(rows) in pivots:
        return None
    t = [0] * len(rows)
    for i, c in enumerate(pivots):
        t[c] = red[i][-1]
    return tuple(t)


def complement_in(a: Subspace, b: Subspace) -> Subspace:
    """Deterministic complement of a inside b (requires a <= b): the rows of
    b's basis at the non-pivot columns of a's coordinates over it, so for b
    the full space the standard basis vectors outside a's pivots."""
    in_b = []
    for v in a.basis:
        c = coords(b, v)
        if c is None:
            raise ValueError("complement_in: first subspace not contained in second")
        in_b.append(c)
    red, pivots = rref(in_b, b.dim, a.p)
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


def inclusion_map(a: Subspace, b: Subspace) -> LinearMap:
    if not contains_subspace(b, a):
        raise ValueError("inclusion requires containment")
    return linear_map(a, b, list(a.basis))


def identity_map(a: Subspace) -> LinearMap:
    return LinearMap(a, a, identity_matrix(a.dim))
