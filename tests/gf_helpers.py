"""GF(p) constructions the tests use and the program does not: the full
and zero spaces, the zero matrix and map, the transpose of a matrix and of
an Endo, an Endo's action on a row vector, its image and kernel, the
solution space of a homogeneous system, a Subspace's pivot columns and the
coordinates of a vector over its basis, sums and intersections of subspaces,
containment of subspaces, linear maps between subspaces (LinearMap, with
the inclusion and identity maps), and the Gaussian binomial that counts
subspaces of each dimension; and the one-subspace-at-a-time forms of what
gf.subspace_lattice reads from arrays (annihilators, direct sums,
complements and coordinates over a spanning set), which the lattice is
compared against."""

from __future__ import annotations

from fibersemi import gf
from fibersemi.gf import Endo, Record, Subspace


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
    red, pivots = gf.rref(rows, width, p)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f]) % p
        basis.append(tuple(v))
    return gf.rref(basis, width, p)[0]


def image(alpha: Endo) -> Subspace:
    return gf.subspace_span(alpha.rows, alpha.n, alpha.p)


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
            m = gf.mat_mul(self.matrix, other.matrix, self.p)
        return LinearMap(self.dom, other.cod, m)

    @property
    def rank(self):
        return gf.mat_rank(self.matrix, self.cod.dim, self.p)

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
    return Subspace(p, n, gf.identity_matrix(n))


def zero_endo(p, n) -> Endo:
    return Endo(p, n, zero_matrix(n, n))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return gf.subspace_span(a.basis + b.basis, a.n, a.p)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the left kernel of the stacked bases."""
    stacked = a.basis + b.basis
    if not stacked:
        return zero_subspace(a.p, a.n)
    kern = solve_homogeneous(mat_transpose(stacked), len(stacked), a.p)
    return gf.subspace_span([from_coords(a, k[: a.dim]) for k in kern], a.n, a.p)


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
    red, pivots = gf.rref(aug, len(rows) + 1, p)
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
    red, pivots = gf.rref(in_b, b.dim, a.p)
    piv = set(pivots)
    rows = [b.basis[j] for j in range(b.dim) if j not in piv]
    basis, _ = gf.rref(rows, a.n, a.p)
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
    return gf.mat_rank(a.basis + b.basis, a.n, a.p) == a.n


def inclusion_map(a: Subspace, b: Subspace) -> LinearMap:
    if not contains_subspace(b, a):
        raise ValueError("inclusion requires containment")
    return linear_map(a, b, list(a.basis))


def identity_map(a: Subspace) -> LinearMap:
    return LinearMap(a, a, gf.identity_matrix(a.dim))
