"""Reference values the benchmark checks the program's outputs against.

Everything here is computed in closed form or with plain integer arithmetic
mod p, and nothing imports fibersemi, so a defect in the program cannot hide
in the reference it is checked against.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter


def gl_order(p: int, n: int) -> int:
    """|GL_n(p)| = prod_{i<n} (p^n - p^i)."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def singular_count(p: int, n: int) -> int:
    return p ** (n * n) - gl_order(p, n)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """G(n, k): the number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** n - p ** i
        den *= p ** k - p ** i
    return num // den


def idempotent_count(p: int, n: int) -> int:
    """Sum over proper subspaces A of p^(dim A * (n - dim A))."""
    return sum(gaussian_binomial(n, r, p) * p ** (r * (n - r)) for r in range(n))


def proper_subspace_count(p: int, n: int) -> int:
    """Proper subspaces, the zero subspace included."""
    return sum(gaussian_binomial(n, r, p) for r in range(n))


def subspace_count(p: int, n: int) -> int:
    return sum(gaussian_binomial(n, r, p) for r in range(n + 1))


def green_shape(p: int, n: int) -> dict:
    """Class counts and class-size multisets of Green's relations on Sing_n(p).

    Rank r < n indexes the D-classes.  L (same image) and R (same kernel) are
    indexed by the proper subspaces; a class of rank r holds prod_{i<r}(p^n - p^i)
    maps.  H-classes are the G(n,r)^2 cells of the rank-r eggbox, each a copy
    of GL_r(p).
    """
    l_sizes, h_sizes, d_sizes = Counter(), Counter(), Counter()
    for r in range(n):
        g = gaussian_binomial(n, r, p)
        lr = 1
        for i in range(r):
            lr *= p ** n - p ** i
        l_sizes[lr] += g
        h_sizes[gl_order(p, r)] += g * g
        d_sizes[g * g * gl_order(p, r)] += 1
    return {
        "l": proper_subspace_count(p, n),
        "r": proper_subspace_count(p, n),
        "h": sum(h_sizes.values()),
        "d": n,
        "l_sizes": l_sizes,
        "r_sizes": l_sizes,
        "h_sizes": h_sizes,
        "d_sizes": d_sizes,
    }


# ---------------------------------------------------------------------------
# plain matrix arithmetic mod p; matrices are tuples of row tuples

def mat_mul(a, b, p):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)


def rank(a, p) -> int:
    m = [list(r) for r in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def mat_inverse(a, p):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def all_matrices(p: int, n: int):
    """Every n x n matrix over GF(p), lexicographic by entries."""
    for entries in itertools.product(range(p), repeat=n * n):
        yield tuple(entries[i * n:(i + 1) * n] for i in range(n))


def singular_matrices(p: int, n: int) -> list:
    return [m for m in all_matrices(p, n) if rank(m, p) < n]


def invertible_matrices(p: int, n: int) -> list:
    return [m for m in all_matrices(p, n) if rank(m, p) == n]


def product_table(elements, p) -> list:
    """Cayley table of a matrix semigroup given as a list of matrices."""
    index = {m: i for i, m in enumerate(elements)}
    return [[index[mat_mul(a, b, p)] for b in elements] for a in elements]


def relabelled_sing_table(p: int, n: int, seed: int) -> dict:
    """The Cayley table of Sing(GF(p)^n) with its elements listed in a seeded
    random order, in the program's table interchange format."""
    elements = singular_matrices(p, n)
    table = product_table(elements, p)
    order = list(range(len(elements)))
    random.Random(seed).shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return {
        "elements": [[list(r) for r in elements[old]] for old in order],
        "table": [[new_index[table[a][b]] for b in order] for a in order],
    }
