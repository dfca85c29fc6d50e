"""Test oracles for the Sing kernel and the table-level semigroup checks: the
per-matrix rank filter and the block-matmul table build that gf computed
Sing(GF(p)^n) with before it moved to batched ranks and row-code lookup,
and the pure-Python loops that is_regular and verify_morphism ran before
they read the int32 table as an array."""

from __future__ import annotations

import itertools

import numpy as np

from fibersemi import gf
from fibersemi import semigroups as sg


def endos(p, n, keep=lambda e: True):
    """The n x n matrices over GF(p) that keep accepts, lexicographic by
    entries, with one pure-Python rank per matrix."""
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        e = gf.Endo(p, n, tuple(entries[i * n:(i + 1) * n] for i in range(n)))
        if keep(e):
            out.append(e)
    return tuple(out)


def singular_endos(p, n):
    return endos(p, n, lambda e: e.rank < n)


def automorphisms(p, n):
    return endos(p, n, lambda e: e.rank == n)


def matmul_table(p, n, block_cells=1 << 15):
    """The Sing table by one batched matmul per block of rows, each product
    decoded through its base-p code."""
    elems = singular_endos(p, n)
    mats = np.array([e.rows for e in elems], dtype=np.int64)
    weights = p ** np.arange(n * n - 1, -1, -1)
    decode = np.full(p ** (n * n), -1, dtype=np.int32)
    decode[mats.reshape(len(mats), -1) @ weights] = np.arange(len(elems), dtype=np.int32)
    table = np.empty((len(elems), len(elems)), dtype=np.int32)
    block = max(1, block_cells // (len(elems) * n * n))
    for lo in range(0, len(elems), block):
        prod = np.matmul(mats[lo:lo + block, None], mats[None]) % p
        table[lo:lo + block] = decode[prod.reshape(*prod.shape[:2], -1) @ weights]
    return elems, table


def is_regular(s: sg.FiniteSemigroup) -> bool:
    rn = range(s.order)
    return all(any(s.table[s.table[a][x]][a] == a for x in rn) for a in rn)


def hom_witness(f: sg.SemigroupMorphism):
    """The first pair (i, j), in row-major order, with m(ij) != m(i)m(j), as
    labels, or None."""
    s, t, m = f.source, f.target, f.mapping
    for i in range(s.order):
        for j in range(s.order):
            if m[s.table[i][j]] != t.table[m[i]][m[j]]:
                return s.elements[i], s.elements[j]
    return None
