"""Test oracles for the Sing kernel and the table-level semigroup checks: the
per-matrix rank filter and the block-matmul table build that gf computed
Sing(GF(p)^n) with before it moved to batched ranks and row-code lookup,
the pure-Python loops that is_regular and verify_morphism ran before
they read the int32 table as an array, and from_multiplication, a table
built one call of a labelled operation per cell.

The labelled morphism record (SemigroupMorphism, verify_morphism with its
MorphismReport), the table document writer (semigroup_to_json), the
product of two labels (mul_labels) and the reader of green --format json
(green_from_json) are the semigroups API the program kept before it
decided every morphism on index arrays (sg.morphism_witnesses) and wrote
tables only through its own document writers; the tests use them to state
claims over labels.

idempotents and green_relations are the table engine that decided Sing's
idempotents and Green's relations in verify-all before both checks moved to
the verified matrix witnesses (sg.sing_green, gf.idempotent_matrices); they
work on any table and are the reference those witnesses are compared with.

associativity_witness is Light's test as semigroups ran it before each
generator's pass moved to row blocks: one pass over the whole (n, n) table
per generator, in three table-sized buffers.

enumerate_endos (every matrix as an Endo record) and sing_semigroup (Sing's
table under Light's test, labelled by those records) are what gf and
semigroups built Sing from before the program read Sing's matrices and its
decode array as arrays and took the conjugation law and the block
embeddings as stated reductions; the tests state claims over them."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

import gf_helpers as gh
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi.gf import Record


def from_multiplication(elements, op) -> sg.FiniteSemigroup:
    """Build a table from a closed binary operation on the labels."""
    elements = tuple(elements)
    idx = {x: i for i, x in enumerate(elements)}
    table = []
    for a in elements:
        row = []
        for b in elements:
            c = op(a, b)
            if c not in idx:
                raise ValueError(f"operation not closed: {a} * {b} = {c}")
            row.append(idx[c])
        table.append(row)
    return sg.from_table(elements, table)


def associativity_witness(t):
    """The first triple (x, g, y), in row-major order for the first failing
    generator g of sg._generators, with (xg)y != x(gy), or None: Light's
    test with each generator's pass over the whole table at once."""
    left, right, bad = np.empty_like(t), np.empty_like(t), np.empty(t.shape, dtype=bool)
    for g in sg._generators(t):
        np.take(t, t[:, g], axis=0, out=left, mode="clip")   # [x, y]: (xg)y
        np.take(t, t[g], axis=1, out=right, mode="clip")     # [x, y]: x(gy)
        if np.not_equal(left, right, out=bad).any():
            x, y = divmod(int(np.argmax(bad)), len(t))
            return (x, g, y)
    return None


@lru_cache(maxsize=None)
def enumerate_endos(p, n, singular_only=False):
    """All n x n matrices over GF(p) as Endos, lexicographic by entries;
    singular_only keeps those of rank below n, which is Sing order."""
    mats = gf._sing_matrices(p, n) if singular_only else gf.from_base_p(np.arange(gf._endo_count(p, n)), p, n, n)
    return tuple(gh.Endo(p, n, tuple(map(tuple, m))) for m in mats.tolist())


@lru_cache(maxsize=None)
def sing_semigroup(p, n) -> sg.FiniteSemigroup:
    """Sing(GF(p)^n) over its singular Endos in Sing order, on gf.sing_table
    itself; associativity is decided once per (p, n), by Light's test."""
    return sg.from_table(enumerate_endos(p, n, singular_only=True), gf.sing_table(p, n))


def endos(p, n, keep=lambda e: True):
    """The n x n matrices over GF(p) that keep accepts, lexicographic by
    entries, with one pure-Python rank per matrix."""
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        e = gh.Endo(p, n, tuple(entries[i * n:(i + 1) * n] for i in range(n)))
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


class SemigroupMorphism(Record):
    source: sg.FiniteSemigroup
    target: sg.FiniteSemigroup
    mapping: tuple  # source index -> target index


class MorphismReport(Record):
    is_hom: bool
    is_injective: bool
    witnesses: dict

    @property
    def ok(self):
        return self.is_hom and self.is_injective


def verify_morphism(f: SemigroupMorphism) -> MorphismReport:
    """Exhaustive homomorphism and injectivity check (sg.morphism_witnesses),
    with the witnesses as labels."""
    s, t, m = f.source, f.target, f.mapping
    if len(m) != s.order or any(not (0 <= x < t.order) for x in m):
        raise ValueError("mapping is not a total function into the target")
    found = sg.morphism_witnesses(s.table, t.table, np.array(m, dtype=np.intp))
    witnesses = {k: (s.elements[i], s.elements[j]) for k, (i, j) in found.items()}
    return MorphismReport("hom" not in found, "injective" not in found, witnesses)


def _label_to_json(x):
    if isinstance(x, tuple):
        return [_label_to_json(y) for y in x]
    return x


def semigroup_to_json(s: sg.FiniteSemigroup):
    """The table document that sg.semigroup_from_json reads back."""
    return {"elements": [_label_to_json(x) for x in s.elements], "table": s.table.tolist()}


def mul_labels(s: sg.FiniteSemigroup, a, b):
    """The label of a.b in s, read from its table by the labels' positions."""
    return s.elements[s.table[s.elements.index(a), s.elements.index(b)]]


def green_from_json(d) -> sg.GreenStructure:
    """The GreenStructure whose to_json document, as green --format json
    writes it, is d."""
    return sg.GreenStructure(*(tuple(map(tuple, d[k])) for k in sg.GreenStructure._fields))


def idempotents(s: sg.FiniteSemigroup):
    return tuple(np.flatnonzero(s.table.diagonal() == np.arange(s.order)).tolist())


def green_relations(s: sg.FiniteSemigroup) -> sg.GreenStructure:
    """L, R, H, D via monoid-completed ideals S^1 a = Sa u {a}.

    The completion keeps L and R reflexive on non-regular semigroups.
    """
    n, t = s.order, s.table
    idx = np.arange(n)

    def keys(rows):  # a bit-packed membership row per element, as bytes
        member = np.zeros((n, n), dtype=bool)
        member[rows, t] = True
        member[idx, idx] = True
        return [r.tobytes() for r in np.packbits(member, axis=1)]

    lkeys = keys(idx)            # row a marks {xa : x} u {a}
    rkeys = keys(idx[:, None])   # row a marks {ax : x} u {a}
    l_classes = sg._partition(lkeys)
    r_classes = sg._partition(rkeys)
    h_classes = sg._partition(list(zip(lkeys, rkeys)))
    # D = L.R, since L and R commute: a's D-class is the union of the
    # R-classes that meet its L-class
    r_of = {i: k for k, cls in enumerate(r_classes) for i in cls}
    d_key = {i: frozenset(r_of[x] for x in cls) for cls in l_classes for i in cls}
    d_classes = sg._partition([d_key[i] for i in range(n)])
    return sg.GreenStructure(l_classes, r_classes, h_classes, d_classes)
