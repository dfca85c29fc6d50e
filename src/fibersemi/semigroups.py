"""Finite semigroups given by Cayley tables.

Elements are opaque hashable labels; the table maps index pairs to the index
of the product.  Green's relations, morphism checks and the amalgam data
type all work at this level, so the same code serves matrix semigroups,
cone semigroups and hand-built fixtures alike.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from functools import lru_cache
from itertools import chain

import numpy as np

from . import gf
from .gf import ASSOC_GUARD, GuardExceeded, Record


class NotAssociative(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"operation not associative at triple {witness}")


class FiniteSemigroup(Record):
    """Labels and a read-only (order, order) int32 table of product indices.
    Equal when the labels and the table contents are; not hashable."""
    elements: tuple
    table: np.ndarray

    def __init__(self, elements, table):
        super().__init__(elements, table)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elements)})

    def __eq__(self, other):
        if not isinstance(other, FiniteSemigroup):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.table, other.table)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, label) -> int:
        return self._index[label]

    def mul_labels(self, a, b):
        return self.elements[self.table[self._index[a], self._index[b]]]

    def to_json(self):
        return {
            "elements": [_label_to_json(x) for x in self.elements],
            "table": self.table.tolist(),
        }


def _label_to_json(x):
    if isinstance(x, tuple):
        return [_label_to_json(y) for y in x]
    return x

def _label_from_json(x):
    if isinstance(x, list):
        return tuple(_label_from_json(y) for y in x)
    if isinstance(x, dict):
        raise ValueError(f"element label {x} is a JSON object")
    return x


def _generators(t):
    """Generators of the magma with int table t.  Walking the indices in
    order, each index outside the closure so far becomes a generator, and the
    closure is extended under right multiplication by the generators so far.
    At the end the closure is every index."""
    closure, gens = np.zeros(len(t), dtype=bool), []
    for a in range(len(t)):
        if closure[a]:
            continue
        gens.append(a)
        closure[a] = True
        frontier = np.flatnonzero(closure)
        while frontier.size:
            fresh = np.zeros_like(closure)
            fresh[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(fresh & ~closure)
            closure |= fresh
    return gens


_TABLE_GENERATORS = {}  # id(t) -> generators, for read-only tables still alive


def table_generators(t):
    """_generators(t) as an int array, computed once per read-only table (such
    as the shared Sing tables, and every table from_table validates).  An
    entry is dropped when its table is freed, before its id can be reused;
    a writeable table is walked again on every call."""
    if t.flags.writeable:
        return np.array(_generators(t), dtype=np.intp)
    if id(t) not in _TABLE_GENERATORS:
        _TABLE_GENERATORS[id(t)] = np.array(_generators(t), dtype=np.intp)
        weakref.finalize(t, _TABLE_GENERATORS.pop, id(t)).atexit = False
    return _TABLE_GENERATORS[id(t)]


def _associativity_witness(t):
    """A triple (x, g, y) with (xg)y != x(gy), or None if t is associative.

    Light's test over the generating set of ``table_generators``, so a
    read-only table's walk is shared with later callers.  It is sound for
    any magma: A = {a : (xa)y = x(ay) for all x, y} is closed under the
    product, since (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The
    closure of G under right multiplication lies in the submagma G generates,
    which lies in A once G does; so closure = S means A = S.
    """
    for g in table_generators(t).tolist():
        bad = t[t[:, g]] != t[:, t[g]]   # [x, y]: (xg)y vs x(gy)
        if bad.any():
            x, y = divmod(int(np.argmax(bad)), len(t))
            return (x, g, y)
    return None


def _table_array(table, n):
    """table as a read-only (n, n) int32 array, or ValueError.  An array
    needs an integer dtype; a list of rows, int entries, checked in one
    C-level pass (bool is not int)."""
    if isinstance(table, np.ndarray):
        if table.dtype.kind not in "iu" or table.shape != (n, n):
            raise ValueError(f"table must be an integer array of shape {(n, n)}, not {table.dtype} {table.shape}")
    elif len(table) != n or any(len(r) != n for r in table):
        raise ValueError("table must be square of the same order as the element list")
    elif set(map(type, chain.from_iterable(table))) <= {int}:
        try:
            table = np.array(table, dtype=np.int64).reshape(n, n)
        except OverflowError:  # beyond int64, so beyond any order the guard admits
            pass
    if not isinstance(table, np.ndarray):
        x = next(x for x in chain.from_iterable(table) if type(x) is not int or not 0 <= x < n)
        raise ValueError(f"table entry {x!r} is not an index below {n}")
    bad = (table < 0) | (table >= n)
    if bad.any():
        raise ValueError(f"table entry {table[bad][0].item()!r} is not an index below {n}")
    if table.dtype != np.int32 or table.flags.writeable:
        table = table.astype(np.int32)
        table.flags.writeable = False
    return table


def from_table(elements, table) -> FiniteSemigroup:
    """Validate closure and associativity, then wrap.

    table is an integer array or a list of rows of ints; a read-only int32
    array becomes the semigroup's table as it is, anything else a read-only
    copy.  Raises NotAssociative with a witness triple of labels, ValueError
    on a malformed table, GuardExceeded past the desk-scale order limit.
    """
    elements = tuple(elements)
    n = len(elements)
    if n > ASSOC_GUARD:
        raise GuardExceeded(f"order {n} exceeds associativity guard {ASSOC_GUARD}")
    if len(set(elements)) != n:
        raise ValueError("duplicate element labels")
    t = _table_array(table, n)
    if n:
        w = _associativity_witness(t)
        if w is not None:
            raise NotAssociative(tuple(elements[i] for i in w))
    return FiniteSemigroup(elements, t)


@lru_cache(maxsize=None)
def sing_semigroup(p, n) -> FiniteSemigroup:
    """Sing(GF(p)^n) over its singular Endos in enumeration order, on the
    kernel's read-only table itself; associativity is decided once per
    (p, n)."""
    elems, _, table = gf.sing_table(p, n)
    return from_table(elems, table)


def semigroup_from_json(d) -> FiniteSemigroup:
    """Validate a parsed table document; any malformed shape is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a table document must be a JSON object")
    elements, table = d.get("elements"), d.get("table")
    if not (isinstance(elements, list) and isinstance(table, list)
            and all(isinstance(r, list) for r in table)):
        raise ValueError("a table document needs an element list and a list of rows")
    return from_table([_label_from_json(x) for x in elements], table)


def from_multiplication(elements, op) -> FiniteSemigroup:
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
    return from_table(elements, table)


# ---------------------------------------------------------------------------
# idempotents, regularity, ideals, Green's relations

def idempotents(s: FiniteSemigroup):
    return tuple(np.flatnonzero(s.table.diagonal() == np.arange(s.order)).tolist())


def is_regular(s: FiniteSemigroup) -> bool:
    """Whether every a has some x with (a.x).a = a, the cell [a, x] below."""
    idx = np.arange(s.order)
    return bool((s.table[s.table, idx[:, None]] == idx[:, None]).any(axis=1).all())


class GreenStructure(Record):
    l_classes: tuple
    r_classes: tuple
    h_classes: tuple
    d_classes: tuple

    def to_json(self):
        return {k: [list(c) for c in getattr(self, k)] for k in self._fields}

    @staticmethod
    def from_json(d):
        return GreenStructure(*(tuple(map(tuple, d[k])) for k in GreenStructure._fields))


def _partition(keys):
    groups = defaultdict(list)
    for i, k in enumerate(keys):
        groups[k].append(i)
    classes = [tuple(sorted(v)) for v in groups.values()]
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def green_relations(s: FiniteSemigroup) -> GreenStructure:
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
    l_classes = _partition(lkeys)
    r_classes = _partition(rkeys)
    h_classes = _partition(list(zip(lkeys, rkeys)))
    # D = L.R, since L and R commute: a's D-class is the union of the
    # R-classes that meet its L-class
    r_of = {i: k for k, cls in enumerate(r_classes) for i in cls}
    d_key = {i: frozenset(r_of[x] for x in cls) for cls in l_classes for i in cls}
    d_classes = _partition([d_key[i] for i in range(n)])
    return GreenStructure(l_classes, r_classes, h_classes, d_classes)


# ---------------------------------------------------------------------------
# morphisms and amalgams

class SemigroupMorphism(Record):
    source: FiniteSemigroup
    target: FiniteSemigroup
    mapping: tuple  # source index -> target index


class MorphismReport(Record):
    is_hom: bool
    is_injective: bool
    witnesses: dict

    @property
    def ok(self):
        return self.is_hom and self.is_injective


def verify_morphism(f: SemigroupMorphism) -> MorphismReport:
    """Exhaustive homomorphism and injectivity check with witnesses; the hom
    witness is the first failing pair in row-major order."""
    s, t, m = f.source, f.target, f.mapping
    if len(m) != s.order or any(not (0 <= x < t.order) for x in m):
        raise ValueError("mapping is not a total function into the target")
    witnesses = {}
    img = np.array(m, dtype=np.intp)
    bad = img[s.table] != t.table[np.ix_(img, img)]   # [i, j]: m(ij) vs m(i)m(j)
    is_hom = not bad.any()
    if not is_hom:
        i, j = divmod(int(np.argmax(bad)), s.order)
        witnesses["hom"] = (s.elements[i], s.elements[j])
    is_injective = len(set(m)) == s.order
    if not is_injective:
        first = {}
        i = next(i for i, x in enumerate(m) if first.setdefault(x, i) != i)
        witnesses["injective"] = (s.elements[first[m[i]]], s.elements[i])
    return MorphismReport(is_hom, is_injective, witnesses)


class Amalgam(Record):
    core: FiniteSemigroup
    branches: tuple
    embeddings: tuple  # SemigroupMorphism core -> branch, one per branch


class AmalgamReport(Record):
    disjoint: bool
    embedding_reports: tuple
    witnesses: dict

    @property
    def ok(self):
        return self.disjoint and all(r.ok for r in self.embedding_reports)


def verify_amalgam(a: Amalgam) -> AmalgamReport:
    """Pairwise disjointness of element labels plus one morphism report per embedding."""
    witnesses = {}
    families = [("core", set(a.core.elements))]
    families += [(f"branch{i}", set(b.elements)) for i, b in enumerate(a.branches)]
    disjoint = True
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            common = families[i][1] & families[j][1]
            if common:
                disjoint = False
                witnesses["disjoint"] = (families[i][0], families[j][0], sorted(common)[0])
    reports = []
    for i, (phi, branch) in enumerate(zip(a.embeddings, a.branches)):
        if phi.source is not a.core and phi.source != a.core:
            raise ValueError(f"embedding {i} does not start at the core")
        if phi.target is not branch and phi.target != branch:
            raise ValueError(f"embedding {i} does not land in branch {i}")
        reports.append(verify_morphism(phi))
    return AmalgamReport(disjoint, tuple(reports), witnesses)


def amalgam_to_json(a: Amalgam):
    return {
        "core": a.core.to_json(),
        "branches": [b.to_json() for b in a.branches],
        "embeddings": [
            [[i, j] for i, j in enumerate(phi.mapping)] for phi in a.embeddings
        ],
    }


def null_semigroup_fixture() -> Amalgam:
    """The four-element null semigroup with its two one-generator extensions.

    Core U = {u,v,w,z} with all products z.  Branch one adjoins a with
    au = ua = v; branch two adjoins b with bv = vb = w; every other product
    is z.  Embeddings are the inclusions, with labels tagged by owner.
    """
    def build(tag, extra, special):
        names = ["u", "v", "w", "z"] + ([extra] if extra else [])
        labels = [(tag, x) for x in names]
        def op(a, b):
            return (tag, special.get((a[1], b[1]), "z"))
        return from_multiplication(labels, op)

    core = build("U", None, {})
    s1 = build("S1", "a", {("a", "u"): "v", ("u", "a"): "v"})
    s2 = build("S2", "b", {("b", "v"): "w", ("v", "b"): "w"})
    embeddings = []
    for branch, tag in ((s1, "S1"), (s2, "S2")):
        mapping = tuple(branch.index((tag, x[1])) for x in core.elements)
        embeddings.append(SemigroupMorphism(core, branch, mapping))
    return Amalgam(core, (s1, s2), tuple(embeddings))


# ---------------------------------------------------------------------------
# eggbox export

def _label_str(x):
    if isinstance(x, tuple):
        return "(" + ",".join(_label_str(y) for y in x) + ")"
    return str(x)


def eggbox_dot(s: FiniteSemigroup, g: GreenStructure) -> str:
    """Graphviz rendering: one cluster per D-class, an HTML grid of H-cells
    with rows the R-classes and columns the L-classes."""
    lines = ["digraph eggbox {", '  graph [fontname="monospace"];']
    for d_i, dcls in enumerate(g.d_classes):
        dset = set(dcls)
        rows = [r for r in g.r_classes if set(r) <= dset]
        cols = [l for l in g.l_classes if set(l) <= dset]
        cells = []
        for r in rows:
            row_cells = []
            for l in cols:
                h = sorted(set(r) & set(l))
                text = "<BR/>".join(_label_str(s.elements[i]) for i in h)
                row_cells.append(f"<TD>{text}</TD>")
            cells.append("<TR>" + "".join(row_cells) + "</TR>")
        table = '<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">' + "".join(cells) + "</TABLE>"
        lines.append(f"  subgraph cluster_{d_i} {{")
        lines.append(f'    label="D{d_i}";')
        lines.append(f"    d{d_i} [shape=plaintext, label=<{table}>];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
