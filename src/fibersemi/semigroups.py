"""Finite semigroups given by Cayley tables.

Elements are opaque hashable labels; the table maps index pairs to the index
of the product.  Regularity and the morphism check work at this level, the
check on index arrays into the tables, so the same code serves matrix
semigroups, cone semigroups and hand-built fixtures alike.  The regularity
and Green's relations of Sing(GF(p)^n) are decided without a table, from
verified matrix witnesses (sing_green).
"""

from __future__ import annotations

import json
import re
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

    def mul_labels(self, a, b):
        return self.elements[self.table[self._index[a], self._index[b]]]


_NESTED = {list, dict}


def _label_from_json(x):
    """x, as json.loads made it, with every array in it a tuple; an object
    raises ValueError.  Only arrays and objects take a call: an array of
    scalars becomes a tuple at once, and the scalar members of any other
    array are kept as they are.  So a list of labels converts in one call."""
    if isinstance(x, list):
        if _NESTED.isdisjoint(map(type, x)):
            return tuple(x)
        return tuple([_label_from_json(y) if type(y) in _NESTED else y for y in x])
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


def _associativity_witness(t):
    """A triple (x, g, y) with (xg)y != x(gy), or None if t is associative.

    Light's test over the generating set of ``_generators``.  It is sound
    for any magma: A = {a : (xa)y = x(ay) for all x, y} is closed under the
    product, since (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The
    closure of G under right multiplication lies in the submagma G generates,
    which lies in A once G does; so closure = S means A = S.

    Every generator's pass is written into the same three buffers: fresh
    (n, n) temporaries per pass cost more than the comparison itself, in
    allocation and page faults.  The table's entries are indices below n
    (from_table checks them), so mode="clip" never clips; it only spares
    take() a buffered copy.
    """
    left, right, bad = np.empty_like(t), np.empty_like(t), np.empty(t.shape, dtype=bool)
    for g in _generators(t):
        np.take(t, t[:, g], axis=0, out=left, mode="clip")   # [x, y]: (xg)y
        np.take(t, t[g], axis=1, out=right, mode="clip")     # [x, y]: x(gy)
        if np.not_equal(left, right, out=bad).any():
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


def semigroup_from_json(d) -> FiniteSemigroup:
    """Validate a parsed table document; any malformed shape is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a table document must be a JSON object")
    elements, table = d.get("elements"), d.get("table")
    if not (isinstance(elements, list) and isinstance(table, list)
            and all(isinstance(r, list) for r in table)):
        raise ValueError("a table document needs an element list and a list of rows")
    return from_table(_label_from_json(elements), table)


# The common table document, {"elements": [...], "table": [[...], ...]} in
# that key order with any JSON whitespace, framed by these patterns.  They
# are compiled on first use, through re's cache, so importing stays as fast.
_WS = "[ \t\n\r]*"
_DOC_HEAD = _WS + r'\{' + _WS + '"elements"' + _WS + ":" + _WS
_TABLE_KEY = _WS + "," + _WS + '"table"' + _WS + ":" + _WS + r"(?=\[)"
_DOC_TAIL = r"\]" + _WS + r"\}" + _WS
_BRACKETS_AS_SPACE = bytes.maketrans(b"[]", b"  ")
# Each byte of a table as a left class in its low four bits and a right
# class in its high four, so that two neighbours share a bit exactly when
# they are digit "[", "]" digit, or one of "[" and "," before one of ","
# and "]": a digit outside a row, or an empty slot.
_PAIR_CLASS = bytes.maketrans(b"0123456789[],", b"\x21" * 10 + b"\x14\x42\x44")


def _digit_runs(data):
    """The number of runs of ASCII digits in data that a byte ends."""
    a = np.frombuffer(data, dtype=np.uint8)
    digit = (a >= 48) & (a <= 57)
    return int(np.count_nonzero(digit[:-1] & ~digit[1:]))


def _is_table_shape(dense, n):
    """Whether dense, bytes of digits, commas and brackets, is n rows of n
    slots, each slot one digit run: the delimiters form the exact skeleton,
    and no two neighbours share a _PAIR_CLASS bit.  The pairs are taken in
    blocks of gf.TABLE_BLOCK_CELLS bytes, which bounds the scratch memory."""
    row = b"[" + b"," * (n - 1) + b"]"
    if dense.translate(None, b"0123456789") != b"[" + b",".join([row] * n) + b"]":
        return False
    for lo in range(0, len(dense) - 1, gf.TABLE_BLOCK_CELLS):
        code = np.frombuffer(dense[lo:lo + gf.TABLE_BLOCK_CELLS + 1].translate(_PAIR_CLASS), dtype=np.uint8)
        right = np.right_shift(code[1:], 4)
        if np.bitwise_and(right, code[:-1], out=right).any():
            return False
    return True


def _table_cells(data, n):
    """The bytes of a JSON array of n arrays of n non-negative integer
    literals as a read-only (n, n) int32 array, or None for any other bytes.

    C-level scans decide the shape: no whitespace inside a literal, and
    _is_table_shape, whose skeleton admits no byte but digits, commas and
    brackets.  One np.fromstring then reads the n*n literals that the shape
    holds; it is told that count, and would fill a short read silently.  It
    also wraps silently past int32, so every value must have as many digits
    as its literal, a negative value counting one.  That rules out leading
    zeros too, since a wrapped value below 10**9 has fewer digits than the
    ten or more of its literal.  Each buffer is dropped once the next is
    made, which keeps the peak near two copies of the input.
    """
    dense = data
    if data.translate(None, b"0123456789,[]"):  # JSON whitespace, or a byte the skeleton refuses
        dense = data.translate(None, b" \t\n\r")
        if _digit_runs(data) != _digit_runs(dense):
            return None
    del data
    if not _is_table_shape(dense, n):
        return None
    digits = len(dense) - (n + 1) ** 2
    spaced = dense.translate(_BRACKETS_AS_SPACE)
    del dense
    cells = np.fromstring(spaced, dtype=np.int32, count=n * n, sep=",")
    del spaced
    top = int(cells.max())
    if top >= 10 ** 9 or digits != cells.size + sum(
            int(np.count_nonzero(cells >= 10 ** k)) for k in range(1, len(str(top)))):
        return None
    cells = cells.reshape(n, n)
    cells.flags.writeable = False
    return cells


def _table_document(text):
    """(elements, table) of text in the common table document form, as
    json.loads reads the elements and _table_cells the table; None for any
    other text."""
    head = re.compile(_DOC_HEAD).match(text)
    if head is None:
        return None
    elements, end = json.JSONDecoder().raw_decode(text, head.end())
    key = re.compile(_TABLE_KEY).match(text, end)
    stop = text.rfind("]")
    if not (isinstance(elements, list) and len(elements) <= ASSOC_GUARD
            and key and re.compile(_DOC_TAIL).fullmatch(text, stop)):
        return None
    cells = _table_cells(text[key.end():stop + 1].encode("ascii"), len(elements))
    return None if cells is None else (elements, cells)


def semigroup_from_text(text) -> FiniteSemigroup:
    """semigroup_from_json(json.loads(text)), with the same result and the
    same exceptions.  A document of the common form has its table read
    straight into the int32 array that from_table adopts, with no Python
    int or list per cell; any other text, and any error before from_table,
    goes through json.loads and semigroup_from_json, which alone word the
    errors."""
    try:
        doc = _table_document(text)
        if doc is not None:
            labels = _label_from_json(doc[0])
    except (ValueError, RecursionError):  # raw_decode, encode, fromstring or a label
        doc = None
    if doc is None:
        return semigroup_from_json(json.loads(text))
    del text  # the caller passes the only reference: free it before Light's test
    return from_table(labels, doc[1])


def table_json(table) -> str:
    """json.dumps(table.tolist(), separators=(",", ":")) for a square array
    of indices below its order, written with no Python object per cell.

    The index strings str(0) .. str(order - 1) are built once, each padded
    with spaces to the widest and followed by a comma, as the rows of a byte
    array.  Each block of about gf.TABLE_BLOCK_CELLS cells gathers its cells'
    strings by index into rows framed "[" .. "],", and drops the padding,
    since the JSON text holds no spaces; the last row closes with "]]"
    instead."""
    order = len(table)
    if not order:
        return "[]"
    width = len(str(order - 1)) + 1
    index = "".join([f"{i:<{width - 1}}," for i in range(order)]).encode("ascii")
    cells = np.frombuffer(index, dtype=np.uint8).reshape(order, width)
    block = max(1, gf.TABLE_BLOCK_CELLS // order)
    parts = ["["]
    for lo in range(0, order, block):
        rows = table[lo:lo + block]
        text = np.empty((len(rows), order * width + 2), dtype=np.uint8)
        text[:, 1:-1] = cells[rows].reshape(len(rows), -1)
        text[:, 0], text[:, -2], text[:, -1] = ord("["), ord("]"), ord(",")  # -2: the last cell's comma
        parts.append(text.tobytes().translate(None, b" ").decode("ascii"))
    parts[-1] = parts[-1][:-1] + "]"
    return "".join(parts)


# ---------------------------------------------------------------------------
# regularity and Green's relations

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


def _class_of(classes, size):
    """The position in classes of each of the size elements' class."""
    of = np.empty(size, dtype=np.intp)
    for k, c in enumerate(classes):
        of[list(c)] = k
    return of


def _plus(mats, p):
    """x+ of each matrix x of a stack, from one batched rref of [x | I], as
    sing_green states it: row j of E, the right half, at row c_j, the
    column of the j-th pivot of the left half."""
    n = mats.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape)
    red, pivot, _ = gf.rref_stack(np.concatenate([mats, eye], axis=2), p)
    pivot = pivot[:, :n]
    at, col = np.nonzero(pivot)
    plus = np.zeros(mats.shape, dtype=np.int64)
    plus[at, col] = red[at, pivot.cumsum(axis=1)[at, col] - 1, n:]   # row j of E to row c_j
    return plus


@lru_cache(maxsize=None)
def sing_green(p, n) -> GreenStructure:
    """Green's relations of Sing(GF(p)^n) from verified matrix witnesses,
    with no table built, once per (p, n).  Each class lists its elements in
    Sing order and the classes come in order of their first elements.  Maps
    act on row vectors, so the image of x is its row space.

    Regularity.  The rref of [x | I] is [R | E] with E invertible and
    E.x = R.  Let y0 select R's pivot columns, y0[c_j, j] = 1; then
    R.y0.R = R, so x+ = y0.E gives x.x+.x = E^-1.R.y0.R = x, and
    rank x+ <= rank x < n.  Batched rrefs give every x+ (_plus).

    L and R.  If im x = im r then x = w.r for some w, so (x.r+).r = x, and
    likewise (r.x+).x = r: x L r.  If ker x = ker r then x = r.w, so
    r.(r+.x) = x and x.(x+.r) = r: x R r.  Each element is checked against
    the first element r of its image class and of its kernel class, in one
    batched product per identity, and every multiplier, x+ included, is
    checked singular through gf._ranks, so the witnesses lie in Sing.  The
    converses need no witness: im(u.x) is in im x and ker(x.u) contains
    ker x for every u, so elements with different images are never
    L-related and elements with different kernels never R-related.  So the
    L-classes are the image classes and the R-classes the kernel classes,
    keyed by the row space of x^T, which is ann(ker x); both are lattice
    positions from gf.sing_images.  H is the meet of L and R, and D = L.R,
    the union of the R-classes that meet an L-class.

    No Light's test is needed: no table is built, and Sing's associativity
    is that of matrix multiplication.  The elements are checked in blocks
    of gf.TABLE_BLOCK_CELLS // n^2, in order, which bounds the stacks a
    block holds; each class leader's x+ is kept from its own block.  The first
    element whose witness fails raises AssertionError naming it.
    """
    mats, ranks = gf._sing_matrices(p, n), gf._ranks(p, n)
    images, kernels = (a.tolist() for a in gf.sing_images(p, n))
    l_classes, r_classes = _partition(images), _partition(kernels)
    l_of, r_of = _class_of(l_classes, len(mats)), _class_of(r_classes, len(mats))
    leader_of = np.array([c[0] for c in l_classes + r_classes])  # the L-classes', then the R-classes'
    leaders, leader_plus = mats[leader_of], np.empty((len(leader_of), n, n), dtype=np.int64)

    def mul(a, b):
        return a @ b % p

    def equal(a, b):
        return (a == b).all(axis=(1, 2))

    def singular(a):
        return ranks[gf.base_p(a, p)] < n

    block = max(1, gf.TABLE_BLOCK_CELLS // (n * n))
    for lo in range(0, len(mats), block):
        at = slice(lo, lo + block)
        x, plus = mats[at], _plus(mats[at], p)
        here = (leader_of >= lo) & (leader_of < lo + block)   # a class leads with its first element,
        leader_plus[here] = plus[leader_of[here] - lo]         # so no block reads a later block's leader
        lead, rep = leaders[l_of[at]], leaders[len(l_classes) + r_of[at]]
        u, v = mul(x, leader_plus[l_of[at]]), mul(lead, plus)                   # x = u.lead, lead = v.x
        s, t = mul(leader_plus[len(l_classes) + r_of[at]], x), mul(plus, rep)   # x = rep.s, rep = x.t
        claims = {
            "regularity": equal(mul(mul(x, plus), x), x) & singular(plus),
            "L": equal(mul(u, lead), x) & equal(mul(v, x), lead) & singular(u) & singular(v),
            "R": equal(mul(rep, s), x) & equal(mul(x, t), rep) & singular(s) & singular(t),
        }
        held = claims["regularity"] & claims["L"] & claims["R"]
        if not held.all():
            i = int(held.argmin())
            failed = " and ".join(name for name, ok in claims.items() if not ok[i])
            raise AssertionError(f"element {lo + i} of Sing(GF({p})^{n}), {x[i].tolist()}, "
                                 f"fails its {failed} witness check")
    meets = np.zeros((len(l_classes), len(r_classes)), dtype=bool)
    meets[l_of, r_of] = True
    d_keys = [row.tobytes() for row in meets]
    return GreenStructure(l_classes, r_classes, _partition(list(zip(images, kernels))),
                          _partition([d_keys[k] for k in l_of.tolist()]))


# ---------------------------------------------------------------------------
# morphisms and the null-semigroup fixture

def morphism_witnesses(source, target, img):
    """{"hom": (i, j)} for the first pair in row-major order with
    img[ij] != img[i]img[j], and {"injective": (i, k)} for the first index k
    whose image an earlier index i already has; empty for an injective
    homomorphism.  source and target are tables, img an index array into
    target."""
    witnesses = {}
    bad = img[source] != target[np.ix_(img, img)]   # [i, j]: img(ij) vs img(i)img(j)
    if bad.any():
        witnesses["hom"] = divmod(int(np.argmax(bad)), len(source))
    values, first = np.unique(img, return_index=True)
    if len(values) < len(img):
        repeat = np.ones(len(img), dtype=bool)
        repeat[first] = False
        k = int(repeat.argmax())
        witnesses["injective"] = (int(first[np.searchsorted(values, img[k])]), k)
    return witnesses


def null_semigroup_fixture():
    """(core, (s1, s2), inclusions): the four-element null semigroup with
    its two one-generator extensions.

    Core U = {u,v,w,z} with all products z.  Branch one adjoins a with
    au = ua = v; branch two adjoins b with bv = vb = w; every other product
    is z.  Labels are tagged by owner.  Each branch lists the core's four
    elements first, so each inclusion is the index array 0..3.
    """
    def build(tag, extra, special):
        names = ["u", "v", "w", "z"] + ([extra] if extra else [])
        table = [[names.index(special.get((a, b), "z")) for b in names] for a in names]
        return from_table([(tag, x) for x in names], table)

    core = build("U", None, {})
    s1 = build("S1", "a", {("a", "u"): "v", ("u", "a"): "v"})
    s2 = build("S2", "b", {("b", "v"): "w", ("v", "b"): "w"})
    return core, (s1, s2), (np.arange(core.order), np.arange(core.order))


# ---------------------------------------------------------------------------
# eggbox export

def eggbox_dot(labels, g: GreenStructure) -> str:
    """Graphviz rendering: one cluster per D-class, an HTML grid of H-cells
    with rows the R-classes and columns the L-classes, each in class order;
    labels[i] is the text of element i.  One pass over the elements files
    each label under its (R-class, L-class) cell, in element order."""
    size = sum(map(len, g.d_classes))
    r_of, l_of = _class_of(g.r_classes, size).tolist(), _class_of(g.l_classes, size).tolist()
    cells = defaultdict(list)
    for i, cell in enumerate(zip(r_of, l_of)):
        cells[cell].append(labels[i])
    lines = ["digraph eggbox {", '  graph [fontname="monospace"];']
    for d_i, dcls in enumerate(g.d_classes):
        rows, cols = sorted({r_of[i] for i in dcls}), sorted({l_of[i] for i in dcls})
        grid = "".join("<TR>" + "".join(f"<TD>{'<BR/>'.join(cells[r, l])}</TD>" for l in cols) + "</TR>"
                       for r in rows)
        table = '<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">' + grid + "</TABLE>"
        lines.append(f"  subgraph cluster_{d_i} {{")
        lines.append(f'    label="D{d_i}";')
        lines.append(f"    d{d_i} [shape=plaintext, label=<{table}>];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
