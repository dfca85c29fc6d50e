"""Finite semigroups given by Cayley tables.

Elements are opaque hashable labels; the table maps index pairs to the index
of the product.  Regularity and the morphism check work at this level, the
check on index arrays into the tables, so the same code serves matrix
semigroups, cone semigroups and hand-built fixtures alike.  The regularity
and Green's relations of Sing(GF(p)^n) are decided without a table, from
verified matrix witnesses (sing_green).
"""

from __future__ import annotations

import io
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

    def __eq__(self, other):
        if not isinstance(other, FiniteSemigroup):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.table, other.table)

    @property
    def order(self) -> int:
        return len(self.elements)


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
    """The first triple (x, g, y), in row-major order for the first failing
    generator g, with (xg)y != x(gy), or None if t is associative.

    Light's test over the generating set of ``_generators``.  It is sound
    for any magma: A = {a : (xa)y = x(ay) for all x, y} is closed under the
    product, since (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The
    closure of G under right multiplication lies in the submagma G generates,
    which lies in A once G does; so closure = S means A = S.

    Each generator's pass runs over blocks of gf.TABLE_BLOCK_CELLS // n
    rows, all written into the same three block buffers, so the scratch
    memory does not grow with n^2 and no pass allocates.  The table's
    entries are indices below n (from_table checks them), so mode="wrap"
    never wraps; it only spares take() a buffered copy, and it gathers
    faster than mode="clip".
    """
    n = len(t)
    block = max(1, gf.TABLE_BLOCK_CELLS // n)
    left, right = np.empty((block, n), dtype=t.dtype), np.empty((block, n), dtype=t.dtype)
    bad = np.empty((block, n), dtype=bool)
    for g in _generators(t):
        column, row = t[:, g], t[g]
        for lo in range(0, n, block):
            k = min(block, n - lo)
            np.take(t, column[lo:lo + k], axis=0, out=left[:k], mode="wrap")   # [x, y]: (xg)y
            np.take(t[lo:lo + k], row, axis=1, out=right[:k], mode="wrap")     # [x, y]: x(gy)
            if np.not_equal(left[:k], right[:k], out=bad[:k]).any():
                x, y = divmod(int(np.argmax(bad[:k])), n)
                return (lo + x, g, y)
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
_JSON_WS = b" \t\n\r"
_WS = rb"[ \t\n\r]*"
_DOC_HEAD = _WS + rb'\{' + _WS + rb'"elements"' + _WS + b":" + _WS
_TABLE_KEY = rb'"table"' + _WS + b":" + _WS + rb"(?=\[)"  # after a comma, found apart
_DOC_TAIL = rb"\]" + _WS + rb"\}" + _WS
# A table's brackets blanked to whitespace that np.fromstring skips, "[" to
# a space and "]" to a tab, so that a table with no JSON whitespace can be
# unblanked again.
_BLANK = bytes.maketrans(b"[]", b" \t")
_UNBLANK = bytes.maketrans(b" \t", b"[]")


def _table_document(data):
    """(elements, lo, hi) for bytes data in the common table document form:
    elements as json.loads reads them, and data[lo:hi] the table, from its
    first "[" to the document's last "]".  None for any other bytes;
    ValueError or RecursionError where the decoding or raw_decode refuses
    the elements.  Only the bytes between the head and the table key are
    decoded, for raw_decode, as open() decodes them, so a label may hold any
    character; the patterns admit no byte outside ASCII elsewhere, and
    semigroup_from_file decides the table's bytes by writing it back."""
    head = re.compile(_DOC_HEAD).match(data)
    key = head and re.compile(_TABLE_KEY).search(data, head.end())
    if not key:
        return None
    ws = _JSON_WS.decode("ascii")  # str.strip's default would strip whitespace that JSON refuses
    prefix = io.TextIOWrapper(io.BytesIO(data[head.end():key.start()])).read().rstrip(ws)  # elements, comma
    elements, end = json.JSONDecoder().raw_decode(prefix)
    lo, hi = key.end(), data.rfind(b"]") + 1
    if not (prefix.endswith(",") and end == len(prefix[:-1].rstrip(ws)) and isinstance(elements, list)
            and 0 < len(elements) <= ASSOC_GUARD and re.compile(_DOC_TAIL).fullmatch(data, hi - 1)):
        return None
    return elements, lo, hi


def _parse_cells(blanked, n):
    """The read-only (n, n) int32 cells that np.fromstring reads from
    blanked, a table's text with its brackets blanked (_BLANK); None where
    it stops at unmatched text before the n*n-th literal.  Told the n*n
    count, it fills a short read silently, with anything."""
    try:
        cells = np.fromstring(blanked, dtype=np.int32, count=n * n, sep=",")
    except ValueError:
        return None
    cells.flags.writeable = False
    return cells.reshape(n, n)


def _writes_back(table, blanked):
    """Whether table_text(table), its brackets blanked (_BLANK), is blanked
    byte for byte."""
    at = 0
    for block in table_text(table):
        block = block.translate(_BLANK)
        if blanked[at:at + len(block)] != block:
            return False
        at += len(block)
    return at == len(blanked)


def semigroup_from_file(path) -> FiniteSemigroup:
    """semigroup_from_json(json.loads(open(path).read())), with the same
    result and the same exceptions, from one read of the file, as bytes.

    A document of the common form (_table_document) has its table's
    literals parsed straight into the int32 array that from_table adopts,
    with no Python int or list per cell, and the parse is kept only where
    the writer, table_text, writes it back as the table's text byte for
    byte.  That text is what json.dumps writes for indices below n, so a
    literal that is signed, zero-led, wrapped past int32, out of range (the
    writer clips it) or missing is written back otherwise.  This function
    holds the only reference to the file's bytes, so it slices out the
    table and drops them, then blanks the table's brackets (_BLANK) for the
    parse.  A table with no JSON whitespace is dropped too, since
    unblanking gives it back, so no more than two table-sized buffers are
    ever live; the writer's text is blanked the same way to be compared.
    A table with JSON whitespace is kept and parsed with it, so whitespace
    inside a literal stops the parse, and the writer's text is compared
    with a whitespace-free copy: three buffers.  Any other document, any
    decline and any error before from_table goes through json.loads and
    semigroup_from_json, on the file's bytes (rebuilt around the table)
    decoded as open() decodes them (locale encoding, universal newlines);
    they alone word the errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = _table_document(data)
        if doc is not None:
            labels = _label_from_json(doc[0])
    except (ValueError, RecursionError):  # raw_decode or a label
        doc = None
    if doc is not None:
        _, lo, hi = doc
        del doc  # and with it the element lists that raw_decode made
        before, table, after = data[:lo], data[lo:hi], data[hi:]
        del data
        blanked = table.translate(_BLANK)
        if any(c in table for c in _JSON_WS):  # parsed as it is, compared with no whitespace
            cells = _parse_cells(blanked, len(labels))
            del blanked
            blanked = table.translate(_BLANK, _JSON_WS)
        else:  # unblanking gives the table back
            table = None
            cells = _parse_cells(blanked, len(labels))
        if cells is not None and _writes_back(cells, blanked):
            del blanked
            return from_table(labels, cells)
        data = before + (table or blanked.translate(_UNBLANK)) + after
    return semigroup_from_json(json.loads(io.TextIOWrapper(io.BytesIO(data)).read()))


def table_text(table):
    """The text of json.dumps(table.tolist(), separators=(",", ":")) for a
    square array of indices below its order, as ASCII bytes in blocks of
    about gf.TABLE_BLOCK_CELLS bytes, written with no Python object per
    cell.

    Each index's text is one fixed-width S{w} word, w = len(str(order - 1))
    + 1, comma-first ("," and the index), built once.  Each block of rows
    gathers its cells' words by index, np.take with mode="clip", turns each
    row's first comma into "[", closes the row with a "]," word ("]]" for
    the last row) and drops the words' NUL padding.  An entry outside
    0 .. order - 1 is written as the nearest index."""
    order = len(table)
    if not order:
        yield b"[]"
        return
    word = f"S{len(str(order - 1)) + 1}"
    index = np.array([f",{i}" for i in range(order)], dtype=word)
    block = max(1, gf.TABLE_BLOCK_CELLS // (order * index.itemsize))
    words = np.empty((min(block, order), order + 1), dtype=word)  # each row's cells, then "],"
    lead = words.view(np.uint8)[:, 0]  # the first byte of each row's first word
    yield b"["
    for lo in range(0, order, block):
        rows = table[lo:lo + block]
        k = len(rows)
        words[:k, :-1] = index.take(rows, mode="clip")
        lead[:k] = ord("[")
        words[:k, -1] = b"],"
        if lo + k == order:
            words[k - 1, -1] = b"]]"
        yield words[:k].tobytes().translate(None, b"\0")


def table_json(table) -> str:
    """json.dumps(table.tolist(), separators=(",", ":")) for a square array
    of indices below its order: table_text, joined."""
    return b"".join(table_text(table)).decode("ascii")


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
    red, pivot, _ = gf.rref_augmented(mats, p)
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
    block holds; the class leaders' x+ come from one _plus before the
    blocks.  The first element whose witness fails raises AssertionError
    naming it.
    """
    mats, ranks = gf._sing_matrices(p, n), gf._ranks(p, n)
    images, kernels = (a.tolist() for a in gf.sing_images(p, n))
    l_classes, r_classes = _partition(images), _partition(kernels)
    l_of, r_of = _class_of(l_classes, len(mats)), _class_of(r_classes, len(mats))
    leader_of = np.array([c[0] for c in l_classes + r_classes])  # the L-classes', then the R-classes'
    leaders = mats[leader_of]
    leader_plus = _plus(leaders, p)

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
