"""Semigroup amalgams built from the fibers of a vector bundle.

Fibers are modeled purely as finite-dimensional spaces over GF(p).  Each
fiber contributes the linked-pair semigroup of its dimension and
automorphism; a core of dimension at most the smallest fiber embeds into
every branch through the leading-coordinate block embedding.  Every one of
these semigroups lies on Sing of its dimension, in Sing order, so the
amalgam is held as index arrays: a conjugation permutation per part and an
index array per embedding.  Labels, tagged apart by owner, exist only in the JSON
document.
"""

from __future__ import annotations

import json

import numpy as np

from . import crossconn as xc
from . import gf
from .gf import Record


class FiberFamilySpec(Record):
    p: int
    dims: tuple
    eps: tuple  # one automorphism per fiber, by its base-p code


def _code(p, d, mat, shape_error, singular_error):
    """The base-p code of the d x d matrix mat, once gf.invertible_matrix
    accepts it."""
    return int(gf.base_p(gf.invertible_matrix(mat, p, d, shape_error, singular_error)[None], p)[0])


def fiber_family(p, dims, eps=None) -> FiberFamilySpec:
    """Validated fiber family: dimensions at least 1 and one invertible
    matrix per fiber (identity when unspecified), held by code."""
    gf.check_field(p)
    dims = tuple(dims)
    if not dims:
        raise ValueError("fiber family needs at least one fiber")
    for d in dims:
        if d < 1:
            raise ValueError(f"fiber dimension {d} must be at least 1")
    if eps is None:
        eps = [np.eye(d, dtype=np.int64) for d in dims]
    elif len(eps) != len(dims):
        raise ValueError("need one automorphism per fiber")
    return FiberFamilySpec(p, dims, tuple(
        _code(p, d, e, "automorphism shape does not match its fiber", "fiber automorphism must be invertible")
        for e, d in zip(eps, dims)))


class CoreSpec(Record):
    m: int
    eps_w: int  # the core's automorphism, by its base-p code


def build_core(spec: FiberFamilySpec, m=None, eps_w=None) -> CoreSpec:
    """The core's dimension m (default the smallest fiber dimension) and
    automorphism (default the identity), validated and held by code."""
    if m is None:
        m = min(spec.dims)
    if not (1 <= m <= min(spec.dims)):
        raise ValueError(f"core dimension {m} must lie in 1..{min(spec.dims)}")
    eps_w = np.eye(m, dtype=np.int64) if eps_w is None else eps_w
    error = "core automorphism must be invertible of the core dimension"
    return CoreSpec(m, _code(spec.p, m, eps_w, error, error))


def build_embedding(spec: FiberFamilySpec, i: int, m: int) -> np.ndarray:
    """The map from the core into branch i via the block embedding on first
    coordinates, as the branch index of each core element: an m x m matrix
    acts on the leading m of d coordinates and kills the rest,
    v -> ((v.proj).alpha).include, so it is zero-padded to d x d.  Core and
    branch list their first coordinates in Sing order, so each index is read
    from gf.sing_decode(p, d) at the padded code.

    The map is an injective homomorphism by a reduction, not a search.
    Block multiplication gives pad(a).pad(b) = pad(ab), since the product of
    two matrices zero outside their leading m x m blocks is the product of
    the blocks, zero-padded.  rank pad(a) = rank a, so a singular core
    element stays singular, and pad is injective, since a is read back from
    pad(a)'s leading block.  What is left to decide is that every padded
    code is singular in the decode array (-1 marks an invertible one),
    which is refused here.  Neither Sing table is built."""
    p, d = spec.p, spec.dims[i]
    if m > d:
        raise ValueError("core dimension exceeds fiber dimension")
    core_mats = gf._sing_matrices(p, m)
    padded = np.zeros((len(core_mats), d, d), dtype=np.int64)
    padded[:, :m, :m] = core_mats
    mapping = gf.sing_decode(p, d)[gf.base_p(padded, p)]
    if (mapping < 0).any():
        raise AssertionError(f"a block-embedded core element is invertible in fiber {i}")
    return mapping


class BundleAmalgam(Record):
    spec: FiberFamilySpec
    core: CoreSpec
    perms: tuple       # the core's conjugation permutation, then each fiber's
    embeddings: tuple  # per fiber, the branch index of each core element

    @property
    def orders(self):
        """The core's order, then each branch's."""
        return [len(perm) for perm in self.perms]


def assemble_amalgam(spec: FiberFamilySpec, m=None, eps_w=None) -> BundleAmalgam:
    """Core, branches and embeddings for the whole fiber family.

    One linked_pairs call per dimension builds the linked-pair semigroups
    of its distinct automorphisms, the core's dimension first and then the
    fibers' in order, so the first guard to refuse is the one of the first
    part that needs it.  Each embedding is an injective homomorphism by the
    block reduction that build_embedding states.
    """
    p, core = spec.p, build_core(spec, m, eps_w)
    parts = ((core.m, core.eps_w),) + tuple(zip(spec.dims, spec.eps))
    stacks = {}  # dimension -> {automorphism code: its row in that dimension's batch}
    for d, eps in parts:
        rows = stacks.setdefault(d, {})
        rows.setdefault(eps, len(rows))
    perms = {d: xc.linked_pairs(p, d, gf.from_base_p(np.array(list(rows)), p, d, d)).perms
             for d, rows in stacks.items()}
    embeddings = tuple(build_embedding(spec, i, core.m) for i in range(len(spec.dims)))
    return BundleAmalgam(spec, core, tuple(perms[d][stacks[d][eps]] for d, eps in parts), embeddings)


def amalgam_json(b: BundleAmalgam) -> str:
    """The amalgam --format json document, byte for byte as
    json.dumps(sort_keys=True, separators=(",", ":")) writes {"branches",
    "core", "embeddings", "fiber_dims", "m", "p"}.  Each part is an
    {"elements", "table"} object on its Sing table, element k labelled
    [tag, [x_k, x_perm[k]]] with tag "core" or ["fiber", i]; each embedding
    is its list of [core index, branch index] pairs.  Each Sing table and
    each matrix is encoded once."""
    p, m, dims = b.spec.p, b.core.m, b.spec.dims
    encoded = {d: xc.sing_json(p, d) for d in (m,) + dims}
    tags = ['"core"'] + [f'["fiber",{i}]' for i in range(len(dims))]
    parts = []
    for d, tag, perm in zip((m,) + dims, tags, b.perms):
        mats, table = encoded[d]
        elements = ",".join([f"[{tag},[{mats[k]},{mats[j]}]]" for k, j in enumerate(perm.tolist())])
        parts.append(f'{{"elements":[{elements}],"table":{table}}}')
    embeddings = json.dumps([list(enumerate(phi.tolist())) for phi in b.embeddings], separators=(",", ":"))
    return (f'{{"branches":[{",".join(parts[1:])}],"core":{parts[0]},"embeddings":{embeddings},'
            f'"fiber_dims":[{",".join(map(str, dims))}],"m":{m},"p":{p}}}\n')


def amalgam_dot(b: BundleAmalgam) -> str:
    """Core-to-branch embedding diagram."""
    orders = b.orders
    lines = ["digraph amalgam {", "  rankdir=LR;"]
    lines.append(f'  core [shape=box, label="core U (dim {b.core.m}, order {orders[0]})"];')
    for i, (d, order) in enumerate(zip(b.spec.dims, orders[1:])):
        lines.append(f'  fiber{i} [shape=box, label="fiber {i} (dim {d}, order {order})"];')
        lines.append(f'  core -> fiber{i} [label="phi{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
