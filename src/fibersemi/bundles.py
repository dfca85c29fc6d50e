"""Semigroup amalgams built from the fibers of a vector bundle.

Fibers are modeled purely as finite-dimensional spaces over GF(p).  Each
fiber contributes the linked-pair semigroup of its dimension; a core of
dimension at most the smallest fiber embeds into every branch through the
leading-coordinate block embedding, and tagging keeps all element sets
disjoint.
"""

from __future__ import annotations

import json

import numpy as np

from . import crossconn as xc
from . import gf
from . import semigroups as sg
from .gf import Endo, Record


class FiberFamilySpec(Record):
    p: int
    k: int
    dims: tuple
    eps: tuple  # one automorphism per fiber


def fiber_family(p, k, dims, eps=None) -> FiberFamilySpec:
    """Validated fiber family: dimensions within the bundle dimension and one
    invertible map per fiber (identity when unspecified)."""
    gf.check_field(p)
    dims = tuple(dims)
    if not dims:
        raise ValueError("fiber family needs at least one fiber")
    for d in dims:
        if not (1 <= d <= k):
            raise ValueError(f"fiber dimension {d} outside 1..{k}")
    if eps is None:
        eps = tuple(gf.identity_endo(p, d) for d in dims)
    else:
        eps = tuple(eps)
        if len(eps) != len(dims):
            raise ValueError("need one automorphism per fiber")
        for e, d in zip(eps, dims):
            if e.n != d or e.p != p:
                raise ValueError("automorphism shape does not match its fiber")
            if not e.is_invertible():
                raise ValueError("fiber automorphism must be invertible")
    return FiberFamilySpec(p, k, dims, eps)


def _tag_semigroup(s: sg.FiniteSemigroup, tag) -> sg.FiniteSemigroup:
    return sg.FiniteSemigroup(tuple((tag, x) for x in s.elements), s.table)


class CoreSpec(Record):
    m: int
    eps_w: Endo
    cross: xc.CrossConnSemigroup
    semigroup: sg.FiniteSemigroup  # tagged copy


def build_core(spec: FiberFamilySpec, m=None, eps_w=None) -> CoreSpec:
    """Core semigroup on a spanned space of dimension m (default the smallest
    fiber dimension), with elements tagged apart from every branch."""
    if m is None:
        m = min(spec.dims)
    if not (1 <= m <= min(spec.dims)):
        raise ValueError(f"core dimension {m} must lie in 1..{min(spec.dims)}")
    if eps_w is None:
        eps_w = gf.identity_endo(spec.p, m)
    elif eps_w.n != m or not eps_w.is_invertible():
        raise ValueError("core automorphism must be invertible of the core dimension")
    cross = xc.build_cross_conn_semigroup(eps_w)
    return CoreSpec(m, eps_w, cross, _tag_semigroup(cross.semigroup, "core"))


def build_embedding(core: CoreSpec, spec: FiberFamilySpec, i: int,
                    branch_tagged: sg.FiniteSemigroup) -> sg.SemigroupMorphism:
    """Map from the core into branch i via the block embedding on first
    coordinates: an m x m matrix acts on the leading m of d coordinates and
    kills the rest, v -> ((v.proj).alpha).include, so it is zero-padded to
    d x d.  Core and branch list their first coordinates in Sing order, so
    each index is read from sing_table's decode array at the padded code.
    assemble_amalgam verifies the map once, exhaustively.  The second
    coordinates are conjugates by construction (build_cross_conn_semigroup),
    so the map is decided on the tables."""
    p, d, m = spec.p, spec.dims[i], core.m
    if m > d:
        raise ValueError("core dimension exceeds fiber dimension")
    core_mats = gf._sing_matrices(p, m)
    padded = np.zeros((len(core_mats), d, d), dtype=np.int64)
    padded[:, :m, :m] = core_mats
    mapping = gf.sing_table(p, d)[1][gf.base_p(padded, p)]
    if (mapping < 0).any():
        raise AssertionError(f"a block-embedded core element is invertible in fiber {i}")
    return sg.SemigroupMorphism(core.semigroup, branch_tagged, tuple(mapping.tolist()))


class BundleAmalgam(Record):
    spec: FiberFamilySpec
    core: CoreSpec
    branches: tuple          # CrossConnSemigroup per fiber
    amalgam: sg.Amalgam      # tagged semigroups and embeddings
    report: sg.AmalgamReport

    def to_json(self):
        doc = sg.amalgam_to_json(self.amalgam)
        doc.update({
            "p": self.spec.p,
            "m": self.core.m,
            "fiber_dims": list(self.spec.dims),
        })
        return doc


def assemble_amalgam(spec: FiberFamilySpec, m=None, eps_w=None) -> BundleAmalgam:
    """Core, branches and verified embeddings for the whole fiber family.

    Fibers (and the core) with the same automorphism share one linked-pair
    semigroup; each branch still gets its own tagged copy.
    """
    core = build_core(spec, m, eps_w)
    built = {core.eps_w: core.cross}  # one linked-pair semigroup per distinct eps
    branches = []
    tagged = []
    embeddings = []
    for i, eps in enumerate(spec.eps):
        if eps not in built:
            built[eps] = xc.build_cross_conn_semigroup(eps)
        branch = built[eps]
        branch_tagged = _tag_semigroup(branch.semigroup, ("fiber", i))
        embeddings.append(build_embedding(core, spec, i, branch_tagged))
        branches.append(branch)
        tagged.append(branch_tagged)
    amalgam = sg.Amalgam(core.semigroup, tuple(tagged), tuple(embeddings))
    report = sg.verify_amalgam(amalgam)
    for i, rep in enumerate(report.embedding_reports):
        if not rep.ok:
            raise AssertionError(f"embedding into fiber {i} failed verification: {rep.witnesses}")
    if not report.ok:
        raise AssertionError(f"amalgam verification failed: {report.witnesses}")
    return BundleAmalgam(spec, core, tuple(branches), amalgam, report)


def amalgam_json(b: BundleAmalgam) -> str:
    return json.dumps(b.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def amalgam_dot(b: BundleAmalgam) -> str:
    """Core-to-branch embedding diagram."""
    lines = ["digraph amalgam {", "  rankdir=LR;"]
    lines.append(f'  core [shape=box, label="core U (dim {b.core.m}, order {b.core.semigroup.order})"];')
    for i, (d, branch) in enumerate(zip(b.spec.dims, b.branches)):
        lines.append(f'  fiber{i} [shape=box, label="fiber {i} (dim {d}, order {branch.order})"];')
        lines.append(f'  core -> fiber{i} [label="phi{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
