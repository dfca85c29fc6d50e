"""Test oracle for the bundle amalgam: the label-level assembly that
bundles.assemble_amalgam ran before it held the amalgam as index arrays.
Each linked-pair semigroup is built as labelled records
(crossconn_oracle.build_cross_conn_semigroup), once per distinct
automorphism; every label is tagged with its owner; each embedding is found
by looking up the label of the Endo-level block embedding; and
sg.verify_amalgam decides the embeddings and the disjointness of the tagged
sets.  amalgam_json writes the document with json.dumps.  The tests compare
the array path with it embedding for embedding and byte for byte."""

from __future__ import annotations

import json

from crossconn_oracle import build_cross_conn_semigroup
from fibersemi import bundles as bn
from fibersemi import semigroups as sg
from fibersemi.gf import Endo, Record


def block_embed(alpha: Endo, d: int) -> Endo:
    """Extend an m x m matrix to d x d by acting on the leading m coordinates
    and killing the rest: v -> ((v.proj).alpha).include."""
    m = alpha.n
    rows = [tuple(alpha.rows[i]) + (0,) * (d - m) if i < m else (0,) * d for i in range(d)]
    return Endo(alpha.p, d, tuple(rows))


def tag_semigroup(s: sg.FiniteSemigroup, tag) -> sg.FiniteSemigroup:
    return sg.FiniteSemigroup(tuple((tag, x) for x in s.elements), s.table)


class OracleAmalgam(Record):
    spec: bn.FiberFamilySpec
    m: int
    core: object       # CrossConnSemigroup of the core
    branches: tuple    # CrossConnSemigroup per fiber, one object per distinct automorphism
    amalgam: sg.Amalgam
    report: sg.AmalgamReport


def assemble(spec: bn.FiberFamilySpec, m=None, eps_w=None) -> OracleAmalgam:
    """The tagged core and branches, the embeddings by label lookup and
    their verification; nothing is raised on a failed verification."""
    core_spec = bn.build_core(spec, m, eps_w)
    built = {core_spec.eps_w: build_cross_conn_semigroup(core_spec.eps_w)}
    core = built[core_spec.eps_w]
    core_tagged = tag_semigroup(core.semigroup, "core")
    branches, tagged, embeddings = [], [], []
    for i, (d, eps) in enumerate(zip(spec.dims, spec.eps)):
        if eps not in built:
            built[eps] = build_cross_conn_semigroup(eps)
        branch = built[eps]
        branch_tagged = tag_semigroup(branch.semigroup, ("fiber", i))
        index = {pr.first: k for k, pr in enumerate(branch.pairs)}
        mapping = tuple(index[block_embed(pr.first, d)] for pr in core.pairs)
        branches.append(branch)
        tagged.append(branch_tagged)
        embeddings.append(sg.SemigroupMorphism(core_tagged, branch_tagged, mapping))
    amalgam = sg.Amalgam(core_tagged, tuple(tagged), tuple(embeddings))
    return OracleAmalgam(spec, core_spec.m, core, tuple(branches), amalgam, sg.verify_amalgam(amalgam))


def with_mappings(am: OracleAmalgam, mappings) -> sg.AmalgamReport:
    """verify_amalgam on am's core and branches with the given mappings."""
    a = am.amalgam
    embeddings = tuple(sg.SemigroupMorphism(a.core, b, tuple(m)) for b, m in zip(a.branches, mappings))
    return sg.verify_amalgam(sg.Amalgam(a.core, a.branches, embeddings))


def amalgam_to_json(a: sg.Amalgam):
    return {
        "core": a.core.to_json(),
        "branches": [b.to_json() for b in a.branches],
        "embeddings": [
            [[i, j] for i, j in enumerate(phi.mapping)] for phi in a.embeddings
        ],
    }


def amalgam_json(am: OracleAmalgam) -> str:
    doc = amalgam_to_json(am.amalgam)
    doc.update({"p": am.spec.p, "m": am.m, "fiber_dims": list(am.spec.dims)})
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
