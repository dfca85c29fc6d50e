"""Test oracle for the bundle amalgam: the label-level assembly that
bundles.assemble_amalgam ran before it held the amalgam as index arrays.
Each linked-pair semigroup is built as labelled records
(crossconn_oracle.build_cross_conn_semigroup), once per distinct
automorphism; every label is tagged with its owner; each embedding is found
by looking up the label of the Endo-level block embedding; and
verify_amalgam decides the embeddings and the disjointness of the tagged
sets.  amalgam_json writes the document with json.dumps.  The tests compare
the array path with it embedding for embedding and byte for byte.

Amalgam, AmalgamReport and verify_amalgam are the labelled amalgam record
and its check that the semigroups module held before the null-semigroup
fixture's inclusions became index arrays; null_amalgam wraps that fixture
in the record.

check_embeddings is the exhaustive check that assemble_amalgam ran on the
Sing tables of the core and of each branch before the block embeddings
became the reduction that bundles.build_embedding states."""

from __future__ import annotations

import json

from crossconn_oracle import build_cross_conn_semigroup
import gf_helpers as gh
from fibersemi import bundles as bn
from fibersemi import gf
from fibersemi import semigroups as sg
from fibersemi.gf import Record
from gf_helpers import Endo
from sing_oracle import SemigroupMorphism, semigroup_to_json, verify_morphism


class Amalgam(Record):
    core: sg.FiniteSemigroup
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


def check_embeddings(b: bn.BundleAmalgam):
    """Raise unless every embedding of b is an injective homomorphism on
    the Sing tables of the core and of its branch (sg.morphism_witnesses);
    the error names the first fiber that fails and its witnesses."""
    p, m = b.spec.p, b.core.m
    for i, (d, phi) in enumerate(zip(b.spec.dims, b.embeddings)):
        witnesses = sg.morphism_witnesses(gf.sing_table(p, m), gf.sing_table(p, d), phi)
        if witnesses:
            raise AssertionError(f"embedding into fiber {i} failed verification: {witnesses}")


def null_amalgam() -> Amalgam:
    """sg.null_semigroup_fixture as an Amalgam, its inclusions as morphisms."""
    core, branches, inclusions = sg.null_semigroup_fixture()
    embeddings = tuple(SemigroupMorphism(core, b, tuple(m.tolist())) for b, m in zip(branches, inclusions))
    return Amalgam(core, branches, embeddings)


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
    amalgam: Amalgam
    report: AmalgamReport


def assemble(spec: bn.FiberFamilySpec, m=None, eps_w=None) -> OracleAmalgam:
    """The tagged core and branches, the embeddings by label lookup and
    their verification; nothing is raised on a failed verification."""
    core_spec = bn.build_core(spec, m, eps_w)
    core_eps = gh.from_code(core_spec.eps_w, spec.p, core_spec.m)
    built = {core_eps: build_cross_conn_semigroup(core_eps)}
    core = built[core_eps]
    core_tagged = tag_semigroup(core.semigroup, "core")
    branches, tagged, embeddings = [], [], []
    for i, (d, code) in enumerate(zip(spec.dims, spec.eps)):
        eps = gh.from_code(code, spec.p, d)
        if eps not in built:
            built[eps] = build_cross_conn_semigroup(eps)
        branch = built[eps]
        branch_tagged = tag_semigroup(branch.semigroup, ("fiber", i))
        index = {pr.first: k for k, pr in enumerate(branch.pairs)}
        mapping = tuple(index[block_embed(pr.first, d)] for pr in core.pairs)
        branches.append(branch)
        tagged.append(branch_tagged)
        embeddings.append(SemigroupMorphism(core_tagged, branch_tagged, mapping))
    amalgam = Amalgam(core_tagged, tuple(tagged), tuple(embeddings))
    return OracleAmalgam(spec, core_spec.m, core, tuple(branches), amalgam, verify_amalgam(amalgam))


def with_mappings(am: OracleAmalgam, mappings) -> AmalgamReport:
    """verify_amalgam on am's core and branches with the given mappings."""
    a = am.amalgam
    embeddings = tuple(SemigroupMorphism(a.core, b, tuple(m)) for b, m in zip(a.branches, mappings))
    return verify_amalgam(Amalgam(a.core, a.branches, embeddings))


def amalgam_to_json(a: Amalgam):
    return {
        "core": semigroup_to_json(a.core),
        "branches": [semigroup_to_json(b) for b in a.branches],
        "embeddings": [
            [[i, j] for i, j in enumerate(phi.mapping)] for phi in a.embeddings
        ],
    }


def amalgam_json(am: OracleAmalgam) -> str:
    doc = amalgam_to_json(am.amalgam)
    doc.update({"p": am.spec.p, "m": am.m, "fiber_dims": list(am.spec.dims)})
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
