"""Byte-identical CLI output: SHA-256 and exit status of each command,
recorded before the Sing table moved to the integer-coded kernel; the next
four before verify-all's checks were made exhaustive and deduplicated; the
(5,2) cones digest before the cone table was filled once per component; the
next four, the remaining sing-tables points, before associativity moved to
Light's test and Green's relations to bit-packed ideal rows.

The last three are verify-all at (2,3), (5,2) and (7,2).  The Subspace-object
cross-connection check took minutes to an hour there, so they were first
recorded with the index decision; test_crossconn pins that decision to the
Subspace-object oracles.  (2,3) passes every check, and the report carries
no (p, n), so its digest is the one of (2,2).  At (5,2) and (7,2) only
bundle-amalgam fails, refused by the endomorphism guard.

The last three are cones at (7,2) and (2,3) as JSON and at (3,2) as the
table summary, which runs is_regular; they were recorded before the cone
semigroup moved to integer code rows.  The (2,3) and (7,2) points take the
principal-cone path and (3,2) the exhaustive sweep.

The last two are verify-all at (3,3) and (2,4), recorded before m-sets moved
from LinearMap cones to batched ranks; both exit 1 on guard refusals only.
Their digests were recorded again when regularity-idempotents and
green-eggbox moved from Sing's Cayley table to its verified matrix
witnesses: the table guard refused both checks there, and both now pass,
which is the only change in either report.  They were recorded a third
time when the cross-connections refusal came to name what it guards, the
automorphisms it would check over Sing's order, instead of a table guard;
that witness is the only change in either report.

The next one is verify-all at (2,5), recorded before the subspace orders
and the retraction law were read from one subspace lattice per (p, n); it
exits 1 on guard refusals only.

The last three are crossconn with one explicit automorphism, in the table
format, and at the identity of GF(2)^3 (order 344), recorded before the
linked-pair semigroups were built for a whole stack of automorphisms at
once and written by their own JSON writer.

The last four are amalgam commands, recorded before the bundle amalgam was
held as index arrays and its labels were built only by its JSON writer: the
table format at (2; 2,2,3), which prints the orders and the verdict; the
non-degenerate dims (3,3), two order-344 branches that share one
automorphism; (3; 2,2) as JSON; and dims (1,2,3) with a one-dimensional core
as dot.

The last two are verify-all at n = 1, where the dual category has a single
object, as JSON at p = 2 and in the table format at p = 3, recorded before
the dual category and the semigroup isomorphisms were decided on arrays
alone.  (2,1) passes every check, so its digest is the one of (2,2); at
(3,1) only bundle-amalgam fails, refused by the associativity guard.

The last six are green and enumerate outputs at (2,3) and (7,2) that no
earlier digest covered, recorded before both commands moved from Sing's
Cayley table to verified matrix witnesses: green as JSON and as the table
summary at (2,3), as DOT and as the summary at (7,2), and enumerate's
table format at both points.

Three digests were recorded again when the conjugation law and the block
embeddings became stated reductions and the bundle amalgam stopped
building Sing's tables: verify-all at (3,2) as JSON, at (3,1) in the table
format and at (3,3) as JSON.  bundle-amalgam was refused there by the
associativity guard on Sing(GF(3)^3), order 8,451, and now passes, which is
the only change in any of the three reports.  So (3,2) exits 0 with the
digest of (2,2), (3,1) exits 0 with the table-format digest of (2,2), and
(3,3) still exits 1, on cone-semigroup and cross-connections."""

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest

from fibersemi import cli
from fibersemi import gf
from fibersemi import semigroups as sg

GOLDEN = [
    ("enumerate --field 2 --dim 2", 0, "d258a35b5002af9fe79fbfb6d3516d5ccb0222bec3ccb0969f7f8f93108f6bee"),
    ("enumerate --field 2 --dim 2 --format json", 0, "c999b29f3f5f4bdb28b1f4db37856d16ccb32d67faee83410488cdb4b85cc32e"),
    ("green --field 2 --dim 2 --format json", 0, "0aff536d893a3c4ef774f8295e745a1d0d4e9c0e26a461247905f58d60804eeb"),
    ("green --field 2 --dim 2 --format dot", 0, "426a0592ebc219c642776eb746332540f587415899e535810b1ca003e68edb6e"),
    ("enumerate --field 3 --dim 2", 0, "683253f4ddbada75890d738b4e31a50f72e54083c96bfe39e9ace71eef499ca1"),
    ("enumerate --field 3 --dim 2 --format json", 0, "b8d0d754a4c7b478815e6f650a8bb4d1c6feca7b64fbadf4639abedaa8ee920c"),
    ("green --field 3 --dim 2 --format json", 0, "7f7fe09f5db6e2199ff9d156ed345bfae23421ea4cf2ebf037df5a61cc700ab9"),
    ("green --field 3 --dim 2 --format dot", 0, "5259540693543e1601f1fed0cc80c3884a7b6c38b193736d5d34de47699f9143"),
    ("enumerate --field 5 --dim 2", 0, "9a73e25566063a3b34d08e5cbbd8cb24fd95ab701fd7a250060762b744e1ffb9"),
    ("enumerate --field 5 --dim 2 --format json", 0, "6f12a344e7e69261e00df06d5d80f9aa4fa586d4020eca52dcc99ce35c9bc45c"),
    ("green --field 5 --dim 2 --format json", 0, "43bad5784a008ccd98264ba9994414b3e1d6508c41ac2e2c2c73b766ff8ec5eb"),
    ("green --field 5 --dim 2 --format dot", 0, "e3a7ecab7fc944267d222487ba8ccd2e6bb348b8e98eeaae2dff9b855407afa2"),
    ("cones --field 2 --dim 2 --format json", 0, "bcd6641ddb7bfd3888bd415f226a552f79c1d922f2a980c7243684d459d12497"),
    ("cones --field 3 --dim 2 --format json", 0, "976485832d7e45cc2dedf1692654a7cd9036191f95971525f8a66c8d4951f391"),
    ("crossconn --field 2 --dim 2 --all-eps --format json", 0, "5ecead98b5f9c56588070d0e0065dfb64e05bbec897fc7d6788002eafe387219"),
    ("crossconn --field 3 --dim 2 --all-eps --format json", 0, "7194738f68721819e2323c8873ef5b9079d0434f0e9518b025f9ffc2395c0072"),
    ("amalgam --field 2 --format json", 0, "014ea4bdc1230f776136262e7c93076b364cc4f74abd692cf92481d80eb350c6"),
    ("verify-all --field 2 --dim 2 --format json", 0, "a60e2df95ead945c2201f21117e5b874587e4466b78c9e4fa619892974663e37"),
    ("verify-all --field 2 --dim 2", 0, "1c65dfd448a9cbe24153def2f2646b6a747f34d0dda063e9574890c30de483d0"),
    ("verify-all --field 2 --dim 2 --format json --seed 7", 0, "a60e2df95ead945c2201f21117e5b874587e4466b78c9e4fa619892974663e37"),
    ("verify-all --field 3 --dim 2 --format json", 0, "a60e2df95ead945c2201f21117e5b874587e4466b78c9e4fa619892974663e37"),
    ("amalgam --field 2 --format dot", 0, "8d9c59acea3ba14e8e6950d717be25445d424ddb3d7eef71063cf74606253dcc"),
    ("cones --field 5 --dim 2 --format json", 0, "666403c1efa3470d9df4c49e1426ed75a036d7f9c3ff8b0aa34e9fa10bcaabc2"),
    ("enumerate --field 2 --dim 3 --format json", 0, "4133e1cba8268285d64bc3c706eac76bce6e301baacb202e425e814fc40c0e5b"),
    ("green --field 2 --dim 3 --format dot", 0, "6827a987aab561f2cc37d15702a45d4d4a97dd7605249a96935dfcb20823f1a5"),
    ("enumerate --field 7 --dim 2 --format json", 0, "3cfbac822892b2bcce49bbfa4faeea9f1318a82a15ace61010c62e8929d38968"),
    ("green --field 7 --dim 2 --format json", 0, "98d174d585664a30e22c08b61c862b18a4c9d6b72f278101b274c85023ef1522"),
    ("verify-all --field 2 --dim 3 --format json", 0, "a60e2df95ead945c2201f21117e5b874587e4466b78c9e4fa619892974663e37"),
    ("verify-all --field 5 --dim 2 --format json", 1, "7d4d2d8755f3d2051968e9d74c214ef3117e889cae24380675177283e855f4f5"),
    ("verify-all --field 7 --dim 2 --format json", 1, "a6ff1ec3520299316b785816d0df76c6e956cfde9e4a17aa27c3a6c11333370b"),
    ("cones --field 7 --dim 2 --format json", 0, "73b10616280339cfec556b00ecec2bee4146b8d7e1357d90674612cde2f05669"),
    ("cones --field 2 --dim 3 --format json", 0, "d9bc240fc84579f6fa659f54b453264a4d1e822571f67834e05ad56b5337862f"),
    ("cones --field 3 --dim 2", 0, "60cd374e64472c43c6f0610d8c3310cec975d8140bf5caf09044971996b35322"),
    ("verify-all --field 3 --dim 3 --format json", 1, "e10679e702619a6f582f6ddb712d70ca38d94fd95fdf999aedfae4b42a6509e0"),
    ("verify-all --field 2 --dim 4 --format json", 1, "984076442cdde443fb976ab6cfc6285a797de8d9f6609fd7ab75530039cf90e2"),
    ("verify-all --field 2 --dim 5 --format json", 1, "deecc0876d6083bf709665ab85dd3bc89e321fe7eda02c7e567cc8f5006ee683"),
    ("crossconn --field 3 --dim 2 --eps [[0,1],[1,0]] --format json", 0, "d6478e8a573974ea0f12eb21854283a85c17fe183c722c08ca80dce7f4b6491c"),
    ("crossconn --field 3 --dim 2 --all-eps", 0, "78b925264040880c6233ca61711df8d27e9c9d6171a183fe76812b59bc5ba3ab"),
    ("crossconn --field 2 --dim 3 --format json", 0, "6351011c2cf11b8212ecb1572a92e8c19e985a2e7d9ffebfc9272ffa47645a9a"),
    ("amalgam --field 2", 0, "5f205aa23e44dffc3d6c4ba8695e6bca8605d8048e0cc5033378f67a25f00664"),
    ("amalgam --field 2 --dims 3,3 --format json", 0, "7eeec8d375c91333efa8c2787165ec76e0f6974c8c162a2fc1eb6d553dfc6fae"),
    ("amalgam --field 3 --dims 2,2 --format json", 0, "cd1b04f03fe68f656c40f60508b9144e133608d16bcde61320c771128cd4ffb6"),
    ("amalgam --field 2 --dims 1,2,3 --core-dim 1 --format dot", 0, "c82321b490783531686150aac12835ba14e899a78997a8cf4891f6a01cdb1bc6"),
    ("verify-all --field 2 --dim 1 --format json", 0, "a60e2df95ead945c2201f21117e5b874587e4466b78c9e4fa619892974663e37"),
    ("verify-all --field 3 --dim 1", 0, "1c65dfd448a9cbe24153def2f2646b6a747f34d0dda063e9574890c30de483d0"),
    ("green --field 2 --dim 3 --format json", 0, "bf95a63937bcbaa088a0865f6c0319460f260219619c406302de2527d72bc9ab"),
    ("green --field 2 --dim 3", 0, "9d1c75b443da9e51870edc145eb526af443b5b42eec1bf92458746060222cca0"),
    ("green --field 7 --dim 2 --format dot", 0, "6f3743855aa58dae3b3c94c791e0cb35b278852faa49c2b3ef0bca87e0f17555"),
    ("green --field 7 --dim 2", 0, "30be9bfde33ee17934f20494ff52e96f13869184b72714064ef0d32d536ed33c"),
    ("enumerate --field 2 --dim 3", 0, "c76091d1c79fa7c20027fa342035b0f1ea9fd1c93bd594833cb2a764cea56127"),
    ("enumerate --field 7 --dim 2", 0, "49867f98df053efe963dc400c1598dee2754e65dbb80ab2bf399b91d697fa57b"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_output_is_byte_identical(command, code, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = cli.main(command.split())
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


NO_TABLE = [g for g in GOLDEN if g[0].split()[0] in ("enumerate", "green")
            and any(f"--field {p} --dim {n}" in g[0] for p, n in [(2, 3), (7, 2)])]


@pytest.mark.parametrize("command,code,digest", NO_TABLE, ids=[c for c, _, _ in NO_TABLE])
def test_green_and_enumerate_build_no_table(monkeypatch, command, code, digest):
    # no Cayley table and no Light's test, on a cold or a warm cache alike
    def forbidden(*args, **kwargs):
        raise RuntimeError("a Sing table or Light's test was built")

    for owner, name in [(gf, "sing_table"), (sg, "from_table"), (sg, "_associativity_witness")]:
        monkeypatch.setattr(owner, name, forbidden)
    test_output_is_byte_identical(command, code, digest)


# verify-all with --table: a relabelled Sing(GF(2)^3) table that passes, and
# the same table with one cell changed, which fails with a witness triple.
# Both were recorded before semigroup tables became int32 arrays.

def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) % 2 for j in range(3))
                 for i in range(3))


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % 2


def relabelled_sing23(seed, corrupt=False):
    """Sing(GF(2)^3) as a table document, its elements in a seeded random
    order, computed without fibersemi; corrupt changes cell (0, 0)."""
    mats = [m for m in (tuple(e[3 * i:3 * i + 3] for i in range(3))
                        for e in itertools.product(range(2), repeat=9)) if not _det(m)]
    order = list(range(len(mats)))
    random.Random(seed).shuffle(order)
    new = {mats[old]: k for k, old in enumerate(order)}
    table = [[new[_mat_mul(mats[a], mats[b])] for b in order] for a in order]
    if corrupt:
        table[0][0] = (table[0][0] + 1) % len(mats)
    return {"elements": [[list(r) for r in mats[old]] for old in order], "table": table}


TABLE_GOLDEN = [
    (False, 0, "c3c1a5a16059c2a030a567ab5abc7bbc46a55e03eb8ff7ad53c888c1d2fa8d11"),
    (True, 1, "dd2fbafef14a87e481c060e20bb5047e2208a9eb768cff2b76a8b726663204f7"),
]


@pytest.mark.parametrize("corrupt,code,digest", TABLE_GOLDEN, ids=["sing23", "sing23 corrupted"])
def test_table_output_is_byte_identical(tmp_path, corrupt, code, digest):
    path = tmp_path / "T.json"
    path.write_text(json.dumps(relabelled_sing23(11, corrupt)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = cli.main(["verify-all", "--field", "2", "--dim", "2", "--format", "json", "--table", str(path)])
    assert got == code
    last = json.loads(buf.getvalue())[-1]
    assert last["check"] == "table-associativity" and ("triple" in (last["witness"] or {})) == corrupt
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
