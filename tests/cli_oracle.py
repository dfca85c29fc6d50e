"""The argparse parser the command line was read with before cli's command
table replaced it, kept verbatim as the oracle that tests/test_cli.py
compares cli._parse_args with: the same values for every option, or the
same usage error."""

import argparse

from fibersemi.cli import cmd_amalgam, cmd_cones, cmd_crossconn, cmd_enumerate, cmd_green, cmd_verify_all


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fibersemi",
        description="Singular endomorphism semigroups over GF(p): Green structure, "
                    "cone semigroups, cross-connections and bundle amalgams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, dims=False, dot=False):
        sp.add_argument("--field", type=int, default=2, help="prime field modulus")
        if not dims:
            sp.add_argument("--dim", type=int, default=2, help="ambient dimension")
        sp.add_argument("--format", choices=("table", "json") + ("dot",) * dot, default="table")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    spe = sub.add_parser("enumerate", help="count endomorphisms, idempotents, subspaces")
    common(spe)
    spe.set_defaults(fn=cmd_enumerate)

    spv = sub.add_parser("verify-all", help="run every verification check")
    common(spv)
    spv.add_argument("--seed", type=int, default=0,
                     help="accepted and ignored: every check is exhaustive")
    spv.add_argument("--table", default=None, help="also validate a Cayley-table JSON file")
    spv.set_defaults(fn=cmd_verify_all)

    spg = sub.add_parser("green", help="Green structure and eggbox diagram")
    common(spg, dot=True)
    spg.set_defaults(fn=cmd_green)

    spc = sub.add_parser("cones", help="the semigroup of normal cones")
    common(spc)
    spc.set_defaults(fn=cmd_cones)

    spx = sub.add_parser("crossconn", help="linked-pair semigroups per automorphism")
    common(spx)
    which = spx.add_mutually_exclusive_group()
    which.add_argument("--eps", default=None, help="automorphism as a JSON matrix literal")
    which.add_argument("--all-eps", action="store_true", help="sweep every automorphism")
    spx.set_defaults(fn=cmd_crossconn)

    spa = sub.add_parser("amalgam", help="bundle-fiber amalgam")
    common(spa, dims=True, dot=True)
    spa.add_argument("--dims", default="2,2,3", help="comma-separated fiber dimensions")
    spa.add_argument("--core-dim", type=int, default=None, help="core dimension (default min)")
    spa.set_defaults(fn=cmd_amalgam)
    return ap

