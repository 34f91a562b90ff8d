"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 on a validation failure
(an invariant is violated, named in the message), 2 on malformed input.
Reports are line oriented (``PASS|FAIL <id> <detail>``) and deterministic
for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import adjunction as adj
from . import algebra as alg
from . import bound, catfinite as cf, corpus, formats, gallery, repcat
from .errors import FormatError, QuivalgError
from .quiver import enumerate_paths, is_acyclic, path_algebra
from .vquiver import is_acyclic_vq, path_algebra_vq


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _lines(lines: list[str]) -> str:
    """A whole report as one string: an unwritable scalar then prints nothing."""
    return "".join(line + "\n" for line in lines)


def _report(ok: bool, check_id: str, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {check_id} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# quiver commands
# ---------------------------------------------------------------------------


def cmd_quiver(args) -> int:
    q = formats.parse_quiver(_read(args.file))
    if args.action == "info":
        acyclic = is_acyclic(q)
        print(f"vertices: {len(q.vertices)}")
        print(f"arrows: {len(q.arrows)}")
        print(f"acyclic: {acyclic}")
        if acyclic:
            print(f"paths: {len(enumerate_paths(q, len(q.vertices)))}")
        return 0
    if args.action == "paths":
        max_len = args.max_len
        if max_len is None:
            if not is_acyclic(q):
                raise FormatError("cyclic quiver: give --max-len to bound the listing")
            max_len = len(q.vertices)
        for p in enumerate_paths(q, max_len):
            print(f"{p.label}  ({p.start} -> {p.end}, length {p.length})")
        return 0
    if args.action == "path-algebra":
        sys.stdout.write(formats.algebra_to_text(path_algebra(q)))
        return 0
    raise FormatError(f"unknown quiver action {args.action!r}")


# ---------------------------------------------------------------------------
# algebra commands
# ---------------------------------------------------------------------------


def _built_algebra(spec: str) -> alg.SCAlgebra:
    kind, _, arg = spec.partition(":")
    return _build_from_args(kind, [arg] if arg else [])


def _size(text: str) -> int:
    """A builder's size parameter: a positive decimal integer, no leading zero."""
    if not re.fullmatch(r"[1-9][0-9]{0,600}", text):  # 600 digits: under any int() limit
        raise FormatError(f"bad builder parameter {formats._shown(text)}: "
                          "expected a positive integer")
    return int(text)


def _group_table(name: str):
    name = name.upper()
    if name.startswith("Z"):
        return alg.cyclic_group_table(_size(name[1:].lstrip("/"))), None
    if name == "S3":
        return alg.symmetric_group_table(3)
    raise FormatError(f"unknown group {name!r}; use Z<n> or S3")


_SIZED_BUILDERS = {
    "upper_triangular": alg.upper_triangular,
    "matrix": alg.matrix_algebra,
    "truncated_poly": alg.truncated_poly,
}


def _build_from_args(kind: str, params: list[str]) -> alg.SCAlgebra:
    """The one dispatch from builder names to the algebra builders."""
    kind = kind.replace("-", "_")
    if kind in _SIZED_BUILDERS:
        if len(params) != 1:
            raise FormatError(f"{kind} takes one integer parameter")
        return _SIZED_BUILDERS[kind](_size(params[0]))
    if kind == "group_algebra":
        if len(params) != 1:
            raise FormatError("group_algebra takes one group name (Z<n> or S3)")
        table, labels = _group_table(params[0])
        return alg.group_algebra(table, labels)
    if kind == "direct_sum":
        if not params:
            raise FormatError("direct_sum needs component specs like matrix:2")
        return alg.direct_sum(*[_built_algebra(s) for s in params])
    if kind == "mixed_demo":
        if params:
            raise FormatError("mixed_demo takes no parameter")
        return corpus.mixed_algebra()
    raise FormatError(
        f"unknown builder {kind!r}; use upper-triangular, matrix, truncated-poly, "
        "group-algebra, direct-sum or mixed-demo"
    )


def cmd_algebra(args) -> int:
    if args.action == "build":
        a = _build_from_args(args.kind, args.params)
        sys.stdout.write(formats.algebra_to_text(a))
        return 0
    a = formats.parse_algebra(_read(args.file))
    if args.action == "radical":
        filt = alg.radical(a)
        out = [f"dim J = {filt.radical.dim}"]
        for i, power in enumerate(filt.powers):
            if i == 0:
                continue
            out.append(f"J^{i}: dim {power.dim}")
            for row in power.basis.entries:
                out.append("  " + formats.lincomb_to_text(row, a.basis_labels))
        sys.stdout.write(_lines(out))
        return 0
    if args.action == "info":
        print(f"dim: {a.dim}")
        filt = alg.radical(a)
        print(f"dim J: {filt.radical.dim}")
        print(f"nilpotence index: {filt.nilpotence_index}")
        print(f"semisimple: {alg.is_semisimple(a)}")
        try:
            print(f"basic: {alg.is_basic(a)}")
        except alg.NotSplitOverQQ:
            print("basic: not split over Q (rejected for further use)")
        print(f"connected: {alg.is_connected(a)}")
        return 0
    if args.action == "idempotents":
        idems = alg.lift_idempotents(a)
        sys.stdout.write(_lines([
            f"e{k} = " + formats.lincomb_to_text(e, a.basis_labels)
            for k, e in enumerate(idems.idempotents)
        ]))
        return 0
    if args.action == "gabriel":
        ga = adj.gabriel_vquiver(a)
        lines = [
            f"# rep ar_{i}_{j}_{k} = " + formats.lincomb_to_text(rep, a.basis_labels)
            for (i, j), reps in sorted(ga.edge_reps.items())
            for k, rep in enumerate(reps)
        ]
        sys.stdout.write(formats.vquiver_to_text(ga.vquiver) + _lines(lines))
        return 0
    if args.action == "present":
        pres = adj.present_as_bound_quiver(a)
        sys.stdout.write(
            formats.vquiver_to_text(pres.gabriel.vquiver)
            + formats.relations_to_text(pres.relations)
        )
        ok = _report(
            alg.is_isomorphism(pres.isomorphism),
            "presentation",
            f"kernel dim {pres.kernel.dim}, admissible with m = {pres.admissible_m}",
        )
        return 0 if ok else 1
    raise FormatError(f"unknown algebra action {args.action!r}")


# ---------------------------------------------------------------------------
# bound quiver commands
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    q = formats.parse_quiver(_read(args.quiver))
    r = formats.parse_relations(_read(args.relations), q)
    if args.action == "check":
        report = bound.check_admissible(r)
        detail = f"m = {report.m}" if report.m is not None else ""
        if report.undetermined:
            detail = "undetermined within the bound, raise maxlen"
        ok = _report(report.admissible, "admissible", detail)
        return 0 if ok else 1
    if args.action == "construct":
        algebra, _ = bound.bound_algebra(r)
        sys.stdout.write(formats.algebra_to_text(algebra))
        return 0
    raise FormatError(f"unknown bound action {args.action!r}")


# ---------------------------------------------------------------------------
# representation commands
# ---------------------------------------------------------------------------


def cmd_rep(args) -> int:
    q = formats.parse_quiver(_read(args.quiver))
    rel = None
    if args.relations:
        rel = formats.parse_relations(_read(args.relations), q)
    rep = formats.parse_rep(_read(args.file), q)
    if args.action == "validate":
        mod = repcat.rep_to_module(rep, bound=rel)
        _report(True, "rep-valid", f"module dimension {mod.dim}")
        return 0
    if args.action == "convert":
        mod = repcat.rep_to_module(rep, bound=rel)
        out = [f"# module over a path algebra of dimension {mod.algebra.dim}"]
        for lab, mat in zip(mod.algebra.basis_labels, mod.action):
            body = " ; ".join(
                " ".join(formats.scalar_to_text(x) for x in row) for row in mat.entries
            )
            out.append(f"action {lab}: {body}")
        sys.stdout.write(_lines(out))
        if args.roundtrip:
            ok = _report(repcat.roundtrip_is_identity(mod), "roundtrip")
            return 0 if ok else 1
        return 0
    raise FormatError(f"unknown rep action {args.action!r}")


# ---------------------------------------------------------------------------
# vquiver and adjunction commands
# ---------------------------------------------------------------------------


def cmd_vquiver(args) -> int:
    vq = formats.parse_vquiver(_read(args.file))
    if args.action == "info":
        acyc = is_acyclic_vq(vq)
        print(f"vertices: {len(vq.vertices)}")
        print(f"total edge dimension: {vq.total_edge_dim()}")
        print(f"acyclic: {acyc.acyclic}")
        if acyc.acyclic:
            print(f"nilpotence index: {acyc.nilpotence_index}")
            print(f"path algebra dimension: {path_algebra_vq(vq).dim}")
        return 0
    if args.action == "path-algebra":
        sys.stdout.write(formats.algebra_to_text(path_algebra_vq(vq)))
        return 0
    raise FormatError(f"unknown vquiver action {args.action!r}")


def cmd_adjunction(args) -> int:
    if args.action == "unit":
        vq = formats.parse_vquiver(_read(args.file))
        eta = adj.unit(vq)
        ok = _report(adj.is_vquiver_iso(eta), "unit-iso", str(eta.vertex_map))
        return 0 if ok else 1
    if args.action == "counit":
        a = formats.parse_algebra(_read(args.file))
        eps = adj.counit(a)
        rep = eps.representative
        ok = _report(
            bool(rep.surjective),
            "counit-surjective",
            f"k[GQ(A)] dim {rep.source.dim} -> dim {rep.target.dim}",
        )
        return 0 if ok else 1
    if args.action in ("triangles", "check"):
        if args.vquiver or args.algebra:
            vcases = [(p, formats.parse_vquiver(_read(p))) for p in args.vquiver]
            acases = [(p, formats.parse_algebra(_read(p))) for p in args.algebra]
        else:
            vcases = corpus.corpus_vquivers(args.seed)
            acases = corpus.corpus_sbalg_ac()
        report = adj.triangle_identities(vcases, acases)
        for entry in report.entries:
            _report(entry.ok, f"{entry.case}:{entry.check}", entry.detail)
        return 0 if report.all_pass else 1
    raise FormatError(f"unknown adjunction action {args.action!r}")


# ---------------------------------------------------------------------------
# finite category commands
# ---------------------------------------------------------------------------


def cmd_cat(args) -> int:
    if args.action == "validate":
        cat = formats.parse_category(_read(args.file))
        _report(True, "category-valid", f"{len(cat.objects)} objects, "
                f"{len(cat.morphisms())} morphisms")
        return 0
    if args.action in ("galois", "adjunction"):
        pi, pj, f, g = formats.parse_galois(_read(args.file))
        ok, witness = cf.check_galois_adjunction(pi, pj, f, g)
        _report(ok, "galois", "" if ok else f"counterexample {witness}")
        if args.action == "adjunction":
            if not ok:
                return 1
            f_fun, g_fun, eta = cf.galois_adjunction_data(pi, pj, f, g)
            ok2, witness2 = cf.check_adjunction_finite(f_fun, g_fun, eta)
            _report(ok2, "hom-bijection-adjunction",
                    "" if ok2 else f"counterexample {witness2}")
            return 0 if ok2 else 1
        return 0 if ok else 1
    if args.action == "equivalence":
        source = formats.parse_category(_read(args.source))
        target = formats.parse_category(_read(args.target))
        fun = formats.parse_functor(_read(args.file), source, target)
        report = cf.check_equivalence(fun)
        _report(report.ess_surjective, "essentially-surjective")
        _report(report.full, "full")
        _report(report.faithful, "faithful")
        return 0 if report.is_equivalence else 1
    if args.action == "quotient":
        cat = formats.parse_category(_read(args.file))
        partition = formats.parse_congruence(_read(args.congruence), cat)
        q = cf.quotient_category(cat, partition)
        _report(True, "quotient-valid",
                f"{len(q.morphisms())} classes from {len(cat.morphisms())} morphisms")
        return 0
    raise FormatError(f"unknown cat action {args.action!r}")


def cmd_gallery(_args) -> int:
    results = gallery.run_gallery()
    ok_all = True
    for item_id, ok, detail in results:
        ok_all &= _report(ok, item_id, detail)
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="quivalg",
        description="quivers, path algebras, radicals, Gabriel quivers and "
        "the path-algebra adjunction over exact rationals",
    )
    parser.add_argument("--seed", type=int, default=2024,
                        help="seed for randomized property corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quiver", help="inspect quivers and path algebras")
    q.add_argument("action", choices=["info", "paths", "path-algebra"])
    q.add_argument("file", nargs="?", help="quiver file (stdin if omitted)")
    q.add_argument("--max-len", type=int, default=None)
    q.set_defaults(func=cmd_quiver)

    a = sub.add_parser("algebra", help="build and analyze algebras")
    a.add_argument("action", choices=[
        "build", "radical", "info", "idempotents", "gabriel", "present"])
    a.add_argument("kind", nargs="?", help="builder kind (for build)")
    a.add_argument("params", nargs="*", help="builder parameters")
    a.add_argument("--file", help="algebra file (stdin if omitted)")
    a.set_defaults(func=_algebra_dispatch)

    b = sub.add_parser("bound", help="admissible ideals and bound path algebras")
    b.add_argument("action", choices=["check", "construct"])
    b.add_argument("quiver", help="quiver file")
    b.add_argument("relations", help="relations file")
    b.set_defaults(func=cmd_bound)

    r = sub.add_parser("rep", help="quiver representations and modules")
    r.add_argument("action", choices=["validate", "convert"])
    r.add_argument("file", help="representation file")
    r.add_argument("--quiver", required=True, help="quiver file")
    r.add_argument("--relations", help="relations file for bound algebras")
    r.add_argument("--roundtrip", action="store_true",
                   help="also check the module -> rep -> module roundtrip")
    r.set_defaults(func=cmd_rep)

    v = sub.add_parser("vquiver", help="Vquivers and tensor path algebras")
    v.add_argument("action", choices=["info", "path-algebra"])
    v.add_argument("file", nargs="?", help="vquiver file (stdin if omitted)")
    v.set_defaults(func=cmd_vquiver)

    ad = sub.add_parser("adjunction", help="unit, counit and triangle identities")
    ad.add_argument("action", choices=["unit", "counit", "triangles", "check"])
    ad.add_argument("file", nargs="?", help="input file for unit/counit")
    ad.add_argument("--vquiver", action="append", default=[],
                    help="vquiver file for the triangle suite (repeatable)")
    ad.add_argument("--algebra", action="append", default=[],
                    help="algebra file for the triangle suite (repeatable)")
    ad.set_defaults(func=cmd_adjunction)

    c = sub.add_parser("cat", help="finite categories, functors, adjunctions")
    c.add_argument("action", choices=[
        "validate", "galois", "adjunction", "equivalence", "quotient"])
    c.add_argument("file", help="main input file")
    c.add_argument("--source", help="source category file (equivalence)")
    c.add_argument("--target", help="target category file (equivalence)")
    c.add_argument("--congruence", help="congruence file (quotient)")
    c.set_defaults(func=cmd_cat)

    g = sub.add_parser("paper-gallery", help="reproduce every worked example")
    g.set_defaults(func=cmd_gallery)
    return parser


def _algebra_dispatch(args) -> int:
    if args.action == "build":
        if not args.kind:
            raise FormatError("algebra build needs a builder kind")
        return cmd_algebra(args)
    # non-build actions read from --file, a positional path, or stdin
    if args.file is None:
        args.file = args.kind  # positional slot doubles as the file path
    return cmd_algebra(args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage (exit 2) or help (exit 0)
        return exc.code
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error (malformed input): {exc}", file=sys.stderr)
        return 2
    except QuivalgError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
