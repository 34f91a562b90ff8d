"""The worked-example checklist behind the ``paper-gallery`` subcommand.

Each item reproduces one concrete textbook fact: a multiplication table, a
radical, a Gabriel quiver, a Galois connection.  Items raise on failure and
return a short detail string on success, so the CLI can print one PASS/FAIL
line per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import algebra as alg
from . import adjunction as adj
from . import bound, catfinite as cf, corpus, repcat
from .errors import QuivalgError
from .linalg import bilinear_image, canonicalize
from .quiver import enumerate_paths, is_acyclic, path_algebra, validate_quiver
from .vquiver import path_algebra_vq, validate_vquiver


@dataclass(frozen=True)
class GalleryItem:
    item_id: str
    description: str
    run: Callable[[], str]


def _require(cond: bool, detail: str):
    if not cond:
        raise QuivalgError(detail)


def _one_arrow_quiver():
    return validate_quiver(["1", "2"], [("h", "1", "2")])


def _two_loop_quiver():
    return validate_quiver(["1"], [("alpha", "1", "1"), ("beta", "1", "1")])


def _item_quiver_one_arrow() -> str:
    q = _one_arrow_quiver()
    _require(len(q.vertices) == 2 and len(q.arrows) == 1, "wrong sizes")
    return "|Q0|=2 |Q1|=1"


def _item_two_loop_valid() -> str:
    q = _two_loop_quiver()
    _require(len(q.arrows) == 2 and not is_acyclic(q), "two-loop quiver broken")
    return "two loops on one vertex"


def _item_loop_cyclic() -> str:
    q = validate_quiver(["1"], [("alpha", "1", "1")])
    _require(not is_acyclic(q), "loop must count as a cycle")
    return "one-loop quiver is cyclic"


def _item_three_paths() -> str:
    q = _one_arrow_quiver()
    paths = enumerate_paths(q, 5)
    _require([p.label for p in paths] == ["p_1", "p_2", "h"], "basis mismatch")
    return "basis p_1, p_2, h"


def _item_path_table() -> str:
    kq = path_algebra(_one_arrow_quiver())
    p1, p2, h = (kq.index_of(l) for l in ("p_1", "p_2", "h"))
    _require(kq.mul_basis(p1, p1) == {p1: 1}, "p1^2 != p1")
    _require(kq.mul_basis(p2, p2) == {p2: 1}, "p2^2 != p2")
    _require(kq.mul_basis(p1, p2) == {} and kq.mul_basis(p2, p1) == {}, "p1 p2 != 0")
    _require(kq.mul_basis(p1, h) == {h: 1} and kq.mul_basis(h, p2) == {h: 1},
             "p1 h = h p2 = h fails")
    _require(kq.mul_basis(h, p1) == {} and kq.mul_basis(p2, h) == {}
             and kq.mul_basis(h, h) == {}, "h p1 = p2 h = h^2 = 0 fails")
    return "p1 h = h p2 = h; h p1 = p2 h = h^2 = 0"


def _item_path_iso_u2() -> str:
    kq = path_algebra(_one_arrow_quiver())
    u2 = alg.upper_triangular(2)
    images = {"p_1": "E11", "p_2": "E22", "h": "E12"}
    f = alg.hom_from_images(
        kq, u2, [u2.basis_vec(u2.index_of(images[l])) for l in kq.basis_labels]
    )
    _require(alg.is_isomorphism(f), "explicit map is not an isomorphism")
    return "p1 -> E11, p2 -> E22, h -> E12 is an isomorphism onto U_2"


def _item_base_field() -> str:
    a = alg.truncated_poly(1)
    _require(a.dim == 1 and alg.is_semisimple(a), "base field broken")
    return "dim 1"


def _item_dual_numbers() -> str:
    a = alg.truncated_poly(2)
    x = a.index_of("x")
    _require(a.dim == 2 and a.mul_basis(x, x) == {}, "x^2 != 0")
    return "dim 2, x^2 = 0"


def _item_u2_dim() -> str:
    _require(alg.upper_triangular(2).dim == 3, "dim U_2 != 3")
    return "dim 3"


def _item_m2_dim() -> str:
    _require(alg.matrix_algebra(2).dim == 4, "dim M_2 != 4")
    return "dim 4 = 2^2"


def _item_group_z3() -> str:
    a = alg.group_algebra(alg.cyclic_group_table(3))
    _require(a.dim == 3 and alg.is_commutative(a), "Q[Z/3] broken")
    return "dim 3, commutative"


def _item_radical_u2() -> str:
    u2 = alg.upper_triangular(2)
    filt = alg.radical(u2)
    expected = canonicalize([u2.basis_vec(u2.index_of("E12"))], 3)
    _require(filt.radical == expected, "J(U_2) is not the strict upper triangle")
    _require(filt.power(2).dim == 0, "J^2(U_2) != 0")
    return "J = span{E12}, J^2 = 0"


def _item_bilinear_j_square() -> str:
    u2 = alg.upper_triangular(2)
    j = alg.radical(u2).radical
    _require(bilinear_image(u2.mul_vec, j, j).dim == 0, "J*J != 0 in U_2")
    return "J*J = 0 via the bilinear image"


def _item_radical_truncated() -> str:
    for m in range(2, 7):
        a = alg.truncated_poly(m)
        filt = alg.radical(a)
        expected = canonicalize([a.basis_vec(k) for k in range(1, m)], m)
        _require(filt.radical == expected, f"J(Q[x]/x^{m}) != (x)")
        for i in range(1, m + 1):
            power = canonicalize([a.basis_vec(k) for k in range(i, m)], m)
            _require(filt.power(i) == power, f"J^{i} != (x^{i}) at m={m}")
    return "J = (x), J^i = (x^i) for m = 2..6"


def _item_group_semisimple() -> str:
    tables = [alg.cyclic_group_table(n) for n in (2, 3, 4)]
    tables.append(alg.symmetric_group_table(3)[0])
    for t in tables:
        _require(alg.is_semisimple(alg.group_algebra(t)), "group algebra not semisimple")
    return "J = 0 for Z/2, Z/3, Z/4, S3"


def _item_matrix_sum_semisimple() -> str:
    a = alg.direct_sum(alg.matrix_algebra(2), alg.matrix_algebra(3))
    _require(alg.is_semisimple(a), "M_2 + M_3 not semisimple")
    _require(not alg.is_connected(a), "a direct sum cannot be connected")
    return "M_2(Q) + M_3(Q) is semisimple"


def _item_un_basic() -> str:
    for n in (2, 3, 4):
        a = alg.upper_triangular(n)
        _require(alg.is_basic(a), f"U_{n} not basic")
        b, _ = alg.semisimple_quotient(a)
        _require(b.dim == n and alg.is_commutative(b), "A/J is not Q^n")
    return "U_n basic with A/J = Q^n"


def _item_truncated_idempotent() -> str:
    a = alg.truncated_poly(4)
    idems = alg.lift_idempotents(a)
    _require(idems.idempotents == (a.unit,), "e = 1 must be the only idempotent")
    return "e = 1 is the only primitive idempotent"


def _item_surjection_radical() -> str:
    a = alg.truncated_poly(3)
    b, proj = alg.quotient_algebra(a, alg.radical(a).power(2))
    alg.validate_hom(proj)
    image = canonicalize([proj.apply(r) for r in alg.radical(a).radical.basis_rows()], b.dim)
    _require(image == alg.radical(b).radical, "projection does not map J(A) onto J(B)")
    return "projection maps J(A) onto J(B)"


def _item_path_radical_arrows() -> str:
    q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    kq = path_algebra(q)
    filt = alg.radical(kq)
    arrows = bound.arrow_ideal(kq)
    _require(filt.radical == arrows, "J(kQ) is not the arrow ideal")
    return "J(kQ) = <arrows> on the A_3 quiver"


def _item_kq_mod_j() -> str:
    q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    kq = path_algebra(q)
    b, _ = alg.semisimple_quotient(kq)
    _require(b.dim == len(q.vertices), "kQ/J has wrong dimension")
    _require(alg.is_commutative(b) and alg.is_basic(kq), "kQ/J is not split")
    return "kQ/J(kQ) = Q x Q x Q"


def _item_two_loop_admissible() -> str:
    q = _two_loop_quiver()
    r = bound.relation_set(
        q,
        [[(1, ("alpha", "alpha"))], [(1, ("beta", "beta"))], [(1, ("alpha", "beta"))]],
        max_len=3,
    )
    report = bound.check_admissible(r)
    _require(report.admissible and report.m == 3, f"expected m=3, got {report}")
    return "I = <a^2, b^2, ab> admissible with m = 3"


def _item_c_subalgebra() -> str:
    q = _two_loop_quiver()
    r = bound.relation_set(
        q,
        [[(1, ("alpha", "alpha"))], [(1, ("beta", "beta"))], [(1, ("alpha", "beta"))]],
        max_len=3,
    )
    bq, _ = bound.bound_algebra(r)
    c = corpus.c_subalgebra_u3()
    _require(bq.dim == 4 and c.dim == 4, "dimensions differ from 4")
    images = {"p_1": "u", "alpha": "E23", "beta": "E12", "beta*alpha": "E13"}
    f = alg.hom_from_images(
        bq, c, [c.basis_vec(c.index_of(images[l])) for l in bq.basis_labels]
    )
    _require(alg.is_isomorphism(f), "C is not isomorphic to kQ/I")
    return "C = kQ/<a^2, b^2, ab> via alpha -> E23, beta -> E12"


def _item_loop_truncation() -> str:
    q = validate_quiver(["1"], [("alpha", "1", "1")])
    for m in (2, 4):
        t = bound.truncated_path_algebra(q, m - 1)
        _require(
            alg.same_table(t, alg.truncated_poly(m)),
            f"one-loop truncation at {m - 1} is not Q[x]/(x^{m})",
        )
    return "one-loop truncation equals Q[x]/(x^m)"


def _item_bound_no_relations() -> str:
    q = _one_arrow_quiver()
    bq, _ = bound.bound_algebra(bound.relation_set(q, []))
    _require(bq.dim == 3, "kQ with no relations must be 3-dimensional")
    return "kQ(1->2) with empty relations has dimension 3"


def _item_zero_module() -> str:
    kq = path_algebra(_one_arrow_quiver())
    rep = repcat.validate_rep(kq.quiver, {"1": 0, "2": 0}, {})
    mod = repcat.rep_to_module(rep, algebra=kq)
    _require(mod.dim == 0, "zero module broken")
    return "V = 0 validates"


def _item_regular_module() -> str:
    for a in (alg.upper_triangular(2), alg.truncated_poly(3)):
        repcat.regular_module(a)
    return "left multiplication is a module structure"


def _item_vquiver_u2() -> str:
    v = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
    t = path_algebra_vq(v)
    u2 = alg.upper_triangular(2)
    images = {"p_e": "E11", "p_f": "E22", "x": "E12"}
    f = alg.hom_from_images(
        t, u2, [u2.basis_vec(u2.index_of(images[l])) for l in t.basis_labels]
    )
    _require(t.dim == 3 and alg.is_isomorphism(f), "k[VQ] of 1->2 is not U_2")
    return "k[VQ] has dimension 3 and equals U_2"


def _item_gabriel_loop() -> str:
    for m in (2, 3, 6):
        ga = adj.gabriel_vquiver(alg.truncated_poly(m))
        dims = {k: len(v) for k, v in ga.vquiver.edge_labels.items()}
        v = ga.vquiver.vertices
        _require(len(v) == 1 and dims == {(v[0], v[0]): 1}, f"GQ wrong at m={m}")
    return "one vertex with one loop for Q[x]/(x^m)"


def _item_gabriel_mixed() -> str:
    ga = adj.gabriel_vquiver(corpus.mixed_algebra())
    v = ga.vquiver.vertices
    dims = {k: len(val) for k, val in ga.vquiver.edge_labels.items()}
    _require(len(v) == 2, "mixed algebra needs two vertices")
    expected = {(v[0], v[1]): 1, (v[1], v[1]): 1}
    _require(dims == expected, f"edge dims {dims} != {expected}")
    return "edge dims 1 at (1,2) and (2,2) only"


def _item_poset_divisors() -> str:
    divs = ["1", "2", "3", "4", "6", "12"]
    le = [(a, b) for a in divs for b in divs if int(b) % int(a) == 0]
    cat = cf.poset_to_category(cf.validate_poset(divs, le))
    _require(len(cat.hom("2", "12")) == 1, "|Mor(2,12)| != 1")
    _require(len(cat.hom("12", "2")) == 0, "|Mor(12,2)| != 0")
    return "divisors of 12: Mor(2,12) has one element, Mor(12,2) is empty"


def sierpinski_posets():
    """Closed sets vs all subsets of {1,2} with opens {{}, {1}, X}."""
    sets = {"{}": frozenset(), "{1}": frozenset({1}), "{2}": frozenset({2}),
            "X": frozenset({1, 2})}
    closed = ["{}", "{2}", "X"]
    subsets = ["{}", "{1}", "{2}", "X"]

    def pairs(elems):
        return [(a, b) for a in elems for b in elems if sets[a] <= sets[b]]

    p_closed = cf.validate_poset(closed, pairs(closed))
    p_all = cf.validate_poset(subsets, pairs(subsets))
    closure = {"{}": "{}", "{1}": "X", "{2}": "{2}", "X": "X"}
    inclusion = {c: c for c in closed}
    return p_all, p_closed, closure, inclusion


def _item_closed_sets_category() -> str:
    _, p_closed, _, _ = sierpinski_posets()
    cat = cf.poset_to_category(p_closed)
    _require(len(cat.objects) == 3, "closed-set category needs 3 objects")
    return "3-object poset category of closed sets under inclusion"


def _item_closure_galois() -> str:
    p_all, p_closed, closure, inclusion = sierpinski_posets()
    ok, _ = cf.check_galois_adjunction(p_all, p_closed, closure, inclusion)
    _require(ok, "closure/inclusion is not a Galois pair")
    _require(closure["{1}"] == "X", "closure({1}) != X")
    f, g, eta = cf.galois_adjunction_data(p_all, p_closed, closure, inclusion)
    ok2, _ = cf.check_adjunction_finite(f, g, eta)
    _require(ok2, "induced adjunction fails")
    return "closure -| inclusion with closure({1}) = X"


GALLERY: tuple[GalleryItem, ...] = (
    GalleryItem("quiver-one-arrow", "the one-arrow quiver 1 -> 2", _item_quiver_one_arrow),
    GalleryItem("quiver-two-loops", "two loops on one vertex", _item_two_loop_valid),
    GalleryItem("quiver-loop-cyclic", "a loop is a cycle", _item_loop_cyclic),
    GalleryItem("paths-basis-3", "kQ(1->2) has basis p1, p2, h", _item_three_paths),
    GalleryItem("path-table", "multiplication table of kQ(1->2)", _item_path_table),
    GalleryItem("path-iso-u2", "explicit isomorphism kQ(1->2) = U_2", _item_path_iso_u2),
    GalleryItem("algebra-base-field", "the base field as an algebra", _item_base_field),
    GalleryItem("algebra-dual-numbers", "dual numbers Q[x]/(x^2)", _item_dual_numbers),
    GalleryItem("algebra-u2-dim", "dim U_2 = 3", _item_u2_dim),
    GalleryItem("algebra-m2-dim", "dim M_2 = 4", _item_m2_dim),
    GalleryItem("algebra-group-z3", "the cyclic group algebra Q[Z/3]", _item_group_z3),
    GalleryItem("radical-u2", "J(U_2) is the strict upper triangle", _item_radical_u2),
    GalleryItem("radical-square-zero", "J(U_2)^2 = 0 by bilinear image", _item_bilinear_j_square),
    GalleryItem("radical-truncated", "J(Q[x]/(x^m)) = (x)", _item_radical_truncated),
    GalleryItem("group-semisimple", "group algebras are semisimple", _item_group_semisimple),
    GalleryItem("matrix-semisimple", "sums of matrix algebras are semisimple", _item_matrix_sum_semisimple),
    GalleryItem("un-basic", "U_n is basic", _item_un_basic),
    GalleryItem("unique-idempotent", "Q[x]/(x^m) has only e = 1", _item_truncated_idempotent),
    GalleryItem("surjection-radical", "surjections map radical onto radical", _item_surjection_radical),
    GalleryItem("path-radical-arrows", "J(kQ) is generated by the arrows", _item_path_radical_arrows),
    GalleryItem("kq-mod-j", "kQ/J(kQ) is a product of copies of Q", _item_kq_mod_j),
    GalleryItem("two-loop-admissible", "I = <a^2, b^2, ab> is admissible", _item_two_loop_admissible),
    GalleryItem("c-subalgebra", "C in U_3 is a bound path algebra", _item_c_subalgebra),
    GalleryItem("loop-truncation", "one-loop truncations give Q[x]/(x^m)", _item_loop_truncation),
    GalleryItem("bound-no-relations", "empty relations reproduce kQ", _item_bound_no_relations),
    GalleryItem("zero-module", "the zero module validates", _item_zero_module),
    GalleryItem("regular-module", "regular modules validate", _item_regular_module),
    GalleryItem("vquiver-u2", "k[VQ] of the one-arrow Vquiver", _item_vquiver_u2),
    GalleryItem("gabriel-loop", "GQ of Q[x]/(x^m) is a single loop", _item_gabriel_loop),
    GalleryItem("gabriel-mixed", "GQ of the mixed triangular algebra", _item_gabriel_mixed),
    GalleryItem("poset-divisors", "the divisor poset category", _item_poset_divisors),
    GalleryItem("closed-sets-category", "closed sets form a poset category", _item_closed_sets_category),
    GalleryItem("closure-galois", "closure -| inclusion Galois adjunction", _item_closure_galois),
)


def run_gallery() -> list[tuple[str, bool, str]]:
    """Run every item; returns (id, ok, detail-or-error) triples in order."""
    results = []
    for item in GALLERY:
        try:
            detail = item.run()
            results.append((item.item_id, True, detail))
        except QuivalgError as exc:
            results.append((item.item_id, False, f"{type(exc).__name__}: {exc}"))
    return results
