"""Gabriel Vquivers, the n-depth congruence, unit/counit, triangles."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import adjunction as adj
from quivalg import algebra as alg
from quivalg import bound, corpus, linalg
from quivalg.errors import CyclicInput, QuivalgError, ValidationError
from quivalg.linalg import Matrix, canonicalize
from quivalg.quiver import path_algebra, validate_quiver
from quivalg.vquiver import (
    compose_vquiver_maps,
    identity_vquiver_map,
    induced_hom,
    is_acyclic_vq,
    is_vquiver_iso,
    validate_vquiver,
    vquiver_maps_equal,
)
from dense_oracles import (
    corner_counit_matrices, corner_edge_reps, corner_subspace, dense_upper_triangular,
    kernel_intersect, lu_matrix, quotient_basis, transport,
)


def u3_edge_dims_by_matrix_units(n=3):
    """Independent brute force of dim e_i (J/J^2) e_j for U_n.

    Works directly with matrix units: e_i J e_j = span{E_ij} for i < j, and
    the class survives modulo J^2 exactly when j = i + 1.
    """
    dims = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            dims[(i, j)] = 1 if j == i + 1 else 0
    return dims


class TestNDepth:
    def setup_method(self):
        self.a = alg.truncated_poly(3)
        self.ident = alg.identity_hom(self.a)

    def test_reflexive(self):
        for n in range(4):
            assert adj.ndepth_equivalent(self.ident, self.ident, n)

    def test_positive_case(self):
        # x -> x + x^2 agrees with the identity at depth 1
        f = alg.hom_from_images(self.a, self.a, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert adj.ndepth_equivalent(self.ident, f, 1)

    def test_negative_case(self):
        # x -> 2x is an automorphism but differs already at depth 1
        f = alg.hom_from_images(self.a, self.a, [[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        assert adj.ndepth_equivalent(self.ident, f, 0)
        assert not adj.ndepth_equivalent(self.ident, f, 1)

    def _automorphism(self, b, c):
        # x -> b x + c x^2 with b nonzero; the induced images of x^2 follow
        return alg.hom_from_images(
            self.a, self.a, [[1, 0, 0], [0, b, c], [0, 0, b * b]]
        )

    def test_equivalence_relation_and_congruence(self):
        rng = random.Random(17)
        homs = [self._automorphism(rng.choice([1, 2, 3]), rng.randint(-2, 2))
                for _ in range(6)]
        for n in (0, 1, 2):
            for f in homs:
                assert adj.ndepth_equivalent(f, f, n)
            for f in homs:
                for g in homs:
                    assert adj.ndepth_equivalent(f, g, n) == adj.ndepth_equivalent(g, f, n)
            for f in homs:
                for g in homs:
                    for h in homs:
                        if adj.ndepth_equivalent(f, g, n) and adj.ndepth_equivalent(g, h, n):
                            assert adj.ndepth_equivalent(f, h, n)
            # congruence: composing with a fixed surjection preserves classes
            for f in homs:
                for g in homs:
                    if not adj.ndepth_equivalent(f, g, n):
                        continue
                    for h in homs:
                        assert adj.ndepth_equivalent(h.then(f), h.then(g), n)
                        assert adj.ndepth_equivalent(f.then(h), g.then(h), n)

    def test_endpoint_mismatch(self):
        other = alg.identity_hom(alg.truncated_poly(2))
        with pytest.raises(Exception):
            adj.ndepth_equivalent(self.ident, other, 1)


class TestGabriel:
    def test_truncated_poly_loop(self):
        for m in (2, 4):
            ga = adj.gabriel_vquiver(alg.truncated_poly(m))
            assert len(ga.vquiver.vertices) == 1
            v = ga.vquiver.vertices[0]
            assert {k: len(x) for k, x in ga.vquiver.edge_labels.items()} == {(v, v): 1}

    def test_mixed_algebra_dims(self):
        ga = adj.gabriel_vquiver(corpus.mixed_algebra())
        v = ga.vquiver.vertices
        dims = {k: len(x) for k, x in ga.vquiver.edge_labels.items()}
        assert dims == {(v[0], v[1]): 1, (v[1], v[1]): 1}

    def test_un_chain_against_matrix_unit_oracle(self):
        for n in (2, 3, 4, 5):
            ga = adj.gabriel_vquiver(alg.upper_triangular(n))
            verts = ga.vquiver.vertices
            assert len(verts) == n
            expected = u3_edge_dims_by_matrix_units(n)
            got = {
                (i + 1, j + 1): len(ga.vquiver.edge_labels.get((verts[i], verts[j]), ()))
                for i in range(n)
                for j in range(n)
            }
            assert got == expected

    def test_choice_independence_under_conjugation(self):
        rng = random.Random(23)
        for name, a in corpus.corpus_basic():
            idems = adj.gabriel_vquiver(a).idempotents.idempotents
            base = adj.edge_dimension_matrix(a, idems)
            for _ in range(3):
                w = adj.random_radical_element(a, rng)
                conj = adj.conjugate_idempotents(a, idems, w)
                assert adj.edge_dimension_matrix(a, conj) == base, name

    def test_not_basic_rejected(self):
        with pytest.raises(Exception):
            adj.gabriel_vquiver(alg.matrix_algebra(2))


@pytest.fixture(scope="module")
def dense_un():
    """Dense U_3, U_4, U_5, shared so their memoized Gabriel data is built once."""
    rng = random.Random(5)
    return [(f"dense-U{n}", dense_upper_triangular(n, rng)) for n in (3, 4, 5)]


class TestEdgeSpaces:
    def test_edge_reps_against_kernel_oracle(self, dense_un):
        for name, a in list(corpus.corpus_basic()) + dense_un:
            ga = adj.gabriel_vquiver(a)
            j, j2 = ga.filtration.radical, ga.filtration.power(2)
            idems = ga.idempotents.idempotents
            for i, e in enumerate(idems):
                for k, f in enumerate(idems):
                    corner = corner_subspace(a, e, f, j)
                    want = quotient_basis(corner, kernel_intersect(corner, j2))
                    assert list(ga.edge_reps[(i, k)]) == want, (name, i, k)
            keys = ga.orbit_keys
            assert adj.edge_dimension_matrix(a, idems) == {
                (keys[i], keys[k]): len(reps) for (i, k), reps in ga.edge_reps.items()
            }, name

    def test_edge_pass_forms_each_left_product_once(self, monkeypatch):
        # dense U_4: k = 4 idempotents, dim J = 6; e r once per (e, r) and
        # (e r) f per f gives 4 * 6 + 16 * 6 = 120 products, where a corner
        # per pair forming e r anew gives 2 * 16 * 6 = 192
        a = dense_upper_triangular(4, random.Random(7))
        filt = alg.radical(a)
        idems = alg.lift_idempotents(a).idempotents
        assert (len(idems), filt.radical.dim) == (4, 6)
        calls = []
        mul_vec = alg.SCAlgebra.mul_vec

        def counted(self, x, y):
            calls.append(1)
            return mul_vec(self, x, y)

        monkeypatch.setattr(alg.SCAlgebra, "mul_vec", counted)
        reps = adj._edge_reps(a, idems, filt)
        assert len(calls) == 120
        calls.clear()
        assert corner_edge_reps(a, idems, filt) == reps
        assert len(calls) == 192

    def test_edge_reps_and_seeded_counits_match_corner_path(self, dense_un):
        cases = list(corpus.corpus_basic()) + list(corpus.corpus_sbalg_ac()) + dense_un
        for name, a in cases:
            ga = adj.gabriel_vquiver(a)
            idems = ga.idempotents.idempotents
            assert ga.edge_reps == corner_edge_reps(a, idems, ga.filtration), name
            if not is_acyclic_vq(ga.vquiver).acyclic:
                continue
            want = corner_counit_matrices(a, [random.Random(seed) for seed in range(3)])
            for seed in range(3):
                got = adj.counit(a, random.Random(seed)).representative.matrix
                assert got == want[seed], (name, seed)


class TestGabrielOnHom:
    def test_identity(self):
        a = alg.upper_triangular(3)
        ga = adj.gabriel_vquiver(a)
        rho = adj.gabriel_on_hom(alg.identity_hom(a), ga, ga)
        assert vquiver_maps_equal(rho, identity_vquiver_map(ga.vquiver))

    def test_poly_projection_rank_one(self):
        a = alg.truncated_poly(3)
        ideal = canonicalize([a.basis_vec(2)], 3)
        b, proj = alg.quotient_algebra(a, ideal)
        rho = adj.gabriel_on_hom(proj, adj.gabriel_vquiver(a), adj.gabriel_vquiver(b))
        assert all(v is not None for v in rho.vertex_map.values())
        (mat,) = rho.edge_maps.values()
        assert mat.rank() == 1

    def test_kill_arrow_onto_zero_edge_space(self):
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        ideal = canonicalize([kq.basis_vec(kq.index_of("h"))], 3)
        b, proj = alg.quotient_algebra(kq, ideal)
        rho = adj.gabriel_on_hom(proj, adj.gabriel_vquiver(kq), adj.gabriel_vquiver(b))
        assert all(v is not None for v in rho.vertex_map.values())
        (mat,) = rho.edge_maps.values()
        assert mat.rows == 0 and mat.cols == 1
        assert rho.surjective

    def test_respects_composition_exactly(self):
        kq = path_algebra(validate_quiver(["1", "2", "3"],
                                          [("a", "1", "2"), ("b", "2", "3")]))
        a3b, alpha = bound.bound_algebra(corpus.a3_bound_algebra()[1])
        beta_target, beta = alg.semisimple_quotient(a3b)
        g_src = adj.gabriel_vquiver(alpha.source)
        g_mid = adj.gabriel_vquiver(a3b)
        g_tgt = adj.gabriel_vquiver(beta_target)
        lhs = adj.gabriel_on_hom(alpha.then(beta), g_src, g_tgt)
        rhs = compose_vquiver_maps(
            adj.gabriel_on_hom(alpha, g_src, g_mid),
            adj.gabriel_on_hom(beta, g_mid, g_tgt),
        )
        assert vquiver_maps_equal(lhs, rhs)

    def test_non_surjective_rejected(self):
        a = alg.upper_triangular(2)
        emb = alg.AlgebraHom(
            corpus.rational_n(1), a,
            Matrix(3, 1, [[1], [0], [1]]),
        )
        alg.validate_hom(emb)
        with pytest.raises(ValidationError):
            adj.gabriel_on_hom(emb, adj.gabriel_vquiver(corpus.rational_n(1)),
                               adj.gabriel_vquiver(a))


class TestUnitCounit:
    def test_unit_iso_on_corpus(self):
        for name, vq in corpus.corpus_vquivers(seed=9, count=10):
            eta = adj.unit(vq)
            assert is_vquiver_iso(eta), name

    def test_unit_and_triangles_of_path_algebras_factor_nothing(self, monkeypatch):
        # k[VQ] has a graded path basis: its radical and idempotents are read
        # off the paths, so neither split_blocks nor sympy runs
        def refuse(coeffs):
            raise AssertionError(f"factored {coeffs}")

        monkeypatch.setattr(alg, "_factor_over_q", refuse)
        for name, vq in corpus.corpus_vquivers():
            assert is_vquiver_iso(adj.unit(vq)), name
        assert adj.triangle_identities(corpus.corpus_vquivers(), []).all_pass

    def test_unit_rejects_cyclic(self):
        with pytest.raises(CyclicInput):
            adj.unit(validate_vquiver(["e"], {("e", "e"): 1}))

    def test_counit_iso_for_semisimple_and_hereditary(self):
        for a in (corpus.rational_n(3), alg.upper_triangular(2)):
            eps = adj.counit(a)
            assert alg.is_isomorphism(eps.representative)

    def test_counit_kernel_dimension_for_bound_algebra(self):
        a3b, _ = corpus.a3_bound_algebra()
        eps = adj.counit(a3b)
        rep = eps.representative
        assert rep.source.dim - rep.target.dim == 1  # 6 - 1 = 5 = dim A

    def test_counit_rejects_cyclic_gabriel(self):
        with pytest.raises(CyclicInput):
            adj.counit(alg.truncated_poly(3))
        with pytest.raises(CyclicInput):
            adj.counit(corpus.mixed_algebra())

    def test_counit_surjective_on_corpus(self):
        for name, a in corpus.corpus_sbalg_ac():
            eps = adj.counit(a)
            assert eps.representative.surjective, name

    def test_section_independence(self):
        base = adj.counit(corpus.a3_bound_algebra()[0])
        for seed in range(4):
            other = adj.counit(
                corpus.a3_bound_algebra()[0], section_rng=random.Random(seed)
            )
            # different objects, same table: compare through matrices
            assert adj.ndepth_equivalent(base.representative, other.representative, 1)

    def test_canonical_counit_forms_no_j2_corner(self, monkeypatch):
        # e_1 J e_3 meets J^2 on the path algebra of a -> b plus c: 1 -> 3
        q = validate_quiver(
            ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]
        )
        a = path_algebra(q)
        adj.gabriel_vquiver(a)

        def refuse(vectors, n):
            raise AssertionError("the counit formed a J^2 corner")

        monkeypatch.setattr(adj, "canonicalize", refuse)
        assert adj.counit(a).representative.surjective
        with pytest.raises(AssertionError, match="J\\^2 corner"):
            adj.counit(a, section_rng=random.Random(0))

    def test_seeded_section_perturbs_inside_j2(self):
        # e_1 J e_3 = span{c, ab} meets J^2 = span{ab}, so the section of c
        # moves by a multiple of ab; Random(0) draws 3 for it
        q = validate_quiver(
            ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]
        )
        a = path_algebra(q)
        base = adj.counit(a).representative
        other = adj.counit(a, section_rng=random.Random(0)).representative
        assert other.matrix != base.matrix
        assert adj.ndepth_equivalent(base, other, 1)


class TestTriangles:
    def test_corpus_report_all_pass(self):
        report = adj.triangle_identities(
            corpus.corpus_vquivers(seed=4, count=10), corpus.corpus_sbalg_ac()
        )
        failed = [e for e in report.entries if not e.ok]
        assert report.all_pass, failed

    @staticmethod
    def _one_case(side):
        # fresh objects, so no memoized radical hides the patched kernel
        if side == "vquiver":
            return corpus.corpus_vquivers(seed=4, count=1), []
        return [], [("U3", alg.upper_triangular(3))]

    @pytest.mark.parametrize("side", ["vquiver", "algebra"])
    def test_internal_error_propagates(self, monkeypatch, side):
        # a programming error in the kernel is a crash, not a mathematical FAIL
        vquivers, algebras = self._one_case(side)

        def broken(self, v):
            raise TypeError("kernel bug")

        monkeypatch.setattr(linalg._Echelon, "add", broken)
        with pytest.raises(TypeError, match="kernel bug"):
            adj.triangle_identities(vquivers, algebras)

    @pytest.mark.parametrize("side", ["vquiver", "algebra"])
    def test_mathematical_error_is_reported(self, monkeypatch, side):
        vquivers, algebras = self._one_case(side)

        def refuses(self, v):
            raise QuivalgError("refused")

        monkeypatch.setattr(linalg._Echelon, "add", refuses)
        report = adj.triangle_identities(vquivers, algebras)
        assert not report.all_pass
        assert any(e.detail == "QuivalgError: refused" for e in report.entries)

    def test_counit_naturality_mod_depth_one(self):
        # eps_B . k[GQ(alpha)] ~ alpha . eps_A for surjective alpha
        cases = []
        a3b, alpha = bound.bound_algebra(corpus.a3_bound_algebra()[1])
        cases.append(alpha)
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        ideal = canonicalize([kq.basis_vec(kq.index_of("h"))], 3)
        _, beta = alg.quotient_algebra(kq, ideal)
        cases.append(beta)
        for alpha in cases:
            a, b = alpha.source, alpha.target
            ga, gb = adj.gabriel_vquiver(a), adj.gabriel_vquiver(b)
            eps_a, eps_b = adj.counit(a), adj.counit(b)
            k_gq = induced_hom(adj.gabriel_on_hom(alpha, ga, gb))
            left = k_gq.then(eps_b.representative)
            right = eps_a.representative.then(alpha)
            assert adj.ndepth_equivalent(left, right, 1)


PRESENTED = [("U3", alg.upper_triangular(3)), ("U4", alg.upper_triangular(4))] + [
    (name, a) for name, a in corpus.corpus_sbalg_ac() if a.dim <= 6]


def presentation_invariants(a):
    """What a change of basis must leave alone: the radical dimension chain,
    the multiset of Gabriel edge dimensions, dim ker and m."""
    pres = adj.present_as_bound_quiver(a)
    return ([s.dim for s in alg.radical(a).powers], sorted(pres.gabriel.edge_dims().values()),
            pres.kernel.dim, pres.admissible_m)


class TestPresentation:
    def test_memos_die_with_the_algebra(self):
        u4 = alg.upper_triangular(4)
        adj.present_as_bound_quiver(u4)
        assert adj.gabriel_vquiver(u4) is adj.gabriel_vquiver(u4)
        ref = weakref.ref(u4)
        del u4
        gc.collect()
        assert ref() is None

    def test_hereditary_kernel_zero(self):
        pres = adj.present_as_bound_quiver(alg.upper_triangular(3))
        assert pres.kernel.dim == 0
        assert pres.isomorphism.matrix.rank() == 6

    def test_bound_algebra_recovers_relation(self):
        a3b, _ = corpus.a3_bound_algebra()
        pres = adj.present_as_bound_quiver(a3b)
        assert pres.kernel.dim == 1
        report = bound.check_admissible(pres.relations)
        assert report.admissible
        rebuilt, _ = bound.bound_algebra(pres.relations)
        assert rebuilt.dim == a3b.dim

    def test_cyclic_cases_excluded(self):
        with pytest.raises(CyclicInput):
            adj.present_as_bound_quiver(alg.truncated_poly(3))
        with pytest.raises(CyclicInput):
            adj.present_as_bound_quiver(corpus.c_subalgebra_u3())

    def test_corpus_presentations(self):
        for name, a in corpus.corpus_sbalg_ac():
            pres = adj.present_as_bound_quiver(a)
            assert alg.is_isomorphism(pres.isomorphism), name
            report = bound.check_admissible(pres.relations)
            assert report.admissible, name
            rebuilt, _ = bound.bound_algebra(pres.relations)
            assert rebuilt.dim == a.dim, name
            # the ideal and isomorphism proofs the presentation trusts
            t = adj.counit(a).representative.source
            alg.quotient_algebra(t, pres.kernel)
            assert alg.validate_hom(pres.isomorphism).surjective, name

    def test_presentation_proves_nothing_twice(self, monkeypatch):
        a = dense_upper_triangular(3, random.Random(3))  # fresh, so nothing is memoized
        calls = {"quotient_algebra": 0, "validate_hom": 0}
        for name in calls:
            original = getattr(alg, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for mod in list(sys.modules.values()):
                if (mod.__name__.startswith("quivalg")
                        and getattr(mod, name, None) is original):
                    monkeypatch.setattr(mod, name, counted)
        pres = adj.present_as_bound_quiver(a)
        assert calls == {"quotient_algebra": 0, "validate_hom": 1}  # validate_hom: the counit
        assert alg.is_isomorphism(pres.isomorphism)

    @given(st.sampled_from(PRESENTED), st.data())
    @settings(max_examples=25, deadline=None)
    def test_dense_transports_present_alike(self, case, data):
        name, a = case
        n = a.dim
        size = n * (n - 1) // 2
        entries = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
        diagonal = st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=n, max_size=n)
        p = lu_matrix(n, data.draw(entries), data.draw(entries), data.draw(diagonal))
        b = alg.validate_algebra(transport(a, p))
        assert presentation_invariants(b) == presentation_invariants(a), name
