"""Vquivers, tensor path algebras, induced algebra maps."""

import dataclasses

import pytest

from quivalg import algebra as alg
from quivalg import corpus
from quivalg.errors import CyclicInput, ValidationError
from quivalg.linalg import Matrix, canonicalize
from quivalg.quiver import validate_quiver
from quivalg.vquiver import (
    VquiverMap,
    compose_vquiver_maps,
    identity_vquiver_map,
    induced_hom,
    is_acyclic_vq,
    path_algebra_vq,
    sigma_algebra,
    validate_vquiver,
    validate_vquiver_map,
    vquiver_of_quiver,
)


def tensor_power_dims(vq):
    """Dimensions of the tensor powers of the edge bimodule, degree 1 up:
    entry sums of the powers of the dimension matrix, no paths involved."""
    n = len(vq.vertices)
    d = [[vq.dim(e, f) for f in vq.vertices] for e in vq.vertices]
    dims = []
    power = d
    while any(x for row in power for x in row):
        dims.append(sum(x for row in power for x in row))
        power = [[sum(power[i][k] * d[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        assert len(dims) <= n + 1, "tensor powers fail to vanish; cyclic Vquiver"
    return dims


class TestValidation:
    def test_simple(self):
        v = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        assert v.dim("e", "f") == 1 and v.dim("f", "e") == 0

    def test_from_quiver_counts_arrows(self):
        q = validate_quiver(["1", "2"], [("x", "1", "2"), ("y", "1", "2")])
        v = vquiver_of_quiver(q)
        assert v.dim("1", "2") == 2

    def test_star_space_rejected(self):
        with pytest.raises(ValidationError):
            validate_vquiver(["e"], {("*", "e"): ["x"]})
        with pytest.raises(ValidationError):
            validate_vquiver(["e", "*"], {})

    def test_sigma_algebra_is_product_of_fields(self):
        v = validate_vquiver(["e", "f"], {})
        s = sigma_algebra(v)
        assert s.dim == 2 and alg.is_semisimple(s)
        assert s.mul_basis(0, 1) == {}


class TestAcyclicity:
    def test_edgeless(self):
        acyc = is_acyclic_vq(validate_vquiver(["a", "b"], {}))
        assert acyc.acyclic and acyc.nilpotence_index == 1

    def test_loop(self):
        acyc = is_acyclic_vq(validate_vquiver(["e"], {("e", "e"): 1}))
        assert not acyc.acyclic and acyc.nilpotence_index is None

    def test_chain(self):
        v = validate_vquiver(["e", "f", "g"], {("e", "f"): ["x"], ("f", "g"): ["y"]})
        acyc = is_acyclic_vq(v)
        assert acyc.acyclic and acyc.nilpotence_index == 3
        # tensor powers: dim V = 2, dim V (x) V = 1, then zero
        assert tensor_power_dims(v) == [2, 1]


class TestPathAlgebra:
    def test_one_edge_is_u2_shaped(self):
        v = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        t = path_algebra_vq(v)
        assert t.dim == 3
        u2 = alg.upper_triangular(2)
        assign = {"p_e": "E11", "p_f": "E22", "x": "E12"}
        f = alg.hom_from_images(
            t, u2, [u2.basis_vec(u2.index_of(assign[l])) for l in t.basis_labels]
        )
        assert alg.is_isomorphism(f)

    def test_edgeless_gives_product_field(self):
        t = path_algebra_vq(validate_vquiver(["a", "b", "c"], {}))
        assert t.dim == 3 and alg.is_semisimple(t)

    def test_chain_dimension(self):
        v = validate_vquiver(["e", "f", "g"], {("e", "f"): ["x"], ("f", "g"): ["y"]})
        assert path_algebra_vq(v).dim == 6  # 3 vertices + 2 edges + 1 word

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicInput):
            path_algebra_vq(validate_vquiver(["e"], {("e", "e"): 1}))

    def test_memoized_on_the_vquiver(self):
        v = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        assert path_algebra_vq(v) is path_algebra_vq(v)
        same_shape = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        assert path_algebra_vq(same_shape) is not path_algebra_vq(v)

    def test_rebinding_edges_is_refused(self):
        v = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        path_algebra_vq(v)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.edge_labels = {}

    def test_matches_multigraph_path_count(self):
        for _, v in corpus.corpus_vquivers(seed=5, count=8):
            t = path_algebra_vq(v)
            expected = len(v.vertices) + sum(tensor_power_dims(v))
            assert t.dim == expected

    def test_radical_is_positive_degree_part(self):
        v = validate_vquiver(["e", "f", "g"], {("e", "f"): ["x", "x2"], ("f", "g"): ["y"]})
        t = path_algebra_vq(v)
        filt = alg.radical(t)
        positive = canonicalize(
            [t.basis_vec(i) for i, p in enumerate(t.paths) if p.length >= 1], t.dim
        )
        assert filt.radical == positive
        # J/J^2 matches the edge dimension total
        assert filt.radical.dim - filt.power(2).dim == v.total_edge_dim()


class TestMaps:
    def setup_method(self):
        self.v1 = validate_vquiver(["e", "f"], {("e", "f"): ["x"]})
        self.v2 = validate_vquiver(["e", "f"], {("e", "f"): ["x2", "y2"]})

    def test_identity_map(self):
        m = identity_vquiver_map(self.v1)
        assert m.surjective
        assert induced_hom(m).matrix == Matrix.identity(3)

    def test_collapse_edge_space(self):
        rho = validate_vquiver_map(VquiverMap(
            self.v2, self.v1, {"e": "e", "f": "f"},
            {("e", "f"): Matrix(1, 2, [[1, 1]])},
        ))
        assert rho.surjective
        h = induced_hom(rho)
        assert h.source.dim == 4 and h.target.dim == 3 and h.surjective

    def test_non_surjective_edge_map_flagged(self):
        rho = validate_vquiver_map(VquiverMap(
            self.v1, self.v2, {"e": "e", "f": "f"},
            {("e", "f"): Matrix(2, 1, [[1], [0]])},
        ))
        assert not rho.surjective
        with pytest.raises(ValidationError):
            induced_hom(rho)

    def test_star_collapse(self):
        v3 = validate_vquiver(["e", "f", "extra"], {("e", "f"): ["x"]})
        rho = validate_vquiver_map(VquiverMap(
            v3, self.v1, {"e": "e", "f": "f", "extra": None},
            {("e", "f"): Matrix.identity(1)},
        ))
        assert rho.surjective
        h = induced_hom(rho)
        # the killed idempotent maps to zero
        t = h.source
        killed = t.basis_vec(t.index_of("p_extra"))
        assert all(c == 0 for c in h.apply(killed))

    def test_vertex_map_must_biject(self):
        with pytest.raises(ValidationError):
            validate_vquiver_map(VquiverMap(
                self.v1, self.v1, {"e": "e", "f": "e"}, {}
            ))

    def test_functoriality(self):
        sigma = validate_vquiver_map(VquiverMap(
            self.v2, self.v2, {"e": "e", "f": "f"},
            {("e", "f"): Matrix(2, 2, [[0, 1], [1, 0]])},
        ))
        rho = validate_vquiver_map(VquiverMap(
            self.v2, self.v1, {"e": "e", "f": "f"},
            {("e", "f"): Matrix(1, 2, [[1, 1]])},
        ))
        combined = compose_vquiver_maps(sigma, rho)
        lhs = induced_hom(combined).matrix
        rhs = induced_hom(sigma).then(induced_hom(rho)).matrix
        assert lhs == rhs

    def test_bimodule_compatibility(self):
        # phi(e . v . f) = phi(e) phi(v) phi(f) for vertex idempotents e, f
        rho = validate_vquiver_map(VquiverMap(
            self.v2, self.v1, {"e": "e", "f": "f"},
            {("e", "f"): Matrix(1, 2, [[2, 3]])},
        ))
        h = induced_hom(rho)
        src, tgt = h.source, h.target
        pe = src.basis_vec(src.index_of("p_e"))
        pf = src.basis_vec(src.index_of("p_f"))
        for lab in ("x2", "y2"):
            v = src.basis_vec(src.index_of(lab))
            sandwich = src.mul_vec(src.mul_vec(pe, v), pf)
            lhs = h.apply(sandwich)
            rhs = tgt.mul_vec(tgt.mul_vec(h.apply(pe), h.apply(v)), h.apply(pf))
            assert lhs == rhs
