"""Representations of quivers and algebras, and the conversion dictionary."""

import pytest

from quivalg import algebra as alg
from quivalg import bound, corpus, repcat
from quivalg.errors import DimensionMismatch, ValidationError
from quivalg.linalg import Matrix
from quivalg.quiver import path_algebra, validate_quiver

from dense_oracles import left_mult_matrix, right_mult_matrix


def one_arrow_setup():
    q = validate_quiver(["1", "2"], [("h", "1", "2")])
    return q, path_algebra(q)


class TestValidateModule:
    def test_zero_module(self):
        q, kq = one_arrow_setup()
        rep = repcat.validate_rep(q, {"1": 0, "2": 0}, {})
        assert repcat.rep_to_module(rep, algebra=kq).dim == 0

    def test_regular_module_every_builder(self):
        for a in (alg.upper_triangular(2), alg.truncated_poly(3),
                  alg.matrix_algebra(2), corpus.mixed_algebra()):
            repcat.regular_module(a)

    def test_relation_violation_detected(self):
        # rho(x)^2 != 0 cannot define a module over the dual numbers
        a = alg.truncated_poly(2)
        action = (Matrix.identity(1), Matrix.identity(1))
        with pytest.raises(ValidationError):
            repcat.validate_module(repcat.AlgebraModule(a, 1, action))

    def test_unit_must_act_as_identity(self):
        a = alg.truncated_poly(2)
        action = (Matrix.zero(1, 1), Matrix.zero(1, 1))
        with pytest.raises(ValidationError):
            repcat.validate_module(repcat.AlgebraModule(a, 1, action))


class TestMorphisms:
    def test_identity_and_zero(self):
        _, kq = one_arrow_setup()
        m = repcat.regular_module(kq)
        assert repcat.check_rep_morphism(m, m, Matrix.identity(3))
        assert repcat.check_rep_morphism(m, m, Matrix.zero(3, 3))

    def test_right_multiplication_commutes(self):
        u2 = alg.upper_triangular(2)
        m = repcat.regular_module(u2)
        phi = right_mult_matrix(u2, u2.basis_vec(u2.index_of("E12")))
        assert repcat.check_rep_morphism(m, m, phi)

    def test_morphisms_compose(self):
        u2 = alg.upper_triangular(2)
        m = repcat.regular_module(u2)
        phi = right_mult_matrix(u2, u2.basis_vec(u2.index_of("E12")))
        assert repcat.check_rep_morphism(m, m, phi * phi)

    def test_regular_module_is_literally_the_dense_left_multiplication(self):
        algebras = [a for _, a in corpus.corpus_basic()] + [
            alg.group_algebra(alg.cyclic_group_table(3)), alg.matrix_algebra(2),
            bound.truncated_path_algebra(validate_quiver(["1"], [("x", "1", "1")]), 3)]
        for a in algebras:
            action = repcat.regular_module(a).action
            assert action == tuple(left_mult_matrix(a, a.basis_vec(i)) for i in range(a.dim))

    def test_algebra_mismatch(self):
        m1 = repcat.regular_module(alg.truncated_poly(2))
        m2 = repcat.regular_module(alg.upper_triangular(2))
        with pytest.raises(ValidationError):
            repcat.check_rep_morphism(m1, m2, Matrix.zero(3, 2))

    def test_shape_mismatch(self):
        m = repcat.regular_module(alg.truncated_poly(2))
        with pytest.raises(DimensionMismatch):
            repcat.check_rep_morphism(m, m, Matrix.zero(3, 3))


class TestConversion:
    def test_one_arrow_rep(self):
        q, kq = one_arrow_setup()
        rep = repcat.validate_rep(q, {"1": 1, "2": 1}, {"h": Matrix(1, 1, [[1]])})
        mod = repcat.rep_to_module(rep, algebra=kq)
        assert mod.dim == 2
        assert mod.action[kq.index_of("h")].rank() == 1

    def test_roundtrip_returns_original_matrices(self):
        q, kq = one_arrow_setup()
        rep = repcat.validate_rep(q, {"1": 2, "2": 1}, {"h": Matrix(1, 2, [[3, 5]])})
        mod = repcat.rep_to_module(rep, algebra=kq)
        back, change = repcat.module_to_rep(mod)
        assert back.maps["h"] == rep.maps["h"]
        assert back.spaces == rep.spaces
        assert change == Matrix.identity(3)

    def test_regular_module_vertex_dimensions(self):
        # computed as rank of the trivial-path action in the regular module
        _, kq = one_arrow_setup()
        mod = repcat.regular_module(kq)
        rep, _ = repcat.module_to_rep(mod)
        p1 = mod.action[kq.index_of("p_1")]
        p2 = mod.action[kq.index_of("p_2")]
        assert rep.spaces == {"1": p1.rank(), "2": p2.rank()}
        assert sorted(rep.spaces.values()) == [1, 2]

    def test_projections_sum_to_identity(self):
        for name, a in corpus.corpus_sbalg_ac():
            if a.paths is None:
                continue
            mod = repcat.regular_module(a)
            total = Matrix.zero(mod.dim, mod.dim)
            for i, p in enumerate(a.paths):
                if p.length == 0:
                    total = total + mod.action[i]
            assert total == Matrix.identity(mod.dim)

    def test_roundtrip_on_corpus_modules(self):
        for name, a in corpus.corpus_sbalg_ac():
            if a.paths is None:
                continue
            assert repcat.roundtrip_is_identity(repcat.regular_module(a)), name

    def test_bound_rep_with_nilpotent_loop(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        r = bound.relation_set(q, [[(1, ("a", "a", "a"))]], max_len=3)
        balg, _ = bound.bound_algebra(r)
        nilp = Matrix(3, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        rep = repcat.validate_rep(q, {"1": 3}, {"a": nilp})
        mod = repcat.rep_to_module(rep, bound=r, algebra=balg)
        assert repcat.roundtrip_is_identity(mod)

    def test_bound_violation_distinct_error(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        r = bound.relation_set(q, [[(1, ("a", "a", "a"))]], max_len=3)
        balg, _ = bound.bound_algebra(r)
        rep = repcat.validate_rep(q, {"1": 1}, {"a": Matrix(1, 1, [[1]])})
        with pytest.raises(ValidationError) as err:
            repcat.rep_to_module(rep, bound=r, algebra=balg)
        assert "relation acts nonzero" in str(err.value)

    def test_module_without_bookkeeping_rejected(self):
        a = corpus.mixed_algebra()
        mod = repcat.regular_module(a)
        with pytest.raises(Exception) as err:
            repcat.module_to_rep(mod)
        assert "bookkeeping" in str(err.value)


# ---------------------------------------------------------------------------
# module axioms on generators against the full scan they replaced
# ---------------------------------------------------------------------------


def full_scan_validate_module(m):
    """Test-only oracle: rho(e_i e_j) = rho(e_i) rho(e_j) on every basis pair."""
    a = m.algebra
    if len(m.action) != a.dim:
        raise DimensionMismatch("one action matrix per basis element required")
    for mat in m.action:
        if mat.rows != m.dim or mat.cols != m.dim:
            raise DimensionMismatch("action matrices must be square of the module size")
    if m.act(a.unit) != Matrix.identity(m.dim):
        raise ValidationError("the unit does not act as the identity")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.action[i] * m.action[j]
            rhs = Matrix.zero(m.dim, m.dim)
            for k, c in a.mul_basis(i, j).items():
                rhs = rhs + m.action[k].scale(c)
            if lhs != rhs:
                raise ValidationError(
                    f"action is not multiplicative on "
                    f"({a.basis_labels[i]}, {a.basis_labels[j]})",
                    witness=(i, j),
                )
    return m


def verdict(check, m):
    try:
        assert check(m) is m
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness
    return "valid"


def with_action(m, k, mat):
    action = list(m.action)
    action[k] = mat
    return repcat.AlgebraModule(m.algebra, m.dim, tuple(action))


def perturbations(mat):
    """Matrices differing from mat: doubled, zeroed, and one entry moved."""
    n = mat.rows
    out = [mat.scale(2), Matrix.zero(n, n)]
    for r, c in ((0, n - 1), (n - 1, 0), (n // 2, n // 2)):
        bump = Matrix(n, n, [[int((i, j) == (r, c)) for j in range(n)] for i in range(n)])
        out.append(mat + bump)
    return [p for p in out if p != mat]


def chain_rep(n):
    q = validate_quiver([str(v) for v in range(1, n + 1)],
                        [(f"x{v}", str(v), str(v + 1)) for v in range(1, n)])
    spaces = {str(v): 1 + v % 2 for v in range(1, n + 1)}
    maps = {f"x{v}": Matrix(spaces[str(v + 1)], spaces[str(v)],
                            [[1 + (r + c + v) % 3 for c in range(spaces[str(v)])]
                             for r in range(spaces[str(v + 1)])])
            for v in range(1, n)}
    return repcat.validate_rep(q, spaces, maps), path_algebra(q)


def roundtrip_corpus():
    """The modules of the roundtrip tests above and of ``rep convert``."""
    out = [repcat.regular_module(a) for _, a in corpus.corpus_sbalg_ac() if a.paths]
    q, kq = one_arrow_setup()
    rep = repcat.validate_rep(q, {"1": 2, "2": 1}, {"h": Matrix(1, 2, [[3, 5]])})
    out.append(repcat.rep_to_module(rep, algebra=kq))
    q = validate_quiver(["1"], [("a", "1", "1")])
    r = bound.relation_set(q, [[(1, ("a", "a", "a"))]], max_len=3)
    nilp = Matrix(3, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    out.append(repcat.rep_to_module(
        repcat.validate_rep(q, {"1": 3}, {"a": nilp}), bound=r))
    q = validate_quiver(["1", "2", "3", "4"],
                        [("x", "1", "2"), ("y", "2", "3"), ("z", "3", "4")])
    rep = repcat.validate_rep(q, {"1": 1, "2": 2, "3": 2, "4": 1}, {
        "x": Matrix(2, 1, [[1], [1]]), "y": Matrix.identity(2),
        "z": Matrix(1, 2, [[1, -1]])})
    out.append(repcat.rep_to_module(rep))
    out.append(repcat.rep_to_module(chain_rep(5)[0]))
    return out


class TestModuleChecksOnGenerators:
    def test_roundtrip_corpus_agrees(self):
        for m in roundtrip_corpus():
            assert verdict(repcat.validate_module, m) == "valid"
            assert verdict(full_scan_validate_module, m) == "valid"
            assert repcat.roundtrip_is_identity(m)

    def test_broken_on_one_long_path_same_witness(self):
        rep, kq = chain_rep(5)
        # longest paths first, so the first failing pair of the full scan may
        # lie outside the generators' rows
        reordered = alg.algebra_from_paths(kq.quiver, kq.paths[::-1], None)
        modules = [repcat.rep_to_module(rep, algebra=kq),
                   repcat.rep_to_module(rep, algebra=reordered)] + [
            repcat.regular_module(a) for _, a in corpus.corpus_sbalg_ac() if a.paths]
        checked, outside = 0, 0
        for m in modules:
            a = m.algebra
            for k, p in enumerate(a.paths):
                if p.length < 2:
                    continue
                for bad in perturbations(m.action[k]):
                    broken = with_action(m, k, bad)
                    got = verdict(repcat.validate_module, broken)
                    assert got != "valid"
                    assert got == verdict(full_scan_validate_module, broken)
                    checked += 1
                    outside += got[2][0] not in alg.generating_set(a)
        assert checked >= 20 and outside >= 1

    def test_no_path_bookkeeping_whole_basis(self):
        algebras = [alg.matrix_algebra(2), alg.truncated_poly(3), corpus.mixed_algebra(),
                    alg.group_algebra(alg.cyclic_group_table(3))]
        for a in algebras:
            assert alg.generating_set(a) == tuple(range(a.dim))
            m = repcat.regular_module(a)
            assert verdict(full_scan_validate_module, m) == "valid"
            for k in range(a.dim):
                for bad in perturbations(m.action[k]):
                    broken = with_action(m, k, bad)
                    got = verdict(repcat.validate_module, broken)
                    assert got == verdict(full_scan_validate_module, broken)

    def test_products_only_with_generators(self, monkeypatch):
        rep, kq = chain_rep(5)
        m = repcat.rep_to_module(rep, algebra=kq)
        count = 0
        product = Matrix.__mul__

        def counting(x, y):
            nonlocal count
            count += 1
            return product(x, y)

        monkeypatch.setattr(Matrix, "__mul__", counting)
        repcat.validate_module(m)
        assert count == len(alg.generating_set(kq)) * kq.dim < kq.dim ** 2
