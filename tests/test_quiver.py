"""Quivers, path enumeration, path algebras."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import algebra as alg
from quivalg.errors import CyclicInput, FormatError, ValidationError
from quivalg.quiver import (
    MAX_TRUNCATION_PATHS,
    Quiver,
    enumerate_paths,
    is_acyclic,
    longest_path_length,
    path_algebra,
    validate_quiver,
)
from quivalg.vquiver import path_algebra_vq, vquiver_of_quiver


def dfs_has_cycle(q: Quiver) -> bool:
    """Independent DFS cycle-search oracle."""
    color = {v: 0 for v in q.vertices}

    def visit(v):
        color[v] = 1
        for _, s, t in q.arrows:
            if s != v:
                continue
            if color[t] == 1:
                return True
            if color[t] == 0 and visit(t):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in q.vertices)


def count_paths_recursive(q: Quiver, max_len: int) -> int:
    """Independent path counter by recursion over extensions."""

    def extend(end, length):
        if length == max_len:
            return 1
        return 1 + sum(extend(t, length + 1) for _, s, t in q.arrows if s == end)

    return sum(extend(v, 0) for v in q.vertices)


class TestValidation:
    def test_one_arrow_quiver(self):
        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        assert len(q.vertices) == 2 and len(q.arrows) == 1

    def test_two_loop_quiver(self):
        q = validate_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
        assert len(q.arrows) == 2

    def test_dangling_endpoint(self):
        with pytest.raises(ValidationError):
            validate_quiver(["1"], [("h", "1", "2")])

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            validate_quiver(["1", "1"], [])
        with pytest.raises(ValidationError):
            validate_quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])


class TestAcyclicity:
    def test_one_arrow(self):
        assert is_acyclic(validate_quiver(["1", "2"], [("h", "1", "2")]))

    def test_loop(self):
        assert not is_acyclic(validate_quiver(["1"], [("a", "1", "1")]))

    def test_linear_chain(self):
        n = 6
        vs = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
        q = validate_quiver(vs, arrows)
        assert is_acyclic(q) and not dfs_has_cycle(q)
        assert longest_path_length(q) == n - 1

    @given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       max_size=8), st.just(None))
    @settings(max_examples=80)
    def test_kahn_agrees_with_dfs(self, n, pairs, _):
        vs = [f"v{i}" for i in range(n)]
        arrows = [
            (f"a{k}", vs[i % n], vs[j % n]) for k, (i, j) in enumerate(pairs)
        ]
        q = validate_quiver(vs, arrows)
        assert is_acyclic(q) == (not dfs_has_cycle(q))

    @given(st.integers(1, 6), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                       max_size=10))
    @settings(max_examples=80)
    def test_longest_path_matches_enumeration(self, n, pairs):
        # every arrow runs from a smaller to a larger vertex index: a DAG
        vs = [f"v{i}" for i in range(n)]
        ends = [sorted((i % n, j % n)) for i, j in pairs]
        arrows = [
            (f"a{k}", vs[s], vs[t]) for k, (s, t) in enumerate(ends) if s < t
        ]
        q = validate_quiver(vs, arrows)
        longest = max(p.length for p in enumerate_paths(q, len(q.vertices)))
        assert longest_path_length(q) == longest

    def test_longest_path_refuses_cycles(self):
        with pytest.raises(CyclicInput):
            longest_path_length(validate_quiver(["1"], [("a", "1", "1")]))


class TestEnumeration:
    def test_basis_of_three(self):
        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        assert [p.label for p in enumerate_paths(q, 3)] == ["p_1", "p_2", "h"]

    def test_no_arrows(self):
        q = validate_quiver(["a", "b", "c"], [])
        assert len(enumerate_paths(q, 4)) == 3

    def test_two_loop_count(self):
        q = validate_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
        paths = enumerate_paths(q, 2)
        assert len(paths) == 7  # 1 + 2 + 4
        labels = [p.label for p in paths]
        assert labels == ["p_1", "a", "b", "a*a", "a*b", "b*a", "b*b"]

    def test_ordering_graded(self):
        q = validate_quiver(["1", "2", "3"], [("b", "2", "3"), ("a", "1", "2")])
        lengths = [p.length for p in enumerate_paths(q, 3)]
        assert lengths == sorted(lengths)

    @given(st.integers(2, 4), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                       max_size=5), st.integers(0, 3))
    @settings(max_examples=60)
    def test_count_matches_recursive_oracle(self, n, pairs, max_len):
        vs = [f"v{i}" for i in range(n)]
        arrows = [(f"a{k}", vs[i % n], vs[j % n]) for k, (i, j) in enumerate(pairs)]
        q = validate_quiver(vs, arrows)
        assert len(enumerate_paths(q, max_len)) == count_paths_recursive(q, max_len)


class TestPathAlgebra:
    def test_one_arrow_table(self):
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        assert kq.dim == 3
        p1, p2, h = (kq.index_of(x) for x in ("p_1", "p_2", "h"))
        assert kq.mul_basis(p1, h) == {h: 1}
        assert kq.mul_basis(h, p2) == {h: 1}
        assert kq.mul_basis(h, p1) == {}
        assert kq.mul_basis(h, h) == {}

    def test_isolated_vertices_give_product_field(self):
        q = validate_quiver(["1", "2", "3"], [])
        kq = path_algebra(q)
        assert kq.dim == 3
        for i in range(3):
            for j in range(3):
                assert kq.mul_basis(i, j) == ({i: 1} if i == j else {})

    def test_a3_has_one_long_path(self):
        q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        # path count oracle: 3 trivial + 2 arrows + 1 composite
        assert count_paths_recursive(q, 2) == 6
        kq = path_algebra(q)
        assert kq.dim == 6
        assert sum(1 for p in kq.paths if p.length == 2) == 1

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicInput):
            path_algebra(validate_quiver(["1"], [("a", "1", "1")]))

    def test_trivial_paths_are_complete_orthogonal_idempotents(self):
        q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        kq = path_algebra(q)
        total = [0] * kq.dim
        for i, p in enumerate(kq.paths):
            if p.length:
                continue
            e = kq.basis_vec(i)
            assert kq.mul_vec(e, e) == e
            total = [x + y for x, y in zip(total, e)]
            for j, p2 in enumerate(kq.paths):
                if p2.length == 0 and i != j:
                    assert all(c == 0 for c in kq.mul_vec(e, kq.basis_vec(j)))
        assert tuple(total) == kq.unit

    def test_explicit_iso_to_upper_triangular(self):
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        u2 = alg.upper_triangular(2)
        assign = {"p_1": "E11", "p_2": "E22", "h": "E12"}
        f = alg.hom_from_images(
            kq, u2, [u2.basis_vec(u2.index_of(assign[l])) for l in kq.basis_labels]
        )
        assert alg.is_isomorphism(f)


def complete_dag(n):
    """Arrows v_i -> v_j for all i < j: 2^(n-1) paths from the first vertex alone."""
    return validate_quiver([f"v{i}" for i in range(n)],
                           [(f"a{i}_{j}", f"v{i}", f"v{j}")
                            for i in range(n) for j in range(i + 1, n)])


class TestPathBudget:
    def test_complete_dag_refused_before_enumeration(self):
        q = complete_dag(22)
        start = time.perf_counter()
        for build in (path_algebra, lambda q: path_algebra_vq(vquiver_of_quiver(q))):
            with pytest.raises(FormatError) as err:
                build(q)
            assert str(err.value) == (f"path algebra has over {MAX_TRUNCATION_PATHS} "
                                      "paths (MAX_TRUNCATION_PATHS)")
        assert time.perf_counter() - start < 1

    def test_count_at_the_budget(self):
        # the complete DAG on n vertices has 2^n - 1 paths: 511 fit, 1023 do not
        q = complete_dag(9)
        assert path_algebra(q).dim == count_paths_recursive(q, 9) == 511
        assert path_algebra_vq(vquiver_of_quiver(q)).dim == 511
        with pytest.raises(FormatError, match="path algebra has over"):
            path_algebra(complete_dag(10))
