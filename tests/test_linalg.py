"""Exact linear algebra kernel: canonical subspaces, naturality, currying."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quivalg import linalg
from quivalg.errors import DimensionMismatch, QuivalgError
from quivalg.linalg import (
    Matrix,
    bilinear_image,
    canonicalize,
    curry,
    curry_roundtrip,
    double_dual_naturality,
    dual_map,
    full_subspace,
    products_within,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    uncurry,
    unit_vec,
    vec_add,
    vec_scale,
    zero_subspace,
    zero_vec,
)

from dense_oracles import kernel_intersect, quotient_basis


def sympy_rank(vectors, ambient):
    """Independent rank oracle (sympy's Gaussian elimination)."""
    if not vectors:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in v] for v in vectors]).rank()


small_entries = st.integers(min_value=-4, max_value=4)


def vectors_strategy(max_dim=4, max_count=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.tuples(*[small_entries] * n), min_size=0, max_size=max_count
        ).map(lambda vs: (n, vs))
    )


class TestCanonicalize:
    def test_empty_input_is_zero_subspace(self):
        s = canonicalize([], 3)
        assert s.dim == 0 and s.ambient_dim == 3

    def test_collinear_vectors_collapse(self):
        s = canonicalize([(1, 1), (2, 2)], 2)
        assert s.dim == 1
        assert s.basis.entries == ((Fraction(1), Fraction(1)),)

    def test_rank_matches_independent_oracle(self):
        vectors = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
        # frozen from the sympy elimination oracle
        assert sympy_rank(vectors, 3) == 2
        assert canonicalize(vectors, 3).dim == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            canonicalize([(1, 0), (1, 0, 0)], 2)

    @given(vectors_strategy())
    def test_idempotent(self, data):
        n, vs = data
        s = canonicalize(vs, n)
        again = canonicalize(s.basis_rows(), n)
        assert again == s

    @given(vectors_strategy())
    def test_rank_agrees_with_sympy(self, data):
        n, vs = data
        assert canonicalize(vs, n).dim == sympy_rank(vs, n)


class TestSubspaceAlgebra:
    def test_zero_contained_in_everything(self):
        u = canonicalize([(1, 2, 3)], 3)
        assert subspace_contains(u, zero_subspace(3))

    def test_complementary_axes(self):
        u = canonicalize([(1, 0)], 2)
        w = canonicalize([(0, 1)], 2)
        assert subspace_sum(u, w).dim == 2
        assert subspace_intersect(u, w).dim == 0

    def test_quotient_basis_count(self):
        u = canonicalize([(1, 0, 0), (0, 1, 0)], 3)
        w = canonicalize([(1, 1, 0)], 3)
        completion = quotient_basis(u, w)
        # dim count oracle: dim U - dim W = 1
        assert len(completion) == u.dim - w.dim == 1
        assert canonicalize(list(completion) + list(w.basis_rows()), 3) == u

    def test_quotient_basis_requires_containment(self):
        u = canonicalize([(1, 0)], 2)
        w = canonicalize([(0, 1)], 2)
        with pytest.raises(QuivalgError):
            quotient_basis(u, w)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_sum(zero_subspace(2), zero_subspace(3))

    @given(vectors_strategy(), vectors_strategy())
    @settings(max_examples=60)
    def test_grassmann_identity(self, d1, d2):
        n = max(d1[0], d2[0])
        pad = lambda vs: [tuple(v) + (0,) * (n - len(v)) for v in vs]
        u = canonicalize(pad(d1[1]), n)
        w = canonicalize(pad(d2[1]), n)
        total = subspace_sum(u, w)
        meet = subspace_intersect(u, w)
        assert u.dim + w.dim == total.dim + meet.dim
        assert subspace_contains(total, u) and subspace_contains(total, w)
        assert subspace_contains(u, meet) and subspace_contains(w, meet)

    @given(vectors_strategy(), vectors_strategy())
    @settings(max_examples=40)
    def test_containment_of_sum_forces_containment(self, d1, d2):
        # contains(U, U + W) can only hold when W already sits inside U
        n = max(d1[0], d2[0])
        pad = lambda vs: [tuple(v) + (0,) * (n - len(v)) for v in vs]
        u = canonicalize(pad(d1[1]), n)
        w = canonicalize(pad(d2[1]), n)
        if subspace_contains(u, subspace_sum(u, w)):
            assert subspace_contains(u, w)

    @given(vectors_strategy(), vectors_strategy())
    @settings(max_examples=40)
    def test_quotient_basis_size_property(self, d1, d2):
        n = max(d1[0], d2[0])
        pad = lambda vs: [tuple(v) + (0,) * (n - len(v)) for v in vs]
        w = canonicalize(pad(d2[1]), n)
        u = subspace_sum(canonicalize(pad(d1[1]), n), w)
        completion = quotient_basis(u, w)
        assert len(completion) == u.dim - w.dim


class TestBilinearImage:
    def test_zero_factor_gives_zero(self):
        mult = lambda x, y: tuple(a * b for a, b in zip(x, y))
        u = canonicalize([(1, 0)], 2)
        assert bilinear_image(mult, u, zero_subspace(2)).dim == 0

    def test_truncated_poly_square(self):
        # Q[x]/(x^3) with basis 1, x, x^2: (x) * (x) = span{x^2}
        x = sympy.Symbol("x")
        prod = sympy.rem(sympy.Poly(x, x).as_expr() * x, x**3)
        assert prod == x**2  # polynomial multiplication oracle

        def mult(u, v):
            out = [Fraction(0)] * 3
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    if i + j < 3:
                        out[i + j] += a * b
            return tuple(out)

        ideal = canonicalize([(0, 1, 0), (0, 0, 1)], 3)
        sq = bilinear_image(mult, ideal, ideal)
        assert sq == canonicalize([(0, 0, 1)], 3)


def random_matrix(rng, rows, cols, lo=-2, hi=2):
    return Matrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestDoubleDual:
    def test_zero_matrix(self):
        assert double_dual_naturality(Matrix.zero(2, 3))

    def test_identity(self):
        assert double_dual_naturality(Matrix.identity(4))

    def test_seeded_random(self):
        rng = random.Random(5)
        m = random_matrix(rng, 3, 4)
        # oracle: evaluate both composites on every basis vector
        dd = dual_map(dual_map(m))
        for j in range(4):
            e = unit_vec(4, j)
            assert m.apply(e) == dd.apply(e)
        assert double_dual_naturality(m)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_always_true(self, rows, cols, seed):
        rng = random.Random(seed)
        assert double_dual_naturality(random_matrix(rng, rows, cols))


class TestCurry:
    def test_scalar_case(self):
        m = Matrix(1, 1, [[Fraction(7, 3)]])
        assert curry_roundtrip((1, 1, 1), m)

    def test_zero_map(self):
        assert curry_roundtrip((2, 3, 4), Matrix.zero(4, 6))

    def test_seeded_random(self):
        rng = random.Random(11)
        m = random_matrix(rng, 2, 4)
        assert curry_roundtrip((2, 2, 2), m)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            curry(Matrix.zero(2, 5), (2, 3, 2))

    def test_dimension_count_both_sides(self):
        du, dv, dw = 2, 3, 2
        rng = random.Random(3)
        m = random_matrix(rng, dw, du * dv)
        mats = curry(m, (du, dv, dw))
        assert len(mats) == du and all(n.rows == dw and n.cols == dv for n in mats)
        assert uncurry(mats, (du, dv, dw)) == m

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_roundtrip_property(self, du, dv, dw, seed):
        rng = random.Random(seed)
        m = random_matrix(rng, dw, du * dv, -3, 3)
        assert curry_roundtrip((du, dv, dw), m)


class TestMatrixCore:
    def test_solve_and_inverse(self):
        m = Matrix(2, 2, [[1, 2], [3, 5]])
        assert m.inverse() * m == Matrix.identity(2)
        assert m.apply(m.solve((1, 1))) == (Fraction(1), Fraction(1))

    def test_singular_solve_none(self):
        m = Matrix(2, 2, [[1, 1], [2, 2]])
        assert m.solve((0, 1)) is None
        with pytest.raises(QuivalgError):
            m.inverse()

    def test_nullspace(self):
        m = Matrix(1, 3, [[1, 1, 1]])
        basis = m.nullspace()
        assert len(basis) == 2
        for v in basis:
            assert m.apply(v) == (Fraction(0),)

    def test_zero_shapes(self):
        z = Matrix.zero(0, 3)
        assert z.transpose().rows == 3 and z.transpose().cols == 0
        assert full_subspace(0).dim == 0


def dense_rref(entries, m, n):
    """Test-only oracle: the dense Gauss-Jordan elimination the sparse
    echelon kernel replaced, kept verbatim apart from its signature."""
    rows = [[Fraction(x) for x in r] for r in entries]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


rationals = st.one_of(
    st.just(0), st.just(0), small_entries,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=5):
    """(m, n, rows) with zero rows, duplicate and scaled rows, m > n at times."""
    n = draw(st.integers(min_value=0, max_value=max_cols))
    base = draw(st.lists(st.tuples(*[rationals] * n), max_size=max_rows))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "scaled"]), max_size=3)):
        if kind == "zero" or not base:
            rows.insert(draw(st.integers(0, len(rows))), (0,) * n)
        else:
            src = draw(st.sampled_from(base))
            c = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows.insert(draw(st.integers(0, len(rows))), tuple(c * x for x in src))
    return len(rows), n, rows


def all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


class TestEchelonKernelAgainstDenseOracle:
    @settings(max_examples=150)
    @given(rational_matrices())
    def test_rref_identical(self, data):
        m, n, rows = data
        red, pivots = Matrix(m, n, rows).rref()
        want_rows, want_pivots = dense_rref(rows, m, n)
        assert pivots == want_pivots
        assert red.entries == want_rows
        assert (red.rows, red.cols) == (m, n)
        assert all_fractions(red.entries)

    @settings(max_examples=150)
    @given(rational_matrices())
    def test_canonicalize_rank_nullspace_identical(self, data):
        m, n, rows = data
        want_rows, want_pivots = dense_rref(rows, m, n)
        k = len(want_pivots)
        s = canonicalize(rows, n)
        assert s.basis.entries == want_rows[:k]
        assert s.pivots == want_pivots
        assert all_fractions(s.basis.entries)
        mat = Matrix(m, n, rows)
        assert mat.rank() == k
        want_null = []
        for f in (j for j in range(n) if j not in want_pivots):
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            for i, p in enumerate(want_pivots):
                x[p] = -want_rows[i][f]
            want_null.append(tuple(x))
        null = mat.nullspace()
        assert null == want_null
        assert all_fractions(null)

    @settings(max_examples=100)
    @given(rational_matrices(), st.data())
    def test_solve_and_inverse_identical(self, data, draw):
        m, n, rows = data
        b = draw.draw(st.tuples(*[rationals] * m))
        aug_rows, aug_pivots = dense_rref([r + (c,) for r, c in zip(rows, b)], m, n + 1)
        got = Matrix(m, n, rows).solve(b)
        if n in aug_pivots:
            assert got is None
        else:
            want = [Fraction(0)] * n
            for i, p in enumerate(aug_pivots):
                want[p] = aug_rows[i][n]
            assert got == tuple(want) and all_fractions([got])
        if m == n:
            ident = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
            red, pivots = dense_rref([r + e for r, e in zip(rows, ident)], n, 2 * n)
            if pivots[:n] != tuple(range(n)):
                with pytest.raises(QuivalgError):
                    Matrix(m, n, rows).inverse()
            else:
                inv = Matrix(m, n, rows).inverse()
                assert inv.entries == tuple(r[n:] for r in red)
                assert all_fractions(inv.entries)

    def test_full_rank_stops_early(self, monkeypatch):
        # rank reaches the ambient dimension after two rows; later rows are
        # never reduced, yet the answer is the oracle's
        rows = [(1, 2), (3, 4), (5, 6), (7, 8)]
        reduced = []
        original = linalg._reduce

        def counting(v, *args):
            reduced.append(dict(v))
            return original(v, *args)

        monkeypatch.setattr(linalg, "_reduce", counting)
        s = canonicalize(rows, 2)
        assert len(reduced) == 2
        assert s == full_subspace(2)
        assert s.basis.entries == dense_rref(rows, 4, 2)[0][:2]

    def test_zero_by_n_and_n_by_zero(self):
        assert Matrix(0, 3, []).rref() == (Matrix(0, 3, []), ())
        assert Matrix(2, 0, [(), ()]).rref() == (Matrix(2, 0, [(), ()]), ())
        assert Matrix(0, 3, []).nullspace() == [unit_vec(3, i) for i in range(3)]
        assert canonicalize([], 0).dim == 0

    def test_public_constructor_still_coerces(self):
        m = Matrix(1, 2, [[1, "3/2"]])
        assert all_fractions(m.entries)


def tensor_product(tensor):
    """Test-only bilinear map given by a dense structure tensor T[i][j][k]."""
    n = len(tensor)

    def product(x, y):
        out = [Fraction(0)] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, t in enumerate(tensor[i][j]):
                    if t:
                        out[k] += c * t
        return tuple(out)

    return product


def tensor_strategy(n):
    return st.lists(
        st.lists(st.tuples(*[small_entries] * n), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )


class TestProductsWithin:
    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.just(n), tensor_strategy(n),
            *[st.lists(st.tuples(*[small_entries] * n), max_size=3)] * 3,
            st.booleans(),
        )
    ))
    def test_agrees_with_image_containment(self, data):
        n, tensor, us, ws, ss, absorb = data
        mult = tensor_product(tensor)
        u, w = canonicalize(us, n), canonicalize(ws, n)
        s = canonicalize(ss, n)
        if absorb:  # make containment hold, so both verdicts get exercised
            s = subspace_sum(s, bilinear_image(mult, u, w))
        want = subspace_contains(s, bilinear_image(mult, u, w))
        assert products_within(mult, u, w, s) == want

    def test_stops_at_first_miss(self):
        calls = []

        def mult(x, y):
            calls.append((x, y))
            return x

        full = full_subspace(3)
        assert not products_within(mult, full, full, zero_subspace(3))
        assert len(calls) == 1

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            products_within(lambda x, y: x, full_subspace(2), full_subspace(2),
                            full_subspace(3))


@st.composite
def subspace_pairs(draw):
    """(u, w) in a common Q^n: random, zero, equal, nested or disjoint."""
    n = draw(st.integers(min_value=1, max_value=5))
    vectors = st.lists(st.tuples(*[rationals] * n), max_size=4)
    u = canonicalize(draw(vectors), n)
    w = canonicalize(draw(vectors), n)
    kind = draw(st.sampled_from(["random", "zero", "equal", "nested", "disjoint"]))
    if kind == "zero":
        w = zero_subspace(n)
    elif kind == "equal":
        w = u
    elif kind == "nested":
        w = subspace_sum(u, w)
    elif kind == "disjoint":
        k = draw(st.integers(min_value=0, max_value=n))
        u = canonicalize([v[:k] + (0,) * (n - k) for v in u.basis_rows()], n)
        w = canonicalize([(0,) * k + v[k:] for v in w.basis_rows()], n)
    if draw(st.booleans()):
        u, w = w, u
    return u, w


class TestIntersectAgainstKernelOracle:
    @settings(max_examples=200)
    @given(subspace_pairs())
    def test_identical_rref(self, pair):
        u, w = pair
        rows_before = {p: dict(r) for p, r in w._rows.items()}
        pivots_before = w.pivots
        got = subspace_intersect(u, w)
        want = kernel_intersect(u, w)
        assert got.basis.entries == want.basis.entries
        assert got.pivots == want.pivots
        assert got == want and all_fractions(got.basis.entries)
        assert w._rows == rows_before and w.pivots == pivots_before

    def test_full_with_full(self):
        assert subspace_intersect(full_subspace(3), full_subspace(3)) == full_subspace(3)


# ---------------------------------------------------------------------------
# the sparse product against the dense product it replaced
# ---------------------------------------------------------------------------


def dense_matmul(a, b):
    """Test-only oracle: the dense product that multiplied every entry."""
    cols = [b.col(j) for j in range(b.cols)]
    return tuple(
        tuple(sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols)
        for r in a.entries
    )


@st.composite
def product_pairs(draw):
    """(a, b) with a.cols == b.rows: 0 x k, k x 0, rectangular, mostly zero
    or dense Fraction entries."""
    shape = draw(st.sampled_from(["empty-rows", "empty-cols", "empty-inner", "any"]))
    m, k, n = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    if shape == "empty-rows":
        m = 0
    elif shape == "empty-cols":
        n = 0
    elif shape == "empty-inner":
        k = 0
    fill = draw(st.sampled_from(["mostly-zero", "dense", "mixed"]))
    entries = {
        "mostly-zero": st.one_of(*[st.just(0)] * 6, st.integers(-2, 2)),
        "dense": st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        "mixed": rationals,
    }[fill]

    def matrix(rows, cols):
        return Matrix(rows, cols, draw(st.lists(
            st.tuples(*[entries] * cols), min_size=rows, max_size=rows)))

    return matrix(m, k), matrix(k, n)


class TestSparseProductAgainstDenseOracle:
    @settings(max_examples=200)
    @given(product_pairs())
    def test_identical_entries_and_hash(self, pair):
        a, b = pair
        got = a * b
        want = Matrix(a.rows, b.cols, dense_matmul(a, b))
        assert got.entries == want.entries
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert got == want and hash(got) == hash(want)
        assert all_fractions(got.entries)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zero(2, 3) * Matrix.zero(2, 3)
