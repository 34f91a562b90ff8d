"""Structure-constant algebras: radicals, predicates, quotients, idempotents."""

import dataclasses
from fractions import Fraction

import pytest

from quivalg import algebra as alg
from quivalg import bound, corpus
from quivalg.errors import NotBasicError, NotSplitOverQQ, QuivalgError, ValidationError
from quivalg.linalg import canonicalize, is_zero_vec, unit_vec
from quivalg.quiver import path_algebra, validate_quiver


class TestValidation:
    def test_base_field(self):
        a = alg.make_algebra(["1"], {(0, 0): {0: 1}}, [1])
        assert a.dim == 1

    def test_dual_numbers(self):
        a = alg.truncated_poly(2)
        assert a.dim == 2
        x = a.index_of("x")
        assert a.mul_basis(x, x) == {}

    def test_broken_associativity(self):
        # e2*e2 = e2 but (e2 e2) e2 != e2 (e2 e2) after corruption
        table = {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
            (1, 1): {0: 1, 1: 1},
        }
        alg.make_algebra(["1", "t"], table, [1, 0])  # fine: t^2 = 1 + t
        bad = dict(table)
        bad[(1, 1)] = {0: 1}
        # t^2 = 1 makes (t t) t = t but t (t t) = t, still associative; corrupt
        # a unital-law entry instead to hit the unit error branch
        worse = dict(table)
        worse[(0, 1)] = {0: 1}
        with pytest.raises(ValidationError):
            alg.make_algebra(["1", "t"], worse, [1, 0])

    def test_nonassociative_table_rejected(self):
        # x*x = y, x*y = z, y*x = 0: (xx)x = z but x(xy)... build and expect failure
        table = {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
            (0, 2): {2: 1}, (2, 0): {2: 1}, (0, 3): {3: 1}, (3, 0): {3: 1},
            (1, 1): {2: 1}, (1, 2): {3: 1},
        }
        with pytest.raises(ValidationError) as err:
            alg.make_algebra(["1", "x", "y", "z"], table, [1, 0, 0, 0])
        assert "associativity" in str(err.value)

    def test_unit_failure(self):
        with pytest.raises(ValidationError) as err:
            alg.make_algebra(["e"], {(0, 0): {0: 2}}, [1])
        assert "unit" in str(err.value) or "associativity" in str(err.value)


class TestBuilders:
    def test_upper_triangular_dims(self):
        assert alg.upper_triangular(2).dim == 3
        assert alg.upper_triangular(4).dim == 10

    def test_matrix_dims(self):
        assert alg.matrix_algebra(2).dim == 4
        assert alg.matrix_algebra(3).dim == 9

    def test_group_algebra_cyclic(self):
        a = alg.group_algebra(alg.cyclic_group_table(3))
        assert a.dim == 3 and alg.is_commutative(a)

    def test_bad_cayley_table(self):
        with pytest.raises(ValidationError):
            alg.group_algebra([[0, 1], [0, 0]])  # no inverses / identity broken

    def test_direct_sum(self):
        a = alg.direct_sum(alg.matrix_algebra(2), alg.truncated_poly(2))
        assert a.dim == 6
        assert not alg.is_connected(a)

    def test_builder_dispatch(self):
        assert alg.build("upper-triangular", 3).dim == 6
        assert alg.build("truncated_poly", 4).dim == 4


class TestRadical:
    def test_u2(self):
        u2 = alg.upper_triangular(2)
        filt = alg.radical(u2)
        assert filt.radical == canonicalize([u2.basis_vec(u2.index_of("E12"))], 3)
        assert filt.power(2).dim == 0

    def test_un_strict_triangle_dims(self):
        for n in range(2, 6):
            filt = alg.radical(alg.upper_triangular(n))
            assert filt.radical.dim == n * (n - 1) // 2

    def test_truncated_poly_powers(self):
        for m in range(2, 7):
            a = alg.truncated_poly(m)
            filt = alg.radical(a)
            assert filt.radical.dim == m - 1
            assert filt.nilpotence_index == m

    def test_group_algebras_semisimple(self):
        for table in (alg.cyclic_group_table(2), alg.cyclic_group_table(3),
                      alg.cyclic_group_table(4), alg.symmetric_group_table(3)[0]):
            assert alg.is_semisimple(alg.group_algebra(table))

    def test_radical_of_quotient_vanishes(self):
        for _, a in corpus.corpus_basic():
            b, _ = alg.semisimple_quotient(a)
            assert alg.is_semisimple(b)

    def test_arrow_ideal_oracle(self):
        for _, q in corpus.corpus_quivers(seed=7, count=8):
            kq = path_algebra(q)
            assert alg.radical(kq).radical == bound.arrow_ideal(kq)


class TestFrozenMemo:
    def test_rebinding_the_table_is_refused(self):
        u2 = alg.upper_triangular(2)
        alg.radical(u2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            u2.mult = alg.upper_triangular(1).mult
        with pytest.raises(dataclasses.FrozenInstanceError):
            u2.unit = (Fraction(1),)

    def test_memoized_answers_are_shared(self):
        u3 = alg.upper_triangular(3)
        assert alg.radical(u3) is alg.radical(u3)
        assert alg.semisimple_quotient(u3) is alg.semisimple_quotient(u3)

    def test_memo_is_per_object(self):
        first, second = alg.upper_triangular(2), alg.upper_triangular(2)
        assert alg.radical(first) is not alg.radical(second)
        assert alg.radical(first).algebra is first

    def test_path_index(self):
        q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        kq = path_algebra(q)
        index = alg.path_index(kq)
        assert index is alg.path_index(kq)
        assert [index[(p.start, p.arrows)] for p in kq.paths] == list(range(kq.dim))
        assert kq.basis_labels[index[("1", ("a", "b"))]] == "a*b"
        with pytest.raises(QuivalgError):
            alg.path_index(alg.upper_triangular(2))


class TestPredicates:
    def test_semisimple_sums(self):
        a = alg.direct_sum(alg.matrix_algebra(2), alg.matrix_algebra(3))
        p = alg.predicates(a)
        assert p.semisimple and not p.basic and not p.connected

    def test_un_basic(self):
        p = alg.predicates(alg.upper_triangular(3))
        assert p.basic and p.connected and not p.semisimple

    def test_matrix_not_basic(self):
        p = alg.predicates(alg.matrix_algebra(2))
        assert p.semisimple and not p.basic and p.connected

    def test_z3_not_split(self):
        a = alg.group_algebra(alg.cyclic_group_table(3))
        with pytest.raises(NotSplitOverQQ):
            alg.is_basic(a)
        # connectedness still decidable: Q[Z/3] = Q x Q(w), two factors
        assert not alg.is_connected(a)

    def test_z2_splits(self):
        a = alg.group_algebra(alg.cyclic_group_table(2))
        assert alg.is_basic(a) and not alg.is_connected(a)


class TestQuotient:
    def test_zero_ideal(self):
        a = alg.upper_triangular(2)
        b, proj = alg.quotient_algebra(a, canonicalize([], a.dim))
        assert b.dim == a.dim
        assert proj.matrix.rank() == a.dim

    def test_truncated_poly_mod_x2(self):
        a = alg.truncated_poly(3)
        ideal = canonicalize([a.basis_vec(2)], 3)
        b, _ = alg.quotient_algebra(a, ideal)
        # structure-constant oracle: must match Q[x]/(x^2) exactly
        assert alg.same_table(b, alg.truncated_poly(2))

    def test_path_algebra_mod_arrow(self):
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        ideal = canonicalize([kq.basis_vec(kq.index_of("h"))], 3)
        b, _ = alg.quotient_algebra(kq, ideal)
        q2 = path_algebra(validate_quiver(["1", "2"], []))
        assert alg.same_table(b, q2)

    def test_non_ideal_rejected(self):
        a = alg.upper_triangular(2)
        not_ideal = canonicalize([a.basis_vec(a.index_of("E11"))], 3)
        with pytest.raises(ValidationError):
            alg.quotient_algebra(a, not_ideal)

    def test_whole_algebra_rejected(self):
        a = alg.truncated_poly(2)
        with pytest.raises(ValidationError):
            alg.quotient_algebra(a, a.full_space())


class TestHoms:
    def test_identity(self):
        a = alg.upper_triangular(3)
        f = alg.validate_hom(alg.identity_hom(a))
        assert f.surjective

    def test_projection_maps_radical_onto_radical(self):
        a = alg.truncated_poly(4)
        ideal = alg.radical(a).power(2)
        _, proj = alg.quotient_algebra(a, ideal)
        alg.validate_hom(proj)  # raises if f(J(A)) != J(B)

    def test_not_multiplicative_detected(self):
        a = alg.truncated_poly(2)
        with pytest.raises(ValidationError):
            alg.hom_from_images(a, a, [[1, 0], [1, 1]])  # x -> 1 + x breaks x^2 = 0

    def test_not_unital_detected(self):
        a = alg.truncated_poly(2)
        with pytest.raises(ValidationError):
            alg.hom_from_images(a, a, [[0, 0], [0, 0]])

    def test_surjections_on_corpus_respect_radical(self):
        # every surjective hom produced by the toolkit asserts f(J) = J internally
        for _, a in corpus.corpus_basic()[:6]:
            j = alg.radical(a).radical
            if j.dim == 0:
                continue
            _, proj = alg.quotient_algebra(a, j)
            alg.validate_hom(proj)


class TestIdempotents:
    def test_product_field_case(self):
        a = corpus.rational_n(3)
        idems = alg.lift_idempotents(a)
        assert idems.idempotents == tuple(unit_vec(3, i) for i in range(3))

    def test_u2_lifting(self):
        u2 = alg.upper_triangular(2)
        e, f = alg.lift_idempotents(u2).idempotents
        assert u2.mul_vec(e, e) == e and u2.mul_vec(f, f) == f
        assert is_zero_vec(u2.mul_vec(e, f)) and is_zero_vec(u2.mul_vec(f, e))
        assert tuple(x + y for x, y in zip(e, f)) == u2.unit

    def test_truncated_poly_single(self):
        a = alg.truncated_poly(5)
        assert alg.lift_idempotents(a).idempotents == (a.unit,)

    def test_corpus_invariants(self):
        for _, a in corpus.corpus_basic():
            idems = alg.lift_idempotents(a).idempotents
            total = a.unit
            for e in idems:
                assert a.mul_vec(e, e) == e
            acc = tuple(Fraction(0) for _ in range(a.dim))
            for e in idems:
                acc = tuple(x + y for x, y in zip(acc, e))
            assert acc == total

    def test_not_basic_rejected(self):
        with pytest.raises((NotBasicError, NotSplitOverQQ)):
            alg.lift_idempotents(alg.matrix_algebra(2))
