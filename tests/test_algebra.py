"""Structure-constant algebras: radicals, predicates, quotients, idempotents."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import quivalg
from quivalg import algebra as alg
from quivalg import adjunction, bound, corpus, formats
from quivalg.cli import main
from quivalg.errors import (
    CyclicInput, DimensionMismatch, NotBasicError, NotSplitOverQQ, QuivalgError,
    ValidationError,
)
from quivalg.linalg import (
    Matrix, canonicalize, is_zero_vec, products_within, unit_vec,
)
from quivalg.quiver import enumerate_paths, is_acyclic, path_algebra, validate_quiver

from dense_oracles import (
    check_lifted_idempotents, dense_upper_triangular, fraction_mul_vec, full_basis_center,
    inverse_quotient, lu_matrix, transport,
)


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

    def test_builder_dispatch(self, capsys):
        # the CLI is the one dispatch from builder names to builders
        for argv, want in ((["upper-triangular", "3"], alg.upper_triangular(3)),
                           (["truncated_poly", "4"], alg.truncated_poly(4))):
            assert main(["algebra", "build", *argv]) == 0
            built = formats.parse_algebra(capsys.readouterr().out)
            assert alg.same_table(built, want) and built.basis_labels == want.basis_labels


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
        assert_maps_radical_onto_radical(alg.validate_hom(proj))

    def test_not_multiplicative_detected(self):
        a = alg.truncated_poly(2)
        with pytest.raises(ValidationError):
            alg.hom_from_images(a, a, [[1, 0], [1, 1]])  # x -> 1 + x breaks x^2 = 0

    def test_not_unital_detected(self):
        a = alg.truncated_poly(2)
        with pytest.raises(ValidationError):
            alg.hom_from_images(a, a, [[0, 0], [0, 0]])

    def test_surjections_on_corpus_respect_radical(self):
        # validate_hom does not check f(J(A)) = J(B), which every surjection
        # satisfies; the identity stays here as an oracle on the radicals
        for _, a in corpus.corpus_basic():
            for s in alg.radical(a).powers[1:]:
                if s.dim:
                    _, proj = alg.quotient_algebra(a, s)
                    assert_maps_radical_onto_radical(alg.validate_hom(proj))
            try:
                eps = adjunction.counit(a).representative
            except CyclicInput:
                continue
            assert_maps_radical_onto_radical(eps)
            assert_maps_radical_onto_radical(adjunction.present_as_bound_quiver(a).isomorphism)


def assert_maps_radical_onto_radical(f):
    """f is surjective and f(J(A)) = J(B), both radicals from the trace form."""
    assert f.surjective
    ja, jb = alg.radical(f.source).radical, alg.radical(f.target).radical
    assert canonicalize([f.apply(r) for r in ja.basis_rows()], f.target.dim) == jb


def assert_quotient_passes_full_checks(a, ideal):
    """The checks quotient_algebra skips still hold on what it returns."""
    quotient, proj = alg.quotient_algebra(a, ideal)
    assert proj.surjective
    alg.validate_algebra(quotient)
    alg.validate_hom(proj)  # multiplicative and unital
    assert proj.surjective  # now recomputed from the rank
    assert_maps_radical_onto_radical(proj)
    return quotient


def assert_radical_powers_are_ideals(a):
    full = a.full_space()
    for s in alg.radical(a).powers:
        assert products_within(a.mul_vec, full, s, s)
        assert products_within(a.mul_vec, s, full, s)


class TestSkippedChecksAsOracles:
    """radical checks only J and quotient_algebra trusts its ideal and kernel
    checks; the checks they no longer run must still pass on their output."""

    def test_corpus_radical_powers_and_quotients(self):
        for _, a in corpus.corpus_basic():
            assert_radical_powers_are_ideals(a)
            for s in alg.radical(a).powers[1:]:
                assert_quotient_passes_full_checks(a, s)
            # semisimple_quotient trusts radical's ideal proof
            assert_same_quotient(alg.semisimple_quotient(a),
                                 alg.quotient_algebra(a, alg.radical(a).radical))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(1, 4),
        st.lists(st.lists(st.integers(-2, 2), min_size=16, max_size=16),
                 min_size=1, max_size=2),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ideals_of_small_path_algebras(self, seed, n, m, coeffs, in_arrow_ideal):
        q = corpus.random_acyclic_quiver(random.Random(seed), n, m)
        t = path_algebra(q)
        gens = [(c + [0] * t.dim)[: t.dim] for c in coeffs]
        if in_arrow_ideal:
            gens = [[x if p.length else 0 for p, x in zip(t.paths, g)] for g in gens]
        ideal = bound.ideal_closure(t, gens)
        assert_radical_powers_are_ideals(t)
        if ideal.dim == t.dim:
            with pytest.raises(ValidationError):
                alg.quotient_algebra(t, ideal)
            return
        assert_radical_powers_are_ideals(assert_quotient_passes_full_checks(t, ideal))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(2, 5),
        st.lists(st.lists(st.integers(-2, 2), min_size=12, max_size=12),
                 min_size=1, max_size=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_algebras_of_small_quivers(self, seed, n, m, coeffs):
        # bound_algebra trusts ideal_closure instead of quotient_algebra's check
        q = corpus.random_acyclic_quiver(random.Random(seed), n, m)
        long_paths = [p for p in path_algebra(q).paths if p.length >= 2]
        assume(long_paths)
        relations = [[(c, p.arrows) for c, p in zip(row, long_paths) if c]
                     for row in coeffs]
        r = bound.relation_set(q, [rel for rel in relations if rel])
        quotient, proj = bound.bound_algebra(r)
        assert proj.source.dim - quotient.dim == bound.ideal_closure(
            proj.source, [bound.relation_vector(proj.source, rel) for rel in r.relations]
        ).dim
        alg.validate_algebra(quotient)
        alg.validate_hom(proj)
        assert proj.surjective
        assert_radical_powers_are_ideals(quotient)


# ---------------------------------------------------------------------------
# differential tests: the integer table against the Fraction loops it replaced
# ---------------------------------------------------------------------------


def fraction_validate_algebra(a):
    """validate_algebra as Fraction loops: unit laws, then (ij)k = i(jk)."""
    n = a.dim
    for i in range(n):
        e = a.basis_vec(i)
        if fraction_mul_vec(a, a.unit, e) != e or fraction_mul_vec(a, e, a.unit) != e:
            raise ValidationError(
                f"unit law fails on basis element {a.basis_labels[i]}", witness=i
            )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [Fraction(0)] * n
                for l, c in a.mul_basis(i, j).items():
                    for m, t in a.mul_basis(l, k).items():
                        lhs[m] += c * t
                rhs = [Fraction(0)] * n
                for l, c in a.mul_basis(j, k).items():
                    for m, t in a.mul_basis(i, l).items():
                        rhs[m] += c * t
                if lhs != rhs:
                    raise ValidationError(
                        "associativity fails on "
                        f"({a.basis_labels[i]}, {a.basis_labels[j]}, {a.basis_labels[k]})",
                        witness=(i, j, k),
                    )
    return a


def fraction_validate_hom(f):
    """validate_hom with f(e_i e_j) = f(e_i) f(e_j) checked in Fractions."""
    a, b = f.source, f.target
    if f.apply(a.unit) != b.unit:
        raise ValidationError("homomorphism does not preserve the unit")
    cols = [f.matrix.col(i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = [Fraction(0)] * b.dim
            for k, c in a.mul_basis(i, j).items():
                for m, t in enumerate(cols[k]):
                    lhs[m] += c * t
            if tuple(lhs) != fraction_mul_vec(b, cols[i], cols[j]):
                raise ValidationError(
                    f"not multiplicative on ({a.basis_labels[i]}, {a.basis_labels[j]})",
                    witness=(i, j),
                )
    f.surjective = f.matrix.rank() == b.dim
    return f


def outcome(check, obj):
    """What a check does to obj: None when it passes, else the error it raises."""
    try:
        check(obj)
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness
    return None


SMALL_ALGEBRAS = [
    alg.upper_triangular(2), alg.upper_triangular(3), alg.truncated_poly(3),
    alg.group_algebra(alg.cyclic_group_table(3)), alg.matrix_algebra(2),
    corpus.c_subalgebra_u3(),
]
fractions_ = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
nonzero_fractions = fractions_.filter(bool)
# mostly zero entries keep some basis elements split, so a non-split factor
# can first show up after the blocks are refined; in a quotient they leave
# products with a few terms, whose projections fill entries out of key order
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2])


def fixing_the_unit(a, p):
    """p with the columns on the unit's support replaced by unit vectors.

    For a unit that is a sum of basis vectors, the transport keeps it
    sparse, so a table broken off the support passes the unit laws.
    """
    n = a.dim
    return Matrix(n, n, [[(1 if r == c else 0) if a.unit[c] else x
                          for c, x in enumerate(row)] for r, row in enumerate(p.entries)])


@st.composite
def transported_algebras(draw, entries=fractions_):
    a = draw(st.sampled_from(SMALL_ALGEBRAS))
    n = a.dim
    size = n * (n - 1) // 2
    p = lu_matrix(
        n,
        draw(st.lists(entries, min_size=size, max_size=size)),
        draw(st.lists(entries, min_size=size, max_size=size)),
        draw(st.lists(nonzero_fractions, min_size=n, max_size=n)),
    )
    if draw(st.booleans()):
        p = fixing_the_unit(a, p)
        assume(p.rank() == n)
    return a, p, transport(a, p)


def broken_in_one_entry(a, i, j, k, delta):
    """a with delta added to the coefficient of e_k in e_i * e_j, unvalidated.

    Path bookkeeping is kept, so generating_set still reads its lookups.
    """
    table = {key: dict(d) for key, d in a.mult.items()}
    entry = table.setdefault((i, j), {})
    entry[k] = entry.get(k, Fraction(0)) + delta
    if not entry[k]:
        del entry[k]
    if not entry:
        del table[(i, j)]
    return dataclasses.replace(a, mult=table)


class TestIntegerTableAgainstFractionLoops:
    def test_fractional_transport_has_a_denominator(self):
        a = alg.upper_triangular(2)
        p = Matrix(3, 3, [[1, Fraction(1, 2), 0], [0, 1, Fraction(2, 3)], [0, 0, 3]])
        b = transport(a, p)
        assert b._den > 1
        for (i, j), d in b.mult.items():
            for k, c in d.items():
                assert Fraction(b._int_mult[(i, j)][k], b._den) == c
        assert alg.validate_algebra(b) is b

    @given(transported_algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul_vec(self, case, data):
        _, _, b = case
        vectors = st.lists(fractions_, min_size=b.dim, max_size=b.dim)
        x, y = data.draw(vectors), data.draw(vectors)
        product = b.mul_vec(x, y)
        assert product == fraction_mul_vec(b, x, y)
        assert all(type(c) is Fraction for c in product)

    @given(transported_algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_validate_algebra(self, case, data):
        _, _, b = case
        assert outcome(alg.validate_algebra, b) is None
        assert outcome(fraction_validate_algebra, b) is None
        n = b.dim
        # entries off the unit's support leave the unit laws to associativity
        off_unit = [x for x in range(n) if not b.unit[x]] or list(range(n))
        i, j = (data.draw(st.sampled_from(off_unit)) for _ in range(2))
        k = data.draw(st.integers(0, n - 1))
        broken = broken_in_one_entry(b, i, j, k, data.draw(nonzero_fractions))
        expected = outcome(fraction_validate_algebra, broken)
        assert outcome(alg.validate_algebra, broken) == expected
        x = data.draw(st.lists(fractions_, min_size=n, max_size=n))
        assert broken.mul_vec(x, x) == fraction_mul_vec(broken, x, x)

    @given(transported_algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_validate_hom(self, case, data):
        a, p, b = case
        iso = alg.AlgebraHom(b, a, p)
        assert outcome(alg.validate_hom, iso) is None and iso.surjective
        assert outcome(fraction_validate_hom, alg.AlgebraHom(b, a, p)) is None
        # p + delta * e_r w^T with w orthogonal to the unit coordinates keeps
        # the unit, so the multiplicativity loop decides
        n, u = b.dim, b.unit
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        d = next(i for i, x in enumerate(u) if x)
        if c == d:
            c = (d + 1) % n
        w = [Fraction(0)] * n
        w[c] += 1
        w[d] -= u[c] / u[d]
        delta = data.draw(nonzero_fractions)
        broken = Matrix(n, n, [[x + (delta * w[col] if row == r else 0)
                                for col, x in enumerate(p_row)]
                               for row, p_row in enumerate(p.entries)])
        expected = outcome(fraction_validate_hom, alg.AlgebraHom(b, a, broken))
        assert outcome(alg.validate_hom, alg.AlgebraHom(b, a, broken)) == expected

    def test_broken_entry_witnesses(self):
        a = alg.upper_triangular(3)
        p = lu_matrix(6, [Fraction(k, 3) for k in range(15)],
                      [Fraction(1, k + 2) for k in range(15)], [1, 2, 3, 4, 5, 6])
        b = alg.validate_algebra(transport(a, fixing_the_unit(a, p)))
        assert b._den > 1 and b.unit == a.unit
        e12, e13, e23 = (a.index_of(l) for l in ("E12", "E13", "E23"))
        for i, j, k in ((e12, e23, e13), (e23, e12, e12), (e13, e13, e23)):
            broken = broken_in_one_entry(b, i, j, k, Fraction(5, 7))
            expected = outcome(fraction_validate_algebra, broken)
            assert expected[1].startswith("associativity fails")
            assert outcome(alg.validate_algebra, broken) == expected


class TestDenseUpperTriangular:
    def test_dense_u4_presents_like_u4(self):
        u4 = alg.upper_triangular(4)
        rng = random.Random(4)
        while True:
            p = Matrix(10, 10, [[rng.randint(-2, 2) for _ in range(10)] for _ in range(10)])
            if p.rank() == 10:
                break
        dense = alg.validate_algebra(transport(u4, p))
        assert dense._den > 1
        filt = alg.radical(dense)
        assert [s.dim for s in filt.powers] == [10, 6, 3, 1, 0]
        pres = adjunction.present_as_bound_quiver(dense)
        assert pres.admissible_m == 4 and pres.kernel.dim == 0
        vq = pres.gabriel.vquiver
        assert len(vq.vertices) == 4 and vq.total_edge_dim() == 3
        assert alg.is_isomorphism(pres.isomorphism)


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
        rng = random.Random(5)
        cases = list(corpus.corpus_basic())
        cases += [(f"dense-U{n}", dense_upper_triangular(n, rng)) for n in (3, 4, 5)]
        for _, a in cases:
            idems = alg.lift_idempotents(a).idempotents
            check_lifted_idempotents(a, idems)
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


# ---------------------------------------------------------------------------
# generator proofs: checks on S = vertices and arrows against full scans
# ---------------------------------------------------------------------------


@st.composite
def cyclic_truncations(draw, max_lens=st.integers(2, 4), max_dim=24):
    """kQ truncated at a random maxlen, for a small quiver with a cycle."""
    n = draw(st.integers(1, 2))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=3))
    q = validate_quiver([str(v) for v in range(n)],
                        [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)])
    assume(not is_acyclic(q))
    t = bound.truncated_path_algebra(q, draw(max_lens))
    assume(t.dim <= max_dim)
    return t


def lookup_entries(t):
    """Each longer path's entry (first arrow, rest), which generating_set reads."""
    index = alg.path_index(t)
    entries = {}
    for k, p in enumerate(t.paths):
        if p.length >= 2:
            first = index[(p.start, p.arrows[:1])]
            entries[k] = (first, index[(t.paths[first].end, p.arrows[1:])])
    return entries


def generator_labels(a):
    return [a.basis_labels[g] for g in alg.generating_set(a)]


def two_loop_truncation(max_len):
    return bound.truncated_path_algebra(
        validate_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")]), max_len)


class TestGeneratorProofs:
    def test_vertices_and_arrows_generate_path_algebras(self):
        a3 = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        assert generator_labels(path_algebra(a3)) == ["p_1", "p_2", "p_3", "a", "b"]
        assert generator_labels(two_loop_truncation(3)) == ["p_1", "a", "b"]
        monomial = bound.relation_set(
            two_loop_truncation(3).quiver,
            [[(1, ("a", "a"))], [(1, ("b", "b"))], [(1, ("a", "b"))]], max_len=3)
        assert generator_labels(bound.bound_algebra(monomial)[0]) == ["p_1", "a", "b"]

    def test_non_monomial_bound_quotient(self):
        # the RREF pivots of an ideal are closed under multiplying by paths, so
        # a kept path's tail is kept and every lookup of kQ/I holds
        square, _ = corpus.commutative_square_algebra()
        assert "a*b" in square.basis_labels and "c*d" not in square.basis_labels
        assert generator_labels(square) == [
            "p_1", "p_2", "p_3", "p_4", "a", "b", "c", "d"]

    def test_whole_basis_without_paths_or_with_a_failed_lookup(self):
        for n in (2, 4):
            u = alg.upper_triangular(n)
            assert alg.generating_set(u) == tuple(range(u.dim))
        t = two_loop_truncation(3)
        a, ab = t.index_of("a"), t.index_of("a*b")
        first, rest = lookup_entries(t)[ab]
        assert (first, rest) == (a, t.index_of("b"))
        broken = broken_in_one_entry(t, first, rest, ab, Fraction(1))
        assert alg.generating_set(broken) == tuple(range(t.dim))

    def test_witness_with_a_middle_factor_off_the_generators(self):
        # the first failing triple in scan order has middle b*a, which is not
        # in S: the S scan finds a failure and the full rerun names this one
        t = two_loop_truncation(3)
        ba, a, p1 = (t.index_of(l) for l in ("b*a", "a", "p_1"))
        broken = broken_in_one_entry(t, ba, a, p1, Fraction(1))
        assert alg.generating_set(broken) == alg.generating_set(t)
        expected = outcome(fraction_validate_algebra, broken)
        assert expected[2] == (a, ba, a)
        assert outcome(alg.validate_algebra, broken) == expected

    @given(cyclic_truncations(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_validate_algebra_on_perturbed_truncations(self, t, data):
        n = t.dim
        lookups = list(lookup_entries(t).values())
        if data.draw(st.booleans()):
            i, j = data.draw(st.sampled_from(lookups))
        else:
            # off the unit's support the unit laws hold, so S decides alone
            off_unit = [x for x in range(n) if not t.unit[x]]
            i, j = (data.draw(st.sampled_from(off_unit)) for _ in range(2))
        k = data.draw(st.integers(0, n - 1))
        broken = broken_in_one_entry(t, i, j, k, data.draw(nonzero_fractions))
        assert (alg.generating_set(broken) == tuple(range(n))) == ((i, j) in lookups)
        expected = outcome(fraction_validate_algebra, broken)
        assert outcome(alg.validate_algebra, broken) == expected

    @given(cyclic_truncations(max_lens=st.integers(3, 4)), st.data())
    @settings(max_examples=30, deadline=None)
    def test_validate_hom_on_maps_multiplicative_on_generators(self, t, data):
        # f moves one path of length >= 3 and products of two generators are
        # shorter, so f is multiplicative on S x S but not on all of A
        n = t.dim
        row = data.draw(st.integers(0, n - 1))
        col = data.draw(st.sampled_from([k for k, p in enumerate(t.paths) if p.length >= 3]))
        delta = data.draw(nonzero_fractions)
        m = Matrix(n, n, [[int(r == c) + (delta if (r, c) == (row, col) else 0)
                           for c in range(n)] for r in range(n)])
        gens = [t.basis_vec(g) for g in alg.generating_set(t)]
        assert all(m.apply(t.mul_vec(g, h)) == t.mul_vec(m.apply(g), m.apply(h))
                   for g in gens for h in gens)
        expected = outcome(fraction_validate_hom, alg.AlgebraHom(t, t, m))
        assert expected is not None
        assert outcome(alg.validate_hom, alg.AlgebraHom(t, t, m)) == expected

    @given(cyclic_truncations(), st.sampled_from(["first", "last", "top", "any"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ideal_checks_against_full_products(self, t, kind, data):
        # the paths that start (end) with one arrow span a right (left) ideal;
        # with one vertex every subspace of the longest paths is an ideal
        a = t.quiver.arrows[0][0]
        longest = max(p.length for p in t.paths)
        if kind in ("first", "last"):
            at = 0 if kind == "first" else -1
            s = canonicalize([t.basis_vec(k) for k, p in enumerate(t.paths)
                              if p.length and p.arrows[at] == a], t.dim)
        else:
            support = [k for k, p in enumerate(t.paths) if p.length == longest or kind == "any"]
            coeffs = st.lists(st.integers(-1, 1), min_size=len(support), max_size=len(support))
            vectors = []
            for row in data.draw(st.lists(coeffs, min_size=1, max_size=2)):
                v = [0] * t.dim
                for k, c in zip(support, row):
                    v[k] = c
                vectors.append(v)
            s = canonicalize(vectors, t.dim)
        full = t.full_space()
        is_ideal = (products_within(t.mul_vec, full, s, s)
                    and products_within(t.mul_vec, s, full, s))
        try:
            alg.quotient_algebra(t, s)
        except ValidationError:
            assert not is_ideal
        else:
            assert is_ideal
        assert_radical_powers_are_ideals(t)


# ---------------------------------------------------------------------------
# quotients: one right-to-left echelon against the inverse-matrix construction
# ---------------------------------------------------------------------------


def assert_same_quotient(got, expected):
    """Literal equality, down to the key order of the table and of each entry."""
    (b, f), (c, g) = got, expected
    assert (b.dim, b.basis_labels, b.unit, b.paths) == (c.dim, c.basis_labels, c.unit, c.paths)
    assert b.quiver is c.quiver
    assert [(key, list(d.items())) for key, d in b.mult.items()] == [
        (key, list(d.items())) for key, d in c.mult.items()]
    assert all(type(x) is Fraction for x in b.unit)
    assert (f.source, f.target is b, f.surjective) == (g.source, True, g.surjective)
    assert f.matrix == g.matrix and f.section == g.section


def proper_radical_powers(a):
    return [s for s in alg.radical(a).powers[1:] if s.dim < a.dim]


def admissible_relations(t, data):
    """Up to two random relations on the truncation t, plus every path of
    length maxlen, so R_Q^maxlen <= I and the set is admissible."""
    longest = max(p.length for p in t.paths)
    long_paths = [p for p in t.paths if p.length >= 2]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(long_paths), max_size=len(long_paths))
    relations = [[(c, p.arrows) for c, p in zip(row, long_paths) if c]
                 for row in data.draw(st.lists(coeffs, max_size=2))]
    relations = [rel for rel in relations if rel] + [
        [(1, p.arrows)] for p in t.paths if p.length == longest]
    return bound.relation_set(t.quiver, relations, max_len=longest)


BASIC = corpus.corpus_basic()


class TestQuotientAgainstInverse:
    def test_corpus_radical_powers(self):
        for _, a in BASIC:
            for s in proper_radical_powers(a):
                assert_same_quotient(alg.quotient_algebra(a, s), inverse_quotient(a, s))

    @given(st.sampled_from([fractions_, sparse_entries]).flatmap(transported_algebras))
    @settings(max_examples=60, deadline=None)
    def test_dense_transports(self, case):
        _, _, b = case
        for s in proper_radical_powers(b):
            assert_same_quotient(alg.quotient_algebra(b, s), inverse_quotient(b, s))
        assert_same_quotient(alg.semisimple_quotient(b),
                             alg.quotient_algebra(b, alg.radical(b).radical))

    @given(st.sampled_from(BASIC), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ideals_generated_inside_j_squared(self, case, data):
        _, a = case
        j2 = alg.radical(a).power(2)
        assume(j2.dim)
        coeffs = st.lists(st.integers(-2, 2), min_size=j2.dim, max_size=j2.dim)
        gens = [tuple(sum((c * row[k] for c, row in zip(cs, j2.basis_rows())), Fraction(0))
                      for k in range(a.dim))
                for cs in data.draw(st.lists(coeffs, min_size=1, max_size=2))]
        ideal = bound.ideal_closure(a, gens)
        assert_same_quotient(alg.quotient_algebra(a, ideal), inverse_quotient(a, ideal))

    @given(cyclic_truncations(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bound_algebras_of_cyclic_truncations(self, t, data):
        r = admissible_relations(t, data)
        got = bound.bound_algebra(r)
        source = got[1].source
        ideal = bound.ideal_closure(
            source, [bound.relation_vector(source, rel) for rel in r.relations])
        assert_same_quotient(got, inverse_quotient(source, ideal))

    def test_no_inverse_or_nullspace(self, monkeypatch):
        u4 = alg.upper_triangular(4)
        j = alg.radical(u4).radical  # memoized before the patch

        def refuse(*_):
            raise AssertionError("quotients need no inverse and no nullspace")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        monkeypatch.setattr(Matrix, "nullspace", refuse)
        b, proj = alg.quotient_algebra(u4, j)
        assert b.dim == 4 and proj.surjective


def test_center_from_generators_matches_the_full_basis_stack():
    kq = path_algebra(validate_quiver(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                               ("d", "1", "3"), ("e", "2", "4")]))
    algebras = [a for _, a in BASIC + corpus.corpus_sbalg_ac()] + [
        kq, alg.upper_triangular(3), alg.matrix_algebra(2), transport(
            alg.upper_triangular(2), lu_matrix(3, [1, -2, 3], [2, 0, -1], [1, 2, -1]))]
    for a in algebras:
        assert alg.center_subalgebra(a)[1] == full_basis_center(a)
    assert len(alg.generating_set(kq)) < kq.dim


def test_center_is_built_without_a_second_validation(monkeypatch):
    """Closure and the unit are checked in center_subalgebra; associativity
    and the unit laws are inherited, and validate_algebra is the oracle."""
    def refuse(*args):
        raise AssertionError("the center was validated again")

    algebras = [a for _, a in corpus.corpus_basic()]
    with monkeypatch.context() as m:
        m.setattr(alg, "make_algebra", refuse)
        m.setattr(alg, "validate_algebra", refuse)
        centers = [alg.center_subalgebra(a)[0] for a in algebras]
    for center in centers:
        assert alg.validate_algebra(center) is center
        again = alg.make_algebra(center.basis_labels, center.mult, center.unit)
        assert alg.same_table(again, center) and again.unit == center.unit


def test_center_read_off_the_table_is_literally_the_dense_stack():
    rng = random.Random(11)
    algebras = [a for _, a in corpus.corpus_basic()]
    for n in (3, 4, 5):
        size = n * (n + 1) // 2
        entries = [[rng.randint(-2, 2) for _ in range(size * (size - 1) // 2)]
                   for _ in range(2)]
        diagonal = [rng.choice([-2, -1, 1, 2]) for _ in range(size)]
        algebras.append(transport(alg.upper_triangular(n), lu_matrix(size, *entries, diagonal)))
    for a in algebras:
        got = alg.center_subalgebra(a)[1]
        want = full_basis_center(a)
        assert got.basis.entries == want.basis.entries and got.pivots == want.pivots


# ---------------------------------------------------------------------------
# the split test: algebra elements against the operator-matrix construction
# ---------------------------------------------------------------------------


def restricted_left_mult(a, g, s):
    """The matrix of x -> e_g x on the invariant subspace s, in s's RREF basis."""
    cols = []
    for row in s.basis_rows():
        coords = s.coordinates_of(a.mul_vec(a.basis_vec(g), row))
        if coords is None:
            raise QuivalgError("subspace is not invariant under multiplication")
        cols.append(coords)
    return Matrix(s.dim, s.dim, list(zip(*cols)) if cols else [])


def matrix_minimal_polynomial(m):
    """Monic minimal polynomial of a square matrix, lowest degree first."""
    power = Matrix.identity(m.rows)
    flat_powers = []
    while True:
        flat = tuple(x for row in power.entries for x in row)
        if flat_powers:
            sol = Matrix(len(flat_powers), len(flat), flat_powers).transpose().solve(flat)
            if sol is not None:
                return [-c for c in sol] + [Fraction(1)]
        flat_powers.append(flat)
        power = power * m


def eval_poly_at_matrix(coeffs, m):
    out = Matrix.zero(m.rows, m.rows)
    for c in reversed(coeffs):
        out = out * m + Matrix.identity(m.rows).scale(c)
    return out


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def matrix_split_blocks(a, allow_nonsplit):
    """split_blocks as it was built from restricted operator matrices.

    Each block s is refined by the kernels of the primary factors of the
    minimal polynomial of L_g restricted to s, mapped back to A.
    """
    blocks = [a.full_space()]
    for g in range(a.dim):
        refined = []
        for s in blocks:
            if s.dim <= 1:
                refined.append(s)
                continue
            m = restricted_left_mult(a, g, s)
            factors = alg._factor_over_q(matrix_minimal_polynomial(m))
            bad = [f for f, _ in factors if len(f) > 2]
            if bad and not allow_nonsplit:
                raise NotSplitOverQQ(
                    "algebra does not split over Q", witness=(a.basis_labels[g], bad[0])
                )
            if len(factors) == 1 and factors[0][1] == 1:
                refined.append(s)
                continue
            for fac, exp in factors:
                power = fac
                for _ in range(exp - 1):
                    power = poly_mul(power, fac)
                kernel = eval_poly_at_matrix(power, m).nullspace()
                ambient = [(Matrix(1, s.dim, [k]) * s.basis).row(0) for k in kernel]
                piece = canonicalize(ambient, a.dim)
                if piece.dim:
                    refined.append(piece)
        blocks = refined
    blocks.sort(key=lambda s: (s.pivots[0], s.basis.entries[0]))
    return blocks


def split_outcome(split, a, allow_nonsplit):
    """The blocks a split returns, or the (type, message, witness) it raises."""
    try:
        return split(a, allow_nonsplit)
    except NotSplitOverQQ as exc:
        return type(exc), str(exc), exc.witness


def matrix_is_connected(a):
    center, _ = alg.center_subalgebra(a)
    zs, _ = alg.semisimple_quotient(center)
    return len(matrix_split_blocks(zs, allow_nonsplit=True)) == 1


CYCLIC_ALGEBRAS = {m: alg.group_algebra(alg.cyclic_group_table(m)) for m in range(1, 6)}


@st.composite
def transported_direct_sums(draw):
    """A direct sum of Q[Z_m], m <= 5 (Q = Q[Z_1]), moved by an LU basis change."""
    orders = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)
                  .filter(lambda ms: sum(ms) <= 7))
    a = alg.direct_sum(*(CYCLIC_ALGEBRAS[m] for m in orders))
    n = a.dim
    size = n * (n - 1) // 2
    entries = draw(st.sampled_from([fractions_, sparse_entries]))
    p = lu_matrix(
        n,
        draw(st.lists(entries, min_size=size, max_size=size)),
        draw(st.lists(entries, min_size=size, max_size=size)),
        draw(st.lists(nonzero_fractions, min_size=n, max_size=n)),
    )
    return a, p, transport(a, p)


class TestSplitAgainstOperatorMatrices:
    @given(transported_direct_sums())
    @settings(max_examples=30, deadline=None)
    def test_blocks_witnesses_and_connectedness(self, case):
        _, _, b = case
        for allow_nonsplit in (False, True):
            assert (split_outcome(alg.split_blocks, b, allow_nonsplit)
                    == split_outcome(matrix_split_blocks, b, allow_nonsplit))
        assert alg.is_connected(b) == matrix_is_connected(b)

    @pytest.mark.parametrize("orders", [(3, 5), (4, 3), (2, 5, 3), (1, 2, 4)])
    def test_direct_sums_in_their_own_basis(self, orders):
        a = alg.direct_sum(*(CYCLIC_ALGEBRAS[m] for m in orders))
        for allow_nonsplit in (False, True):
            assert (split_outcome(alg.split_blocks, a, allow_nonsplit)
                    == split_outcome(matrix_split_blocks, a, allow_nonsplit))

    def test_witness_comes_from_the_first_block(self):
        # f0 splits Q[Z4] + Q[Z3] into two blocks and f1 acts on both with
        # non-split factors; the witness is x^2 + 1 from the first block,
        # although x^2 - x + 1 comes first in the factor list of f1
        a = alg.direct_sum(CYCLIC_ALGEBRAS[4], CYCLIC_ALGEBRAS[3])
        p = Matrix(7, 7, [
            [-1, 1, 2, 0, -1, 1, -1], [-1, 0, 2, 1, -1, 1, 0], [-2, 1, 3, 1, -1, 1, -1],
            [-1, 1, 2, 1, -2, 3, 1], [0, 0, 0, -1, 2, -2, -2], [0, 0, 0, 0, 0, 1, 1],
            [0, -1, 0, 1, 0, 0, 3],
        ])
        b = transport(a, p)
        expected = (NotSplitOverQQ, "algebra does not split over Q", ("f1", [1, 0, 1]))
        assert split_outcome(alg.split_blocks, b, False) == expected
        assert split_outcome(matrix_split_blocks, b, False) == expected

    @pytest.mark.parametrize("m, witness", [
        (3, ("g1", [1, 1, 1])),
        (4, ("g1", [1, 0, 1])),
        (5, ("g1", [1, 1, 1, 1, 1])),
        (6, ("g1", [1, -1, 1])),
        (8, ("g1", [1, 0, 1])),
        (12, ("g1", [1, -1, 1])),
    ])
    def test_cyclic_group_witnesses(self, m, witness):
        with pytest.raises(NotSplitOverQQ) as err:
            alg.split_blocks(alg.group_algebra(alg.cyclic_group_table(m)), False)
        assert str(err.value) == "algebra does not split over Q"
        assert err.value.witness == witness

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_idempotents_of_transported_qn(self, n, data):
        size = n * (n - 1) // 2
        p = lu_matrix(
            n,
            data.draw(st.lists(fractions_, min_size=size, max_size=size)),
            data.draw(st.lists(fractions_, min_size=size, max_size=size)),
            data.draw(st.lists(nonzero_fractions, min_size=n, max_size=n)),
        )
        b = alg.validate_algebra(transport(corpus.rational_n(n), p))
        idems = alg.lift_idempotents(b).idempotents
        assert sorted(p.apply(e) for e in idems) == sorted(unit_vec(n, i) for i in range(n))


def test_import_leaves_sympy_unloaded():
    src = os.path.dirname(os.path.dirname(quivalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, quivalg; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# built algebras carry their proofs: builders against the make_algebra route,
# the graded radical and trivial paths against the trace form
# ---------------------------------------------------------------------------


def pair_loop_algebra(q, paths, max_len):
    """algebra_from_paths as it was: every pair of paths, then make_algebra."""
    index = {(p.start, p.arrows): i for i, p in enumerate(paths)}
    table = {}
    for i, u in enumerate(paths):
        for j, v in enumerate(paths):
            combined = u.arrows + v.arrows
            if u.end == v.start and (max_len is None or len(combined) <= max_len):
                table[(i, j)] = {index[(u.start, combined)]: 1}
    unit = [int(p.length == 0) for p in paths]
    a = alg.make_algebra([p.label for p in paths], table, unit)
    return dataclasses.replace(a, paths=tuple(paths), quiver=q)


def assert_built_like(got, want):
    """got passes validate_algebra and equals want in table, labels and paths."""
    assert alg.validate_algebra(got) is got
    assert alg.same_table(got, want)
    assert (got.basis_labels, got.paths, got.quiver) == (want.basis_labels, want.paths,
                                                         want.quiver)
    assert all(type(c) is Fraction for c in got.unit)
    assert all(type(c) is Fraction and c for d in got.mult.values() for c in d.values())


@st.composite
def path_bases(draw):
    """(q, paths, max_len): all paths of a random acyclic quiver, or of a
    small quiver with a cycle up to a random maxlen, in a random order."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        q = corpus.random_acyclic_quiver(rng, draw(st.integers(2, 5)), draw(st.integers(1, 7)))
        max_len = None
        paths = enumerate_paths(q, len(q.vertices))
    else:
        n = draw(st.integers(1, 3))
        ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             min_size=1, max_size=3))
        q = validate_quiver([str(v) for v in range(n)],
                            [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)])
        max_len = draw(st.integers(1, 4))
        paths = enumerate_paths(q, max_len)
        assume(len(paths) <= 40)
    return q, draw(st.permutations(paths)), max_len


def matrix_unit_route(n, units):
    """U_n and M_n the old way, from products of actual unit matrices."""
    mats = [Matrix(n, n, [[int((r, c) == (i - 1, j - 1)) for c in range(n)] for r in range(n)])
            for i, j in units]
    table = {}
    for x, mx in enumerate(mats):
        for y, my in enumerate(mats):
            prod = mx * my
            if not prod.is_zero():
                table[(x, y)] = {mats.index(prod): 1}
    sep = "" if n <= 9 else "_"
    unit = [int(i == j) for i, j in units]
    return alg.make_algebra([f"E{i}{sep}{j}" for i, j in units], table, unit)


def group_route(cayley, labels=None):
    n = len(cayley)
    identity = next(e for e in range(n) if all(cayley[e][g] == g for g in range(n)))
    table = {(i, j): {cayley[i][j]: 1} for i in range(n) for j in range(n)}
    return alg.make_algebra(labels or [f"g{i}" for i in range(n)], table, unit_vec(n, identity))


def direct_sum_route(*algebras):
    labels, table, unit, offset = [], {}, [], 0
    for k, a in enumerate(algebras):
        labels.extend(l if l not in labels else f"s{k}.{l}" for l in a.basis_labels)
        for (i, j), d in a.mult.items():
            table[(offset + i, offset + j)] = {offset + c: x for c, x in d.items()}
        unit.extend(a.unit)
        offset += a.dim
    return alg.make_algebra(labels, table, unit)


def without_paths(a):
    """a without path bookkeeping: radical and lift_idempotents take the trace form."""
    return dataclasses.replace(a, paths=None, quiver=None)


def assert_graded_is_trace_form(a):
    """The graded answers on a are literally the trace-form ones."""
    b = without_paths(a)
    got, want = alg.radical(a).powers, alg.radical(b).powers
    assert got == want
    assert [s.pivots for s in got] == [s.pivots for s in want]
    assert [s.basis.entries for s in got] == [s.basis.entries for s in want]
    assert alg.lift_idempotents(a).idempotents == alg.lift_idempotents(b).idempotents


class TestBuiltAlgebrasCarryTheirProofs:
    @given(path_bases())
    @settings(max_examples=40, deadline=None)
    def test_path_tables_match_the_pair_loop(self, basis):
        q, paths, max_len = basis
        got = alg.algebra_from_paths(q, paths, max_len)
        assert_built_like(got, pair_loop_algebra(q, paths, max_len))
        assert alg._graded_path_basis(got)
        assert_graded_is_trace_form(got)

    def test_matrix_units_truncated_polys_and_groups(self):
        for n in range(1, 5):
            assert_built_like(alg.upper_triangular(n), matrix_unit_route(
                n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]))
        for n in range(1, 4):
            assert_built_like(alg.matrix_algebra(n), matrix_unit_route(
                n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]))
        assert alg.upper_triangular(10).basis_labels[:2] == ("E1_1", "E1_2")
        for m in range(1, 6):
            labels = ["1", "x"][:m] + [f"x^{k}" for k in range(2, m)]
            table = {(i, j): {i + j: 1} for i in range(m) for j in range(m) if i + j < m}
            assert_built_like(alg.truncated_poly(m),
                              alg.make_algebra(labels, table, unit_vec(m, 0)))
        for m in range(1, 5):
            assert_built_like(alg.group_algebra(alg.cyclic_group_table(m)),
                              group_route(alg.cyclic_group_table(m)))
        s3, labels = alg.symmetric_group_table(3)
        assert_built_like(alg.group_algebra(s3, labels), group_route(s3, labels))

    def test_group_algebra_labels_are_checked(self):
        table = alg.cyclic_group_table(2)
        with pytest.raises(ValidationError, match="duplicate basis labels"):
            alg.group_algebra(table, ["g", "g"])
        with pytest.raises(DimensionMismatch):
            alg.group_algebra(table, ["g"])

    @given(st.lists(st.sampled_from(range(len(SMALL_ALGEBRAS) + 1)), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_direct_sums(self, picks):
        summands = [SMALL_ALGEBRAS[k] if k < len(SMALL_ALGEBRAS) else path_algebra(
            validate_quiver(["1", "2"], [("h", "1", "2")])) for k in picks]
        assert_built_like(alg.direct_sum(*summands), direct_sum_route(*summands))

    def test_direct_sum_refuses_colliding_labels(self):
        a = alg.make_algebra(["a", "s1.a"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1])
        b = alg.make_algebra(["a"], {(0, 0): {0: 1}}, [1])
        with pytest.raises(ValidationError, match="duplicate basis labels"):
            alg.direct_sum(a, b)

    def test_sigma_algebras(self):
        from quivalg import vquiver
        for _, vq in corpus.corpus_vquivers():
            n = len(vq.vertices)
            want = alg.make_algebra(vq.vertices, {(i, i): {i: 1} for i in range(n)}, [1] * n)
            assert_built_like(vquiver.sigma_algebra(vq), want)

    def test_path_basis_preconditions(self):
        chain = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        short = enumerate_paths(chain, 1)
        with pytest.raises(QuivalgError, match="not closed under concatenation"):
            alg.algebra_from_paths(chain, short, None)
        assert alg.algebra_from_paths(chain, short, 1).dim == 5
        gapped = [p for p in enumerate_paths(chain, 2) if p.label != "a"]
        with pytest.raises(QuivalgError, match="lacks a prefix"):
            alg.algebra_from_paths(chain, gapped, 2)
        endless = [p for p in short if p.label != "p_3"]
        with pytest.raises(QuivalgError, match="end vertex"):
            alg.algebra_from_paths(chain, endless, 1)

    def test_graded_route_on_the_corpus_and_truncations(self):
        graded = 0
        for _, a in corpus.corpus_basic() + corpus.corpus_sbalg_ac():
            assert_graded_is_trace_form(a)
            graded += alg._graded_path_basis(a)
        assert graded >= 3
        for max_len in (1, 2, 3):
            t = two_loop_truncation(max_len)
            assert alg._graded_path_basis(t)
            assert_graded_is_trace_form(t)

    @given(cyclic_truncations(max_dim=16), st.data())
    @settings(max_examples=25, deadline=None)
    def test_monomial_quotients_are_graded(self, t, data):
        longest = max(p.length for p in t.paths)
        monomials = data.draw(st.lists(st.sampled_from(
            [p.arrows for p in t.paths if p.length >= 2]), max_size=3))
        r = bound.relation_set(t.quiver, [[(1, m)] for m in monomials] + [
            [(1, p.arrows)] for p in t.paths if p.length == longest], max_len=longest)
        assert bound.check_admissible(r)  # I <= R_Q^2 and R_Q^longest <= I
        b, _ = bound.bound_algebra(r)
        assert alg._graded_path_basis(b)
        assert_graded_is_trace_form(b)

    @given(cyclic_truncations(max_dim=16), st.data())
    @settings(max_examples=25, deadline=None)
    def test_an_extra_product_is_not_graded(self, t, data):
        zero = [(i, j) for i in range(t.dim) for j in range(t.dim) if (i, j) not in t.mult]
        i, j = data.draw(st.sampled_from(zero))
        k = data.draw(st.integers(0, t.dim - 1))
        assert not alg._graded_path_basis(
            broken_in_one_entry(t, i, j, k, data.draw(nonzero_fractions)))
        # e_1 e_2 = e_1 would be the concatenation, were the two composable
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        assert not alg._graded_path_basis(broken_in_one_entry(kq, 0, 1, 0, Fraction(1)))

    def test_relations_of_mixed_length_keep_the_trace_form(self):
        # a*b = c*d*e in kQ/I: the product c * (d*e) is the shorter path a*b,
        # so J^3 = span(a*b) although no kept path has length 3
        q = validate_quiver(["1", "2", "3", "4", "5"], [
            ("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"), ("d", "4", "5"),
            ("e", "5", "3")])
        r = bound.relation_set(q, [[(1, ("a", "b")), (-1, ("c", "d", "e"))]])
        b, _ = bound.bound_algebra(r)
        assert alg.generating_set(b) != tuple(range(b.dim))
        assert not alg._graded_path_basis(b)
        assert alg.radical(b).power(3) == canonicalize([b.basis_vec(b.index_of("a*b"))], b.dim)
        assert max(p.length for p in b.paths) == 2
