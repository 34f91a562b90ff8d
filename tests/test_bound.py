"""Admissible ideals and bound path algebras."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import algebra as alg
from quivalg import bound, corpus, quiver
from quivalg.errors import FormatError, InadmissibleIdeal, ValidationError
from quivalg.adjunction import counit, present_as_bound_quiver
from quivalg.linalg import bilinear_image, canonicalize, subspace_contains, subspace_sum
from quivalg.quiver import path_algebra, validate_quiver

from test_algebra import admissible_relations, cyclic_truncations


def two_loop_quiver():
    return validate_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])


def two_loop_relations(max_len=3):
    return bound.relation_set(
        two_loop_quiver(),
        [[(1, ("a", "a"))], [(1, ("b", "b"))], [(1, ("a", "b"))]],
        max_len=max_len,
    )


class TestTruncation:
    def test_two_loop_dim(self):
        t = bound.truncated_path_algebra(two_loop_quiver(), 2)
        assert t.dim == 7  # 1 + 2 + 4

    def test_acyclic_truncation_inactive(self):
        q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        t = bound.truncated_path_algebra(q, 5)
        assert alg.same_table(t, path_algebra(q))

    def test_path_budget(self, monkeypatch):
        # two loops have 7 paths up to length 2 and 15 up to length 3
        monkeypatch.setattr(quiver, "MAX_TRUNCATION_PATHS", 7)
        assert bound.truncated_path_algebra(two_loop_quiver(), 2).dim == 7
        with pytest.raises(FormatError, match="maxlen 3 has over 7 paths"):
            bound.truncated_path_algebra(two_loop_quiver(), 3)
        # an acyclic quiver runs out of paths long before any bound
        chain = validate_quiver(["1", "2"], [("h", "1", "2")])
        assert bound.truncated_path_algebra(chain, 10**9).dim == 3

    def test_path_budget_of_an_inactive_truncation(self):
        # the 32-vertex line has 528 paths, none longer than 31: the default
        # bound 32 truncates nothing, so lowering it would not help
        n = 32
        line = validate_quiver([str(v) for v in range(n)],
                               [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)])
        with pytest.raises(FormatError) as err:
            bound.check_admissible(bound.relation_set(line, []))
        assert str(err.value) == (f"path algebra has over {quiver.MAX_TRUNCATION_PATHS} "
                                  "paths (MAX_TRUNCATION_PATHS)")
        with pytest.raises(FormatError, match="truncation at maxlen 31 .*; lower maxlen"):
            bound.truncated_path_algebra(line, 31)

    def test_single_loop_truncation_is_poly(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        for m in (2, 3, 5):
            t = bound.truncated_path_algebra(q, m - 1)
            assert alg.same_table(t, alg.truncated_poly(m))


class TestIdealClosure:
    def test_empty_generators(self):
        t = bound.truncated_path_algebra(two_loop_quiver(), 2)
        assert bound.ideal_closure(t, []).dim == 0

    def test_arrow_ideal_of_one_arrow(self):
        kq = path_algebra(validate_quiver(["1", "2"], [("h", "1", "2")]))
        r = bound.arrow_ideal(kq)
        assert r == canonicalize([kq.basis_vec(kq.index_of("h"))], 3)

    def test_two_loop_closure_by_hand(self):
        # in the 7-dim truncation the closure of {a^2, b^2, ab} misses b*a
        t = bound.truncated_path_algebra(two_loop_quiver(), 2)
        gens = [
            bound.relation_vector(t, [(1, ("a", "a"))]),
            bound.relation_vector(t, [(1, ("b", "b"))]),
            bound.relation_vector(t, [(1, ("a", "b"))]),
        ]
        closure = bound.ideal_closure(t, gens)
        assert closure.dim == 3
        ba = t.basis_vec(t.index_of("b*a"))
        assert not closure.contains_vector(ba)


    @given(cyclic_truncations(max_dim=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_worklist_matches_fixed_point(self, t, data):
        terms = st.tuples(st.integers(-2, 2).filter(bool),
                          st.sampled_from([p.arrows for p in t.paths if p.length >= 2]))
        relations = data.draw(st.lists(st.lists(terms, min_size=1, max_size=3), max_size=3))
        gens = [bound.relation_vector(t, rel) for rel in relations]
        assert bound.ideal_closure(t, gens) == fixed_point_closure(t, gens)


def fixed_point_closure(t, generators):
    """ideal_closure as a fixed point: products with the whole algebra on
    both sides until the dimension stops growing."""
    span = canonicalize(list(generators), t.dim)
    full = t.full_space()
    while True:
        grown = subspace_sum(span, subspace_sum(
            bilinear_image(t.mul_vec, full, span), bilinear_image(t.mul_vec, span, full)))
        if grown.dim == span.dim:
            return span
        span = grown


class TestAdmissibility:
    def test_acyclic_no_relations(self):
        q = validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        r = bound.relation_set(q, [])
        report = bound.check_admissible(r)
        # longest path has length 2, so m = 3
        assert report.admissible and report.m == 3

    def test_two_loop_admissible_m3(self):
        report = bound.check_admissible(two_loop_relations())
        assert report.admissible and report.m == 3

    def test_loop_without_relations_undetermined(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        r = bound.relation_set(q, [], max_len=4)
        report = bound.check_admissible(r)
        assert not report.admissible and report.undetermined

    def test_relation_with_arrow_rejected(self):
        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        with pytest.raises(ValidationError):
            bound.relation_set(q, [[(1, ("h",))]])

    def test_monotone_in_bound(self):
        # admissible at M stays admissible with the same m at larger M
        for m_len in (3, 4, 5):
            report = bound.check_admissible(two_loop_relations(max_len=m_len))
            assert report.admissible and report.m == 3

    def test_construct_reuses_the_checked_truncation(self):
        r = two_loop_relations()
        bound.check_admissible(r)
        t = bound._admissibility(r)[1]
        _, proj = bound.bound_algebra(r)
        assert proj.source is t

    def test_relation_sets_are_frozen(self):
        r = two_loop_relations()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.max_len = 5

    def test_cyclic_needs_explicit_bound(self):
        with pytest.raises(ValidationError):
            bound.relation_set(two_loop_quiver(), [])


def path_length_span(t, min_len):
    """span{paths of length >= min_len} by one echelon pass."""
    return canonicalize(
        [t.basis_vec(i) for i, p in enumerate(t.paths) if p.length >= min_len], t.dim)


def loop_admissibility(t, ideal, max_len):
    """(I <= R_Q^2, m) as check_admissible found them before it read the
    RREF rows: one containment of echelon spans per candidate m."""
    inside = subspace_contains(path_length_span(t, 2), ideal)
    m = next(c for c in range(2, max_len + 2)
             if subspace_contains(ideal, path_length_span(t, c)))
    return inside, m


class TestCoordinateTests:
    @given(cyclic_truncations(), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reports_match_the_loop(self, t, with_longest, data):
        longest = max(p.length for p in t.paths)
        long_paths = [p for p in t.paths if p.length >= 2]
        coeffs = st.lists(st.integers(-2, 2), min_size=len(long_paths),
                          max_size=len(long_paths))
        relations = [[(c, p.arrows) for c, p in zip(row, long_paths) if c]
                     for row in data.draw(st.lists(coeffs, max_size=3))]
        relations = [rel for rel in relations if rel]
        if with_longest:
            relations += [[(1, p.arrows)] for p in t.paths if p.length == longest]
        r = bound.relation_set(t.quiver, relations, max_len=longest)
        report, t, ideal = bound._admissibility(r)
        assert (report.inside_square, report.m) == loop_admissibility(t, ideal, longest)
        assert report.admissible == (report.inside_square and report.m <= longest)

    @given(cyclic_truncations(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_subspace_against_echelon_spans(self, t, data):
        # in a basis not sorted by length, an RREF pivot row may hold longer
        # paths than its pivot; unit vectors and combinations touching short
        # paths make subspaces on both sides of each test
        longest = max(p.length for p in t.paths)
        t = alg.algebra_from_paths(t.quiver, data.draw(st.permutations(t.paths)), longest)
        picks = st.lists(st.integers(0, t.dim - 1), max_size=t.dim)
        vectors = [t.basis_vec(k) for k in data.draw(picks)]
        for row in data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=t.dim,
                                               max_size=t.dim), max_size=2)):
            vectors.append(tuple(Fraction(c) for c in row))
        s = canonicalize(vectors, t.dim)
        assert bound.inside_square(t, s) == subspace_contains(path_length_span(t, 2), s)
        outside = bound.longest_path_outside(t, s)
        for c in range(max(p.length for p in t.paths) + 2):
            assert (outside < c) == subspace_contains(s, path_length_span(t, c))

    def test_presentation_kernels(self):
        for _, a in corpus.corpus_sbalg_ac():
            pres = present_as_bound_quiver(a)
            t, kernel = counit(a).representative.source, pres.kernel
            assert bound.inside_square(t, kernel) == subspace_contains(
                path_length_span(t, 2), kernel)
            m = pres.admissible_m
            assert bound.longest_path_outside(t, kernel) < m
            assert subspace_contains(kernel, path_length_span(t, m))


class TestBoundAlgebra:
    def test_one_arrow_no_relations(self):
        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        b, proj = bound.bound_algebra(bound.relation_set(q, []))
        assert b.dim == 3
        assert proj.surjective

    def test_two_loop_bound_basis(self):
        b, _ = bound.bound_algebra(two_loop_relations())
        assert b.dim == 4
        assert b.basis_labels == ("p_1", "a", "b", "b*a")

    def test_two_loop_bound_iso_to_c_subalgebra(self):
        b, _ = bound.bound_algebra(two_loop_relations())
        c = corpus.c_subalgebra_u3()
        images = {"p_1": "u", "a": "E23", "b": "E12", "b*a": "E13"}
        f = alg.hom_from_images(
            b, c, [c.basis_vec(c.index_of(images[l])) for l in b.basis_labels]
        )
        assert alg.is_isomorphism(f)

    def test_single_loop_gives_truncated_poly(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        for m in (2, 3, 4):
            r = bound.relation_set(q, [[(1, ("a",) * m)]], max_len=m)
            b, _ = bound.bound_algebra(r)
            assert alg.same_table(b, alg.truncated_poly(m))

    def test_inadmissible_rejected(self):
        q = validate_quiver(["1"], [("a", "1", "1")])
        r = bound.relation_set(q, [], max_len=3)
        with pytest.raises(InadmissibleIdeal):
            bound.bound_algebra(r)

    def test_radical_is_arrow_image(self):
        # J(kQ/I) = image of the arrow ideal under the bound projection
        cases = [
            two_loop_relations(),
            corpus.a3_bound_algebra()[1],
            corpus.commutative_square_algebra()[1],
        ]
        for r in cases:
            b, proj = bound.bound_algebra(r)
            t = proj.source
            arrows = bound.arrow_ideal(t)
            image = canonicalize([proj.apply(v) for v in arrows.basis_rows()], b.dim)
            assert alg.radical(b).radical == image

    def test_dimension_bookkeeping_on_corpus(self):
        for _, q in corpus.corpus_quivers(seed=3, count=6):
            b, _ = bound.bound_algebra(bound.relation_set(q, []))
            assert b.dim == path_algebra(q).dim

    @given(cyclic_truncations(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dimension_bookkeeping_oracle(self, t, data):
        # dim kQ/I = #paths shorter than m - dim(I within their span), which
        # by Grassmann is dim(short + I) - dim(I); bound_algebra does not recount
        r = admissible_relations(t, data)
        report, _, ideal = bound._admissibility(r)
        b, _ = bound.bound_algebra(r)
        short = canonicalize([t.basis_vec(i) for i, p in enumerate(t.paths)
                              if p.length < report.m], t.dim)
        assert b.dim == subspace_sum(short, ideal).dim - ideal.dim
