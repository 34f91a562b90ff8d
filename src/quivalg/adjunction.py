"""The Gabriel-quiver functor, the n-depth congruence, and the adjunction.

Vertices of the Gabriel Vquiver are inner-automorphism orbits of primitive
idempotents; the orbit of e is keyed canonically by the image of e in A/J(A),
which is a genuine invariant of the orbit and makes vertex maps computable
without enumerating orbits.  Edge spaces are e(J/J^2)f with deterministic
RREF-complement coset representatives; those representatives double as the
section used to build the counit.

Morphisms of the quotient category are stored as (representative, depth)
pairs; equality of classes is decided by the n-depth containment test.
The Gabriel Vquiver of an algebra is memoized on the algebra object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    AlgebraHom,
    IdempotentSet,
    RadicalFiltration,
    SCAlgebra,
    identity_hom,
    lift_idempotents,
    memoized,
    path_index,
    quotient_algebra,
    radical,
    same_table,
    semisimple_quotient,
    unipotent_inverse,
    validate_hom,
)
from .bound import RelationSet, path_length_span, relation_set
from .errors import CyclicInput, DimensionMismatch, QuivalgError, ValidationError
from .linalg import (
    Matrix,
    Subspace,
    Vec,
    canonicalize,
    frac,
    is_zero_vec,
    products_within,
    quotient_basis,
    subspace_contains,
    subspace_intersect,
    vec_add,
    vec_scale,
    zero_vec,
)
from .vquiver import (
    Vquiver,
    VquiverMap,
    compose_vquiver_maps,
    identity_vquiver_map,
    induced_hom,
    is_acyclic_vq,
    is_vquiver_iso,
    multigraph,
    path_algebra_vq,
    validate_vquiver,
    validate_vquiver_map,
    vquiver_maps_equal,
)

# ---------------------------------------------------------------------------
# the n-depth congruence
# ---------------------------------------------------------------------------


def ndepth_equivalent(a1: AlgebraHom, a2: AlgebraHom, n: int) -> bool:
    """The congruence of the quotient category at depth n.

    Two surjections agree at depth n when their difference shifts each
    radical power J^i into J^(i+1) for 0 <= i <= n, with J^0 the whole
    algebra.
    """
    if a1.source is not a2.source and not same_table(a1.source, a2.source):
        raise DimensionMismatch("n-depth comparison needs a common source")
    if a1.target is not a2.target and not same_table(a1.target, a2.target):
        raise DimensionMismatch("n-depth comparison needs a common target")
    filt_a = radical(a1.source)
    filt_b = radical(a1.target)
    diff = a1.matrix - a2.matrix
    for i in range(n + 1):
        upper = filt_b.power(i + 1)
        for row in filt_a.power(i).basis_rows():
            if not upper.contains_vector(diff.apply(row)):
                return False
    return True


@dataclass(eq=False)
class NDepthClass:
    """A morphism of the depth-n quotient category, held by a representative."""

    representative: AlgebraHom
    depth: int

    def same_class(self, other) -> bool:
        rep = other.representative if isinstance(other, NDepthClass) else other
        return ndepth_equivalent(self.representative, rep, self.depth)


# ---------------------------------------------------------------------------
# the Gabriel Vquiver
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GabrielVquiver:
    """GQ(A): orbit-labeled vertices plus chosen coset bases of e(J/J^2)f."""

    algebra: SCAlgebra
    vquiver: Vquiver
    idempotents: IdempotentSet
    orbit_keys: tuple[Vec, ...]          # pi(e_i), canonical per orbit
    corners: dict[tuple[int, int], Subspace]       # e_i J e_j
    edge_reps: dict[tuple[int, int], tuple[Vec, ...]]
    filtration: RadicalFiltration
    quotient: SCAlgebra
    projection: AlgebraHom

    def vertex_of_key(self, key: Vec) -> int | None:
        for i, k in enumerate(self.orbit_keys):
            if k == key:
                return i
        return None

    def edge_dims(self) -> dict[tuple[int, int], int]:
        return {pair: len(reps) for pair, reps in self.edge_reps.items() if reps}


def corner_subspace(a: SCAlgebra, e: Vec, f: Vec, space: Subspace) -> Subspace:
    """Span of e x f over basis vectors x of the given subspace."""
    return canonicalize(
        [a.mul_vec(a.mul_vec(e, r), f) for r in space.basis_rows()], a.dim
    )


def edge_dimension_matrix(a: SCAlgebra, idems: Sequence[Vec]) -> dict[tuple[Vec, Vec], int]:
    """dim e(J/J^2)f per ordered pair, keyed by the canonical orbit keys.

    Works for any complete set of primitive orthogonal idempotents, which is
    what makes the choice-independence property directly testable.
    """
    filt = radical(a)
    j, j2 = filt.radical, filt.power(2)
    _, proj = semisimple_quotient(a)
    out: dict[tuple[Vec, Vec], int] = {}
    for e in idems:
        for f in idems:
            corner = corner_subspace(a, e, f, j)
            overlap = subspace_intersect(corner, j2)
            out[(proj.apply(e), proj.apply(f))] = corner.dim - overlap.dim
    return out


@memoized
def gabriel_vquiver(a: SCAlgebra) -> GabrielVquiver:
    """The Vquiver GQ(A) of a basic algebra, with canonical choices throughout.

    Vertices are keyed by the primitive idempotents of A/J (independent of
    the lift); the edge basis at (i, j) consists of RREF-completion
    representatives of e_i J e_j modulo J^2.  Memoized on the algebra.
    """
    filt = radical(a)
    j, j2 = filt.radical, filt.power(2)
    idems = lift_idempotents(a)
    b, proj = semisimple_quotient(a)
    keys = tuple(proj.apply(e) for e in idems.idempotents)
    n = len(keys)
    labels = []
    for key in keys:
        pivot = next(i for i, c in enumerate(key) if c != 0)
        labels.append(b.basis_labels[pivot])
    if len(set(labels)) != n:
        labels = [f"v{i}" for i in range(n)]
    corners: dict[tuple[int, int], Subspace] = {}
    edge_reps: dict[tuple[int, int], tuple[Vec, ...]] = {}
    edge_spaces: dict[tuple[str, str], list[str]] = {}
    for i, e in enumerate(idems.idempotents):
        for jdx, f in enumerate(idems.idempotents):
            corner = corner_subspace(a, e, f, j)
            corners[(i, jdx)] = corner
            reps = tuple(quotient_basis(corner, subspace_intersect(corner, j2)))
            edge_reps[(i, jdx)] = reps
            if reps:
                edge_spaces[(labels[i], labels[jdx])] = [
                    f"ar_{i}_{jdx}_{k}" for k in range(len(reps))
                ]
    vq = validate_vquiver(labels, edge_spaces)
    return GabrielVquiver(
        algebra=a,
        vquiver=vq,
        idempotents=idems,
        orbit_keys=keys,
        corners=corners,
        edge_reps=edge_reps,
        filtration=filt,
        quotient=b,
        projection=proj,
    )


def _class_mod_j2(
    gb: GabrielVquiver, pair: tuple[int, int], v: Vec
) -> Vec:
    """Coordinates of v over the chosen edge basis at pair, modulo J^2."""
    reps = gb.edge_reps.get(pair, ())
    j2 = gb.filtration.power(2)
    if not reps:
        if not j2.contains_vector(v):
            raise QuivalgError("element does not vanish in the zero edge space")
        return ()
    rows = list(reps) + list(j2.basis_rows())
    stacked = Matrix(len(rows), gb.algebra.dim, rows).transpose()
    sol = stacked.solve(v)
    if sol is None:
        raise QuivalgError("element is outside its corner modulo J^2")
    return tuple(sol[: len(reps)])


def gabriel_on_hom(
    alpha: AlgebraHom, ga: GabrielVquiver, gb: GabrielVquiver
) -> VquiverMap:
    """GQ(alpha) for a surjective map of basic algebras.

    The orbit of e goes to the orbit of alpha(e), computed canonically by
    projecting alpha(e) into B/J(B), with the base point as the target when
    that projection vanishes.  Edge maps send the class of e x f to the class
    of alpha(e) alpha(x) alpha(f); multiplying by an idempotent only depends
    on its orbit key modulo J^2, so the chosen coset bases are compatible.
    """
    if alpha.surjective is None:
        validate_hom(alpha)
    if not alpha.surjective:
        raise ValidationError("the Gabriel functor acts on surjective maps only")
    if alpha.source is not ga.algebra or alpha.target is not gb.algebra:
        raise DimensionMismatch("Gabriel data does not match the map's endpoints")
    vertex_map: dict[str, str | None] = {}
    vertex_index: dict[int, int | None] = {}
    for i, e in enumerate(ga.idempotents.idempotents):
        image_key = gb.projection.apply(alpha.apply(e))
        if is_zero_vec(image_key):
            vertex_index[i] = None
            vertex_map[ga.vquiver.vertices[i]] = None
            continue
        target = gb.vertex_of_key(image_key)
        if target is None:
            raise QuivalgError("image idempotent is not primitive in the target")
        vertex_index[i] = target
        vertex_map[ga.vquiver.vertices[i]] = gb.vquiver.vertices[target]
    edge_maps: dict[tuple[str, str], Matrix] = {}
    for (i, jdx), reps in ga.edge_reps.items():
        if not reps:
            continue
        src_pair = (ga.vquiver.vertices[i], ga.vquiver.vertices[jdx])
        ti, tj = vertex_index[i], vertex_index[jdx]
        if ti is None or tj is None:
            j2 = gb.filtration.power(2)
            for x in reps:
                if not j2.contains_vector(alpha.apply(x)):
                    raise QuivalgError("collapsed edge does not vanish mod J^2")
            edge_maps[src_pair] = Matrix.zero(0, len(reps))
            continue
        cols = [_class_mod_j2(gb, (ti, tj), alpha.apply(x)) for x in reps]
        rows = len(gb.edge_reps.get((ti, tj), ()))
        edge_maps[src_pair] = Matrix(
            rows, len(reps), list(zip(*cols)) if rows else []
        )
    rho = VquiverMap(ga.vquiver, gb.vquiver, vertex_map, edge_maps)
    validate_vquiver_map(rho)
    if not rho.surjective:
        raise QuivalgError("GQ of a surjective map must be surjective")
    return rho


# ---------------------------------------------------------------------------
# unit and counit
# ---------------------------------------------------------------------------


def unit(vq: Vquiver) -> VquiverMap:
    """eta: VQ -> GQ(k[VQ]), an isomorphism of Vquivers for acyclic input.

    Vertices go to the orbits of the trivial-word idempotents; an edge basis
    element goes to the class of its degree-one word.
    """
    if not is_acyclic_vq(vq).acyclic:
        raise CyclicInput("the unit is only defined for acyclic Vquivers")
    t = path_algebra_vq(vq)
    ga = gabriel_vquiver(t)
    word_index = path_index(t)
    vertex_map: dict[str, str | None] = {}
    vertex_of: dict[str, int] = {}
    for v in vq.vertices:
        key = ga.projection.apply(t.basis_vec(word_index[(v, ())]))
        target = ga.vertex_of_key(key)
        if target is None:
            raise QuivalgError("trivial idempotent lost its orbit")
        vertex_map[v] = ga.vquiver.vertices[target]
        vertex_of[v] = target
    edge_maps: dict[tuple[str, str], Matrix] = {}
    for (e, f), labs in vq.edge_labels.items():
        pair = (vertex_of[e], vertex_of[f])
        cols = [
            _class_mod_j2(ga, pair, t.basis_vec(word_index[(e, (lab,))]))
            for lab in labs
        ]
        rows = len(ga.edge_reps.get(pair, ()))
        edge_maps[(e, f)] = Matrix(rows, len(labs), list(zip(*cols)) if rows else [])
    eta = validate_vquiver_map(VquiverMap(vq, ga.vquiver, vertex_map, edge_maps))
    if not is_vquiver_iso(eta):
        raise QuivalgError("the unit failed to be a Vquiver isomorphism")
    return eta


def counit(a: SCAlgebra, section_rng: random.Random | None = None) -> NDepthClass:
    """epsilon: k[GQ(A)] -> A as a depth-1 class, for A with acyclic GQ(A).

    Vertex idempotents of the tensor algebra go to the lifted idempotents;
    degree-one words go through a linear section of J -> J/J^2 (the chosen
    RREF representatives, optionally perturbed inside J^2 by the seeded rng);
    longer words extend multiplicatively via the universal property.  The
    class modulo depth 1 does not depend on the section.
    """
    ga = gabriel_vquiver(a)
    if not is_acyclic_vq(ga.vquiver).acyclic:
        raise CyclicInput("algebra is outside the acyclic class: GQ(A) has a cycle")
    t = path_algebra_vq(ga.vquiver)
    j2 = ga.filtration.power(2)
    section: dict[str, Vec] = {}
    for (i, jdx), reps in ga.edge_reps.items():
        if not reps:
            continue
        pair = (ga.vquiver.vertices[i], ga.vquiver.vertices[jdx])
        labs = ga.vquiver.edge_labels[pair]
        perturb_space = subspace_intersect(ga.corners[(i, jdx)], j2)
        for lab, rep in zip(labs, reps):
            image = rep
            if section_rng is not None and perturb_space.dim:
                for row in perturb_space.basis_rows():
                    image = vec_add(
                        image, vec_scale(frac(section_rng.randint(-3, 3)), row)
                    )
            section[lab] = image
    images = []
    for p in t.paths:
        if p.length == 0:
            idx = ga.vquiver.vertices.index(p.start)
            images.append(ga.idempotents.idempotents[idx])
            continue
        acc = None
        for lab in p.arrows:
            factor = section[lab]
            acc = factor if acc is None else a.mul_vec(acc, factor)
        images.append(acc)
    matrix = Matrix(a.dim, t.dim, list(zip(*images)) if images else [])
    eps = validate_hom(AlgebraHom(t, a, matrix))
    if not eps.surjective:
        raise QuivalgError("the counit must be surjective")
    return NDepthClass(eps, 1)


# ---------------------------------------------------------------------------
# triangle identities and the bound-quiver presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleCheck:
    case: str
    check: str
    ok: bool
    detail: str = ""


@dataclass(eq=False)
class TriangleReport:
    entries: list[TriangleCheck]

    @property
    def all_pass(self) -> bool:
        return all(e.ok for e in self.entries)


def triangle_identities(
    vquivers: Sequence[tuple[str, Vquiver]],
    algebras: Sequence[tuple[str, SCAlgebra]],
) -> TriangleReport:
    """Verify both triangle identities on concrete test cases.

    For each acyclic Vquiver: the unit is an isomorphism and the composite
    counit(k[VQ]) . k[unit] agrees with the identity at depth 1.  For each
    algebra with acyclic Gabriel Vquiver: the counit is surjective and
    GQ(counit) . unit(GQ(A)) equals the identity map on the nose.
    """
    entries: list[TriangleCheck] = []

    def record(case: str, check: str, ok: bool, detail: str = ""):
        entries.append(TriangleCheck(case, check, bool(ok), detail))

    for name, vq in vquivers:
        try:
            eta = unit(vq)
            record(name, "unit-iso", is_vquiver_iso(eta))
            t = path_algebra_vq(vq)
            k_eta = induced_hom(eta)
            eps = counit(t)
            composite = k_eta.then(eps.representative)
            ok = ndepth_equivalent(composite, identity_hom(t), 1)
            record(name, "F-triangle", ok)
        except QuivalgError as exc:  # report failures instead of raising
            record(name, "F-triangle", False, f"{type(exc).__name__}: {exc}")
    for name, a in algebras:
        try:
            ga = gabriel_vquiver(a)
            eps = counit(a)
            record(name, "counit-surjective", bool(eps.representative.surjective))
            t = path_algebra_vq(ga.vquiver)
            eta_g = unit(ga.vquiver)
            gq_eps = gabriel_on_hom(eps.representative, gabriel_vquiver(t), ga)
            composite = compose_vquiver_maps(eta_g, gq_eps)
            ok = vquiver_maps_equal(composite, identity_vquiver_map(ga.vquiver))
            record(name, "G-triangle", ok)
        except QuivalgError as exc:
            record(name, "G-triangle", False, f"{type(exc).__name__}: {exc}")
    return TriangleReport(entries)


@dataclass(eq=False)
class Presentation:
    """A bound-quiver presentation A = k[GQ(A)] / ker(counit)."""

    gabriel: GabrielVquiver
    relations: RelationSet
    kernel: Subspace
    admissible_m: int
    isomorphism: AlgebraHom  # k[GQ(A)]/ker -> A


def present_as_bound_quiver(a: SCAlgebra) -> Presentation:
    """Realize a basic algebra with acyclic GQ(A) as a bound path algebra.

    The kernel of the counit is computed exactly, verified to be an
    admissible two-sided ideal (it sits inside the square of the arrow ideal,
    and contains the m-th power for m the nilpotence index of J(A)), and the
    induced map from the quotient is validated as an isomorphism.
    """
    ga = gabriel_vquiver(a)
    eps = counit(a).representative
    t = eps.source
    kernel = canonicalize(eps.matrix.nullspace(), t.dim)
    full = t.full_space()
    for left, right in ((full, kernel), (kernel, full)):
        if not products_within(t.mul_vec, left, right, kernel):
            raise QuivalgError("counit kernel is not a two-sided ideal")
    if not subspace_contains(path_length_span(t, 2), kernel):
        raise QuivalgError("counit kernel escapes the arrow-ideal square")
    m = ga.filtration.nilpotence_index
    if not subspace_contains(kernel, path_length_span(t, m)):
        raise QuivalgError("kernel misses a power of the arrow ideal")
    graph = multigraph(ga.vquiver)
    terms = []
    for row in kernel.basis_rows():
        terms.append(
            tuple(
                (c, t.paths[i].arrows)
                for i, c in enumerate(row)
                if c != 0
            )
        )
    max_len = max(2, m, max((p.length for p in t.paths), default=0) + 1)
    relations = relation_set(graph, terms, max_len=max_len)
    quotient, proj = quotient_algebra(t, kernel)
    iso_images = [eps.apply(proj.section.col(k)) for k in range(quotient.dim)]
    iso_matrix = Matrix(
        a.dim, quotient.dim, list(zip(*iso_images)) if iso_images else []
    )
    iso = validate_hom(AlgebraHom(quotient, a, iso_matrix))
    if iso.matrix.rows != iso.matrix.cols or not iso.surjective:
        raise QuivalgError("induced presentation map is not an isomorphism")
    return Presentation(ga, relations, kernel, m, iso)


# ---------------------------------------------------------------------------
# choice independence helpers
# ---------------------------------------------------------------------------


def conjugate_idempotents(a: SCAlgebra, idems: Sequence[Vec], w: Vec) -> list[Vec]:
    """The set (1+w) e (1+w)^(-1) for w in the radical."""
    one_plus = vec_add(a.unit, w)
    inv = unipotent_inverse(a, w)
    return [a.mul_vec(a.mul_vec(one_plus, e), inv) for e in idems]


def random_radical_element(a: SCAlgebra, rng: random.Random) -> Vec:
    j = radical(a).radical
    out = zero_vec(a.dim)
    for row in j.basis_rows():
        out = vec_add(out, vec_scale(frac(rng.randint(-3, 3)), row))
    return out
