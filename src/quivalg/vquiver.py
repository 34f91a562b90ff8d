"""Vquivers: pointed vertex sets with an edge vector space per vertex pair.

The base point * is implicit: spaces touching it are forced to zero, and a
vertex map records "sent to *" as None.  The path algebra of an acyclic
Vquiver is the tensor algebra of the edge bimodule over the vertex algebra,
realized concretely as the path algebra of the multigraph with one arrow per
edge-basis label; the Sigma-balancing is automatic because edge spaces are
indexed by vertex pairs.

Vquivers are frozen; the path algebra of a Vquiver is memoized on the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    AlgebraHom,
    SCAlgebra,
    hom_from_images,
    memoized,
    path_index,
)
from .errors import CyclicInput, DimensionMismatch, QuivalgError, ValidationError
from .linalg import ONE, Matrix, Vec, is_zero_vec, vec_add, vec_scale, zero_vec
from .quiver import Quiver, is_acyclic, longest_path_length, path_algebra, validate_quiver

STAR = "*"


@dataclass(frozen=True, eq=False)
class Vquiver:
    """Vertices plus a labeled edge basis for each ordered vertex pair."""

    vertices: tuple[str, ...]
    edge_labels: dict[tuple[str, str], tuple[str, ...]]

    def dim(self, e: str, f: str) -> int:
        return len(self.edge_labels.get((e, f), ()))

    def pairs(self) -> list[tuple[str, str]]:
        return [(e, f) for e in self.vertices for f in self.vertices]

    def total_edge_dim(self) -> int:
        return sum(len(v) for v in self.edge_labels.values())


def validate_vquiver(
    vertices: Sequence[str],
    edge_spaces: Mapping[tuple[str, str], Sequence[str] | int],
) -> Vquiver:
    """Build a Vquiver; edge spaces may be given as label lists or dimensions.

    The base point is reserved: any declared space touching * is an error,
    matching the requirement that those spaces vanish.
    """
    vertices = tuple(str(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise ValidationError("duplicate Vquiver vertex labels", witness=vertices)
    if STAR in vertices:
        raise ValidationError("the base point * cannot be declared as a vertex")
    labels: dict[tuple[str, str], tuple[str, ...]] = {}
    seen: set[str] = set()
    for (e, f), spec in edge_spaces.items():
        if e == STAR or f == STAR:
            raise ValidationError(
                f"nonzero edge space touching the base point at ({e}, {f})"
            )
        if e not in vertices or f not in vertices:
            raise ValidationError(f"edge space at undeclared pair ({e}, {f})")
        if isinstance(spec, int):
            spec = [f"{e}_{f}_{k}" for k in range(spec)]
        lab = tuple(str(x) for x in spec)
        for x in lab:
            if x in seen or x in vertices:
                raise ValidationError(f"edge label {x!r} is not globally unique")
            seen.add(x)
        if lab:
            labels[(e, f)] = lab
    return Vquiver(vertices, labels)


def sigma_algebra(vq: Vquiver) -> SCAlgebra:
    """The vertex algebra: Q^n with the vertex labels as orthogonal idempotents."""
    n = len(vq.vertices)
    return SCAlgebra(n, vq.vertices, {(i, i): {i: ONE} for i in range(n)}, (ONE,) * n)


def multigraph(vq: Vquiver) -> Quiver:
    """The quiver with one arrow per edge-basis label."""
    arrows = [
        (lab, e, f) for (e, f), labs in vq.edge_labels.items() for lab in labs
    ]
    return validate_quiver(vq.vertices, arrows)


def vquiver_of_quiver(q: Quiver) -> Vquiver:
    """The Vquiver whose edge space at (e, f) has the arrows e -> f as basis."""
    spaces: dict[tuple[str, str], list[str]] = {}
    for lab, s, t in q.arrows:
        spaces.setdefault((s, t), []).append(lab)
    return validate_vquiver(q.vertices, spaces)


@dataclass(frozen=True)
class Acyclicity:
    acyclic: bool
    nilpotence_index: int | None


def is_acyclic_vq(vq: Vquiver) -> Acyclicity:
    """Acyclic iff the composability digraph has no cycle.

    The nilpotence index is the least n with the n-fold tensor power of the
    edge bimodule zero: longest composable chain plus one.
    """
    graph = multigraph(vq)
    if not is_acyclic(graph):
        return Acyclicity(False, None)
    return Acyclicity(True, longest_path_length(graph) + 1)


@memoized
def path_algebra_vq(vq: Vquiver) -> SCAlgebra:
    """The tensor algebra T(Sigma, VQ1) on vertex idempotents and edge words.

    Basis: vertex idempotents, then composable words in edge-basis labels
    graded by length; multiplication is concatenation of composable words.
    It is the path algebra of the edge multigraph, built as such.  Memoized
    on the Vquiver so repeated functor applications share one carrier.
    """
    graph = multigraph(vq)
    if not is_acyclic(graph):
        raise CyclicInput("path algebra of a cyclic Vquiver is infinite dimensional")
    return path_algebra(graph)


@dataclass(eq=False)
class VquiverMap:
    """A structured map: pointed vertex map plus a matrix per edge space.

    vertex_map values of None mean "sent to the base point".  Edge matrices
    are stored per source pair with nonzero dimension, in column-vector
    convention (target edge basis x source edge basis).
    """

    source: Vquiver
    target: Vquiver
    vertex_map: dict[str, str | None]
    edge_maps: dict[tuple[str, str], Matrix]
    surjective: bool | None = None

    def image_pair(self, e: str, f: str) -> tuple[str, str] | None:
        ie, it = self.vertex_map[e], self.vertex_map[f]
        if ie is None or it is None:
            return None
        return (ie, it)

    def edge_matrix(self, e: str, f: str) -> Matrix:
        d = self.source.dim(e, f)
        if (e, f) in self.edge_maps:
            return self.edge_maps[(e, f)]
        pair = self.image_pair(e, f)
        rows = self.target.dim(*pair) if pair else 0
        return Matrix.zero(rows, d)


def validate_vquiver_map(m: VquiverMap) -> VquiverMap:
    """Check the pointed-bijection rule and edge matrix shapes; flag surjectivity."""
    vm = m.vertex_map
    if set(vm) != set(m.source.vertices):
        raise ValidationError("vertex map must cover exactly the source vertices")
    hit = [v for v in vm.values() if v is not None]
    if len(set(hit)) != len(hit) or set(hit) != set(m.target.vertices):
        raise ValidationError(
            "vertex map must restrict to a bijection onto the target vertices"
        )
    surjective = True
    for e in m.source.vertices:
        for f in m.source.vertices:
            d_src = m.source.dim(e, f)
            pair = m.image_pair(e, f)
            d_tgt = m.target.dim(*pair) if pair else 0
            mat = m.edge_matrix(e, f)
            if mat.rows != d_tgt or mat.cols != d_src:
                raise DimensionMismatch(
                    f"edge matrix at ({e}, {f}) has shape {mat.rows}x{mat.cols}, "
                    f"expected {d_tgt}x{d_src}"
                )
            if mat.rank() != d_tgt:
                surjective = False
    m.surjective = surjective
    return m


def identity_vquiver_map(vq: Vquiver) -> VquiverMap:
    edge_maps = {
        pair: Matrix.identity(len(labs)) for pair, labs in vq.edge_labels.items()
    }
    return validate_vquiver_map(
        VquiverMap(vq, vq, {v: v for v in vq.vertices}, edge_maps)
    )


def compose_vquiver_maps(first: VquiverMap, second: VquiverMap) -> VquiverMap:
    """Apply first, then second."""
    if second.source is not first.target:
        raise DimensionMismatch("Vquiver maps do not compose")
    vm = {
        v: (second.vertex_map[w] if (w := first.vertex_map[v]) is not None else None)
        for v in first.source.vertices
    }
    edge_maps = {}
    for pair, labs in first.source.edge_labels.items():
        mid = first.image_pair(*pair)
        if mid is None:
            edge_maps[pair] = Matrix.zero(0, len(labs))
            continue
        edge_maps[pair] = second.edge_matrix(*mid) * first.edge_matrix(*pair)
    return validate_vquiver_map(VquiverMap(first.source, second.target, vm, edge_maps))


def vquiver_maps_equal(a: VquiverMap, b: VquiverMap) -> bool:
    if a.source is not b.source or a.target is not b.target:
        return False
    if a.vertex_map != b.vertex_map:
        return False
    return all(
        a.edge_matrix(*pair) == b.edge_matrix(*pair)
        for pair in a.source.edge_labels
    )


def is_vquiver_iso(m: VquiverMap) -> bool:
    """Vertex bijection with no *-collapse and every edge matrix invertible."""
    if any(v is None for v in m.vertex_map.values()):
        return False
    for e in m.source.vertices:
        for f in m.source.vertices:
            mat = m.edge_matrix(e, f)
            if mat.rows != mat.cols or mat.rank() != mat.rows:
                return False
    return True


def _path_images(paths: Sequence, target: SCAlgebra, vertex_images: Mapping[str, Vec],
                 arrow_images: Mapping[str, Vec]) -> list[Vec]:
    """Images of a path basis under the algebra map given on vertices and arrows:
    a path goes to the product of its arrows' images, cut at the first zero."""
    images = []
    for p in paths:
        acc = vertex_images[p.start] if p.length == 0 else None
        for lab in p.arrows:
            acc = arrow_images[lab] if acc is None else target.mul_vec(acc, arrow_images[lab])
            if is_zero_vec(acc):
                break
        images.append(acc)
    return images


def induced_hom(rho: VquiverMap) -> AlgebraHom:
    """The algebra map k[rho] between path algebras of acyclic Vquivers.

    Vertex idempotents go to vertex idempotents (or to 0 under *-collapse);
    edge-basis elements go through the edge matrices into degree-one words;
    words extend multiplicatively by the universal property of the tensor
    algebra.  The result is validated and must be surjective when rho is.
    """
    if rho.surjective is None:
        validate_vquiver_map(rho)
    if not rho.surjective:
        raise ValidationError("induced algebra maps need surjective Vquiver maps")
    src = path_algebra_vq(rho.source)
    tgt = path_algebra_vq(rho.target)
    tgt_index = path_index(tgt)

    def label_image(e: str, f: str, k: int) -> Vec:
        pair = rho.image_pair(e, f)
        out = zero_vec(tgt.dim)
        if pair is None:
            return out
        mat = rho.edge_matrix(e, f)
        target_labels = rho.target.edge_labels.get(pair, ())
        for r, lab in enumerate(target_labels):
            c = mat.entries[r][k]
            if c != 0:
                out = vec_add(out, vec_scale(c, tgt.basis_vec(tgt_index[(pair[0], (lab,))])))
        return out

    vertex_images = {
        v: zero_vec(tgt.dim) if w is None else tgt.basis_vec(tgt_index[(w, ())])
        for v, w in rho.vertex_map.items()
    }
    arrow_images = {
        lab: label_image(e, f, k)
        for (e, f), labs in rho.source.edge_labels.items()
        for k, lab in enumerate(labs)
    }
    images = _path_images(src.paths, tgt, vertex_images, arrow_images)
    hom = hom_from_images(src, tgt, images)
    if not hom.surjective:
        raise QuivalgError("induced map of a surjective Vquiver map must be surjective")
    return hom
