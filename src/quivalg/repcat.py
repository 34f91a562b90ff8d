"""Quiver representations, algebra modules, and the dictionary between them.

A representation assigns a space to each vertex and a matrix of shape
dim V_t x dim V_s to each arrow s -> t.  The corresponding module over the
(bound) path algebra lives on the direct sum of the vertex spaces in vertex
order; a basis path acts blockwise through the transpose of its geometric
composite, which is exactly what makes the action a homomorphism for the
left-to-right path product used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import SCAlgebra, generating_set, path_index, same_table
from .bound import RelationSet, bound_algebra
from .errors import DimensionMismatch, QuivalgError, ValidationError
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    canonicalize,
)
from .quiver import Quiver, Path, path_algebra, path_from_arrows


@dataclass(eq=False)
class QuiverRep:
    quiver: Quiver
    spaces: dict[str, int]
    maps: dict[str, Matrix]


@dataclass(eq=False)
class AlgebraModule:
    algebra: SCAlgebra
    dim: int
    action: tuple[Matrix, ...]  # one matrix per algebra basis element

    def act(self, x: Sequence) -> Matrix:
        """sum_k x_k rho(e_k), accumulated entry by entry."""
        acc = [[ZERO] * self.dim for _ in range(self.dim)]
        for k, c in enumerate(x):
            if c is not ZERO and c:
                for out, row in zip(acc, self.action[k].entries):
                    for j, e in enumerate(row):
                        if e:
                            out[j] += c * e
        return Matrix._trusted(self.dim, self.dim, tuple(map(tuple, acc)))


def validate_rep(quiver: Quiver, spaces: Mapping[str, int], maps: Mapping[str, Matrix]) -> QuiverRep:
    spaces = {v: int(spaces.get(v, 0)) for v in quiver.vertices}
    if any(d < 0 for d in spaces.values()):
        raise ValidationError("vertex dimensions must be nonnegative")
    checked: dict[str, Matrix] = {}
    for lab, s, t in quiver.arrows:
        m = maps.get(lab)
        if m is None:
            m = Matrix.zero(spaces[t], spaces[s])
        if m.rows != spaces[t] or m.cols != spaces[s]:
            raise DimensionMismatch(
                f"arrow {lab}: {s} -> {t} needs a {spaces[t]}x{spaces[s]} matrix, "
                f"got {m.rows}x{m.cols}"
            )
        checked[lab] = m
    return QuiverRep(quiver, spaces, checked)


def validate_module(m: AlgebraModule) -> AlgebraModule:
    """Check that the action is a unital algebra homomorphism A -> End(V).

    After the unit check, rho(g e_j) = rho(g) rho(e_j) is tested only for g
    in ``generating_set``: for associative A the g where it holds for all j
    form a subalgebra containing 1, so S suffices.  A failure reruns the scan
    over all basis pairs for its witness.
    """
    a = m.algebra
    if len(m.action) != a.dim:
        raise DimensionMismatch("one action matrix per basis element required")
    for mat in m.action:
        if mat.rows != m.dim or mat.cols != m.dim:
            raise DimensionMismatch("action matrices must be square of the module size")
    if m.act(a.unit) != Matrix.identity(m.dim):
        raise ValidationError("the unit does not act as the identity")

    def first_failure(lefts):
        for i in lefts:
            for j in range(a.dim):
                prod = a.mul_basis(i, j)
                rhs = m.act([prod.get(k, ZERO) for k in range(a.dim)])
                if m.action[i] * m.action[j] != rhs:
                    return i, j
        return None

    if first_failure(generating_set(a)):
        i, j = first_failure(range(a.dim))
        raise ValidationError(
            f"action is not multiplicative on "
            f"({a.basis_labels[i]}, {a.basis_labels[j]})",
            witness=(i, j),
        )
    return m


def regular_module(a: SCAlgebra) -> AlgebraModule:
    """V = A with basis elements acting by left multiplication: e_i acts by
    the matrix with T[i,j,k] in row k, column j, read off the table."""
    n = a.dim
    action = tuple(Matrix._trusted(n, n, tuple(
        tuple(a.mul_basis(i, j).get(k, ZERO) for j in range(n)) for k in range(n)))
        for i in range(n))
    return validate_module(AlgebraModule(a, n, action))


def check_rep_morphism(m1: AlgebraModule, m2: AlgebraModule, phi: Matrix) -> bool:
    """True iff phi intertwines the two actions on every basis element."""
    if m1.algebra is not m2.algebra and not same_table(m1.algebra, m2.algebra):
        raise ValidationError("modules live over different algebras")
    if phi.rows != m2.dim or phi.cols != m1.dim:
        raise DimensionMismatch("morphism matrix has the wrong shape")
    return all(
        phi * m1.action[i] == m2.action[i] * phi for i in range(m1.algebra.dim)
    )


def _geometric_composite(rep: QuiverRep, p: Path) -> Matrix:
    """Apply the path's arrows left to right: V_{s(p)} -> V_{t(p)}."""
    out = Matrix.identity(rep.spaces[p.start])
    for lab in p.arrows:
        out = rep.maps[lab] * out
    return out


def _block_offsets(rep: QuiverRep) -> dict[str, int]:
    offsets = {}
    at = 0
    for v in rep.quiver.vertices:
        offsets[v] = at
        at += rep.spaces[v]
    return offsets


def rep_to_module(
    rep: QuiverRep,
    bound: RelationSet | None = None,
    algebra: SCAlgebra | None = None,
) -> AlgebraModule:
    """The module over kQ (or kQ/I) carried by a quiver representation.

    Blocks of the direct sum follow quiver vertex order; the trivial path at
    v acts as the projection onto its block, and a path acts through the
    transpose of its composite placed in the (start, end) block.  When a
    relation set is given every relation must act as zero (checked with a
    distinct error before the module axioms are validated).
    """
    if bound is not None:
        for rel in bound.relations:
            acc = None
            for coeff, labels in rel:
                c = _geometric_composite(rep, path_from_arrows(rep.quiver, labels))
                c = c.scale(coeff)
                acc = c if acc is None else acc + c
            if acc is not None and not acc.is_zero():
                raise ValidationError(
                    "representation does not satisfy the bound: relation acts nonzero",
                    witness=rel,
                )
    if algebra is None:
        algebra = bound_algebra(bound)[0] if bound is not None else path_algebra(rep.quiver)
    if algebra.paths is None:
        raise QuivalgError("target algebra lacks path bookkeeping")
    offsets = _block_offsets(rep)
    total = sum(rep.spaces.values())
    action = []
    for p in algebra.paths:
        comp_t = _geometric_composite(rep, p).transpose()
        rows = [[ZERO] * total for _ in range(total)]
        r0, c0 = offsets[p.start], offsets[p.end]
        for r in range(comp_t.rows):
            for c in range(comp_t.cols):
                rows[r0 + r][c0 + c] = comp_t.entries[r][c]
        action.append(Matrix(total, total, rows))
    return validate_module(AlgebraModule(algebra, total, tuple(action)))


def module_to_rep(m: AlgebraModule) -> tuple[QuiverRep, Matrix]:
    """Recover a quiver representation from a module over a path algebra.

    V_v is the image of the trivial-path projection; each arrow matrix is the
    transpose of the projected action in the canonical image bases.  Also
    returns the change-of-basis matrix identifying the module carried by the
    recovered representation with the original one.
    """
    a = m.algebra
    if a.paths is None or a.quiver is None:
        raise QuivalgError("algebra lacks path bookkeeping")
    quiver: Quiver = a.quiver
    index = path_index(a)
    images: dict[str, Subspace] = {}
    for v in quiver.vertices:
        proj = m.action[index[(v, ())]]
        images[v] = canonicalize([proj.col(j) for j in range(m.dim)], m.dim)
    spaces = {v: images[v].dim for v in quiver.vertices}
    maps: dict[str, Matrix] = {}
    for lab, s, t in quiver.arrows:
        key = (s, (lab,))
        if key not in index:
            # the arrow died in the bound quotient: it acts as zero
            maps[lab] = Matrix.zero(spaces[t], spaces[s])
            continue
        act = m.action[index[key]]
        cols = []
        for b in images[t].basis_rows():
            w = act.apply(b)
            coords = images[s].coordinates_of(w)
            if coords is None:
                raise QuivalgError("arrow action leaves the vertex image")
            cols.append(coords)
        restricted = Matrix(
            spaces[s], spaces[t], list(zip(*cols)) if cols else [[]] * spaces[s]
        )
        maps[lab] = restricted.transpose()
    rep = validate_rep(quiver, spaces, maps)
    basis_cols: list = []
    for v in quiver.vertices:
        basis_cols.extend(images[v].basis_rows())
    change = Matrix(
        m.dim, len(basis_cols), list(zip(*basis_cols)) if basis_cols else [[]] * m.dim
    )
    return rep, change


def roundtrip_is_identity(m: AlgebraModule) -> bool:
    """module -> rep -> module lands on a module isomorphic via the block basis."""
    rep, change = module_to_rep(m)
    back = rep_to_module(rep, algebra=m.algebra)
    if change.rows != change.cols or change.rank() != change.rows:
        return False
    return check_rep_morphism(back, m, change)
