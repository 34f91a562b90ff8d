"""Relations on path algebras and bound path algebras kQ/I.

Cyclic quivers are handled through a user-supplied truncation bound M: all
computations happen inside the finite quotient by paths of length > M, and
admissibility is proved or refuted only within that bound.  For acyclic
quivers the default bound (longest path + 1) makes the truncation inactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    SCAlgebra, AlgebraHom, _quotient_by_ideal, algebra_from_paths, generating_set, memoized,
    path_index,
)
from .errors import InadmissibleIdeal, ValidationError
# canonicalize is not called here, but bench/test_bench.py checks its traced binding
from .linalg import Subspace, Vec, _Echelon, canonicalize, frac, vec_add, vec_scale, zero_vec
from .quiver import (Quiver, check_path_budget, enumerate_paths, is_acyclic,
                     longest_path_length, path_from_arrows)

RelationTerm = tuple[Fraction, tuple[str, ...]]  # coefficient, arrow labels


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Formal Q-combinations of paths of length >= 2, plus a truncation bound."""

    quiver: Quiver
    relations: tuple[tuple[RelationTerm, ...], ...]
    max_len: int

    def __post_init__(self):
        if self.max_len < 1:
            raise ValidationError("truncation bound must be at least 1")
        for rel in self.relations:
            for coeff, labels in rel:
                path = path_from_arrows(self.quiver, labels)
                if path.length < 2:
                    raise ValidationError(
                        "relations must be combinations of paths of length >= 2",
                        witness=labels,
                    )


def relation_set(
    quiver: Quiver,
    relations: Sequence[Sequence[tuple, ]],
    max_len: int | None = None,
) -> RelationSet:
    """Normalize raw (coeff, labels) terms; default bound covers acyclic quivers."""
    if max_len is None:
        if not is_acyclic(quiver):
            raise ValidationError("cyclic quivers need an explicit truncation bound")
        # admissibility needs m >= 2, so never default below 2
        max_len = max(2, longest_path_length(quiver) + 1)
    rels = tuple(
        tuple((frac(c), tuple(labels)) for c, labels in rel) for rel in relations
    )
    return RelationSet(quiver, rels, max_len)


def truncated_path_algebra(q: Quiver, max_len: int) -> SCAlgebra:
    """kQ modulo all paths of length > max_len; finite even for cyclic Q.
    Over MAX_TRUNCATION_PATHS paths, ``check_path_budget`` refuses it unbuilt."""
    if max_len < 1:
        raise ValidationError("truncation bound must be at least 1")
    check_path_budget(q, max_len)
    return algebra_from_paths(q, enumerate_paths(q, max_len), max_len=max_len)


def relation_vector(t: SCAlgebra, rel: Sequence[RelationTerm]) -> Vec:
    """The element of the truncated algebra named by one relation line."""
    out = zero_vec(t.dim)
    index = path_index(t)
    for coeff, labels in rel:
        path = path_from_arrows(t.quiver, labels)
        key = (path.start, path.arrows)
        if key not in index:
            raise ValidationError(
                f"relation path {'*'.join(labels)} exceeds the truncation bound",
                witness=labels,
            )
        out = vec_add(out, vec_scale(frac(coeff), t.basis_vec(index[key])))
    return out


def ideal_closure(t: SCAlgebra, generators: Sequence[Vec]) -> Subspace:
    """The two-sided ideal generated by the given vectors, in RREF.

    {x : x I <= I} is a subalgebra, so I is an ideal once S I + I S <= I for
    S = ``generating_set(t)``: each newly kept vector is multiplied by S once."""
    acc = _Echelon(t.dim)
    todo = [v for v in generators if acc.add(v)]
    gens = [t.basis_vec(g) for g in generating_set(t)]
    for v in todo:  # grows while it is walked
        if acc.full:
            break
        for g in gens:
            todo.extend(w for w in (t.mul_vec(g, v), t.mul_vec(v, g)) if acc.add(w))
    return acc.subspace()


def arrow_ideal(t: SCAlgebra) -> Subspace:
    """The ideal R_Q generated by the arrows: all paths of length >= 1."""
    arrows = [
        t.basis_vec(i) for i, p in enumerate(t.paths) if p.length == 1
    ]
    return ideal_closure(t, arrows)


def inside_square(t: SCAlgebra, ideal: Subspace) -> bool:
    """I <= R_Q^2.  R_Q^2 is the span of the paths of length >= 2, a
    coordinate subspace, so no RREF row of I may touch a shorter path."""
    return all(t.paths[k].length >= 2 for row in ideal._rows.values() for k in row)


def longest_path_outside(t: SCAlgebra, ideal: Subspace) -> int:
    """The longest length of a basis path not in I, or -1: R_Q^m, the span of
    the paths of length >= m, lies in I iff m exceeds it.  e_k lies in I iff
    I has the RREF row e_k, as e_k = sum c_r r forces c_r = 0 at other pivots."""
    inside = {p for p, row in ideal._rows.items() if len(row) == 1}
    return max((p.length for k, p in enumerate(t.paths) if k not in inside), default=-1)


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    m: int | None
    inside_square: bool
    undetermined: bool  # held only within the bound; raise M to decide

    def __bool__(self):
        return self.admissible


@memoized
def _admissibility(r: RelationSet) -> tuple[AdmissibilityReport, SCAlgebra, Subspace]:
    """The admissibility report with the truncation and ideal closure behind it."""
    t = truncated_path_algebra(r.quiver, r.max_len)
    ideal = ideal_closure(t, [relation_vector(t, rel) for rel in r.relations])
    inside = inside_square(t, ideal)
    m = max(2, longest_path_outside(t, ideal) + 1)  # at most max_len + 1
    admissible = inside and m <= r.max_len
    undetermined = inside and not admissible
    return AdmissibilityReport(admissible, m, inside, undetermined), t, ideal


def check_admissible(r: RelationSet) -> AdmissibilityReport:
    """Decide R_Q^m <= I <= R_Q^2 inside the truncation at max_len.

    The least m <= max_len with R_Q^m contained in the closure is returned;
    if the containment only holds vacuously at max_len + 1 the answer is
    "undetermined, raise M".
    """
    return _admissibility(r)[0]


def bound_algebra(r: RelationSet) -> tuple[SCAlgebra, AlgebraHom]:
    """The bound path algebra kQ/I and the projection from the truncation.

    Requires admissibility; since R_Q^m <= I the truncation is inactive and
    the quotient is canonically kQ/I.  The quotient basis keeps its path
    bookkeeping, so representation conversion works on bound algebras.
    """
    report, t, ideal = _admissibility(r)
    if not report.admissible:
        detail = "undetermined within the bound, raise M" if report.undetermined else (
            "ideal is not inside the arrow-ideal square" if not report.inside_square
            else "no power of the arrow ideal falls inside"
        )
        raise InadmissibleIdeal(f"relation set is not admissible: {detail}")
    # ideal_closure only returns once S*I + I*S adds nothing, and I <= R_Q^2
    # is proper: the ideal is proved, so skip quotient_algebra's re-proof.
    # R_Q^m <= I is proved too, so the paths shorter than m span kQ/I and
    # its dimension needs no second count
    return _quotient_by_ideal(t, ideal)
