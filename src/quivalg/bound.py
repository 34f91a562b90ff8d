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
from .errors import FormatError, InadmissibleIdeal, ValidationError
from .linalg import (
    Subspace,
    Vec,
    _Echelon,
    canonicalize,
    frac,
    subspace_contains,
    vec_add,
    vec_scale,
    zero_vec,
)
from .quiver import Quiver, enumerate_paths, is_acyclic, longest_path_length, path_from_arrows

RelationTerm = tuple[Fraction, tuple[str, ...]]  # coefficient, arrow labels

# most paths a truncation may have; at this size (one loop at maxlen 511, or
# two loops at maxlen 8) check_admissible takes a few seconds
MAX_TRUNCATION_PATHS = 512


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

    Paths are counted by end vertex first: over MAX_TRUNCATION_PATHS, none is
    built.  When max_len exceeds the longest path of an acyclic Q, the
    truncation is inactive and the message names the path algebra instead."""
    if max_len < 1:
        raise ValidationError("truncation bound must be at least 1")
    ends, total = dict.fromkeys(q.vertices, 1), len(q.vertices)
    for _ in range(min(max_len, MAX_TRUNCATION_PATHS)):  # each length adds a path, or none after
        step = dict.fromkeys(q.vertices, 0)
        for _, s, t in q.arrows:
            step[t] += ends[s]
        ends, total = step, total + sum(step.values())
        if total > MAX_TRUNCATION_PATHS:
            if is_acyclic(q) and longest_path_length(q) < max_len:
                raise FormatError(f"path algebra has over {MAX_TRUNCATION_PATHS} "
                                  "paths (MAX_TRUNCATION_PATHS)")
            raise FormatError(f"truncation at maxlen {max_len} has over {MAX_TRUNCATION_PATHS} "
                              "paths (MAX_TRUNCATION_PATHS); lower maxlen")
    paths = enumerate_paths(q, max_len)
    return algebra_from_paths(q, paths, max_len=max_len)


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


def path_length_span(t: SCAlgebra, min_len: int) -> Subspace:
    return canonicalize(
        [t.basis_vec(i) for i, p in enumerate(t.paths) if p.length >= min_len], t.dim
    )


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
    r_square = path_length_span(t, 2)
    inside = subspace_contains(r_square, ideal)
    m = None
    for candidate in range(2, r.max_len + 2):
        if subspace_contains(ideal, path_length_span(t, candidate)):
            m = candidate
            break
    admissible = inside and m is not None and m <= r.max_len
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
