"""Finite dimensional algebras given by structure constants.

The multiplication table is stored sparsely: ``mult[(i, j)]`` is a dict
mapping basis index k to the coefficient of e_k in e_i * e_j, with zero
products simply absent.  All algebras live over the exact rationals.

The radical is computed from the trace form of the left regular
representation (Dickson's criterion, valid in characteristic zero); the
split test for basic algebras works by simultaneous rational diagonalization
of the commutative quotient and rejects inputs that fail to split instead of
assuming an algebraically closed field.

Algebras are frozen; the radical, the semisimple quotient and the path index
are memoized on the object, so each lives exactly as long as its algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log2
from typing import Sequence

import sympy

from .errors import (
    DimensionMismatch,
    NotBasicError,
    NotSplitOverQQ,
    QuivalgError,
    ValidationError,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vec,
    bilinear_image,
    canonicalize,
    frac,
    full_subspace,
    is_zero_vec,
    products_within,
    quotient_basis,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
    vstack,
    zero_subspace,
    zero_vec,
)

SparseTable = dict[tuple[int, int], dict[int, Fraction]]


def memoized(fn):
    """Memoize a one-argument function in its (frozen) argument's ``__dict__``.

    The answer lives exactly as long as the argument, and repeated calls
    return the same object.
    """
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(obj):
        memo = obj.__dict__
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    return wrapper


@dataclass(frozen=True, eq=False)
class SCAlgebra:
    """A unital associative algebra over Q with a distinguished basis."""

    dim: int
    basis_labels: tuple[str, ...]
    mult: SparseTable
    unit: Vec
    paths: tuple | None = None   # path bookkeeping for (bound) path algebras
    quiver: object | None = None
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.basis_labels)})

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise QuivalgError(f"unknown basis label {label!r}") from None

    def basis_vec(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return self.mult.get((i, j), {}).get(k, ZERO)

    def mul_basis(self, i: int, j: int) -> dict[int, Fraction]:
        return self.mult.get((i, j), {})

    def mul_vec(self, x: Sequence, y: Sequence) -> Vec:
        out = [ZERO] * self.dim
        mult = self.mult
        # most zeros are the shared ZERO: the identity test is much cheaper
        # than Fraction.__bool__, which still catches any other zero
        ys = [(j, yj) for j, yj in enumerate(y) if yj is not ZERO and yj]
        for i, xi in enumerate(x):
            if xi is ZERO or not xi:
                continue
            for j, yj in ys:
                d = mult.get((i, j))
                if not d:
                    continue
                c = xi * yj
                for k, t in d.items():
                    out[k] += c * t
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        cols = [self.mul_vec(x, self.basis_vec(j)) for j in range(self.dim)]
        return Matrix(self.dim, self.dim, list(zip(*cols)) if cols else [])

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        cols = [self.mul_vec(self.basis_vec(j), x) for j in range(self.dim)]
        return Matrix(self.dim, self.dim, list(zip(*cols)) if cols else [])

    def full_space(self) -> Subspace:
        return full_subspace(self.dim)

    def describe(self, x: Sequence) -> str:
        terms = [
            f"{c}*{self.basis_labels[i]}" for i, c in enumerate(x) if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def _normalize_table(dim: int, table) -> SparseTable:
    """Accept a sparse dict or a dense 3d nested sequence."""
    mult: SparseTable = {}
    if isinstance(table, dict):
        for (i, j), d in table.items():
            entry = {k: frac(c) for k, c in d.items() if frac(c) != 0}
            if entry:
                mult[(i, j)] = entry
        return mult
    for i, row in enumerate(table):
        for j, prod in enumerate(row):
            entry = {k: frac(c) for k, c in enumerate(prod) if frac(c) != 0}
            if entry:
                mult[(i, j)] = entry
    return mult


def make_algebra(labels: Sequence[str], table, unit: Sequence, **bookkeeping) -> SCAlgebra:
    labels = tuple(str(l) for l in labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate basis labels", witness=labels)
    dim = len(labels)
    a = SCAlgebra(dim, labels, _normalize_table(dim, table), vec(unit), **bookkeeping)
    return validate_algebra(a)


def validate_algebra(a: SCAlgebra) -> SCAlgebra:
    """Exhaustively verify associativity and the unit laws."""
    n = a.dim
    if len(a.unit) != n:
        raise DimensionMismatch("unit vector has wrong length")
    for i in range(n):
        e = a.basis_vec(i)
        if a.mul_vec(a.unit, e) != e or a.mul_vec(e, a.unit) != e:
            raise ValidationError(
                f"unit law fails on basis element {a.basis_labels[i]}", witness=i
            )
    for i in range(n):
        for j in range(n):
            d_ij = a.mul_basis(i, j)
            for k in range(n):
                lhs = [ZERO] * n
                for l, c in d_ij.items():
                    for m, t in a.mul_basis(l, k).items():
                        lhs[m] += c * t
                rhs = [ZERO] * n
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


def same_table(a: SCAlgebra, b: SCAlgebra) -> bool:
    """Identical dimension, unit and structure constants (labels ignored)."""
    return a.dim == b.dim and a.unit == b.unit and a.mult == b.mult


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def matrix_algebra(n: int) -> SCAlgebra:
    """Full matrix algebra M_n(Q), basis of matrix units in row-major order."""
    if n < 1:
        raise ValidationError("matrix algebra needs n >= 1")
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return _matrix_unit_algebra(n, units)


def upper_triangular(n: int) -> SCAlgebra:
    """Upper triangular matrices U_n(Q), matrix units row-major."""
    if n < 1:
        raise ValidationError("upper triangular algebra needs n >= 1")
    units = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return _matrix_unit_algebra(n, units)


def _matrix_unit_algebra(n: int, units: list[tuple[int, int]]) -> SCAlgebra:
    sep = "" if n <= 9 else "_"
    labels = [f"E{i}{sep}{j}" for i, j in units]
    index = {u: k for k, u in enumerate(units)}
    table: SparseTable = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k and (i, l) in index:
                table[(a, b)] = {index[(i, l)]: ONE}
    unit = [ZERO] * len(units)
    for i in range(1, n + 1):
        unit[index[(i, i)]] = ONE
    return make_algebra(labels, table, unit)


def truncated_poly(m: int) -> SCAlgebra:
    """Q[x]/(x^m) with basis 1, x, ..., x^(m-1)."""
    if m < 1:
        raise ValidationError("truncated polynomial algebra needs m >= 1")
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, m)]
    table: SparseTable = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                table[(i, j)] = {i + j: ONE}
    return make_algebra(labels, table, unit_vec(m, 0))


def check_group_table(table: Sequence[Sequence[int]]) -> int:
    """Verify a Cayley table is a group; returns the identity index."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValidationError("Cayley table is not square")
    if any(not (0 <= x < n) for row in table for x in row):
        raise ValidationError("Cayley table entries out of range")
    identity = next(
        (e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n))),
        None,
    )
    if identity is None:
        raise ValidationError("Cayley table has no identity element")
    for g in range(n):
        if not any(table[g][h] == identity == table[h][g] for h in range(n)):
            raise ValidationError(f"element {g} has no inverse", witness=g)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValidationError(
                        "Cayley table is not associative", witness=(a, b, c)
                    )
    return identity


def group_algebra(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> SCAlgebra:
    """Group algebra Q[G] from a Cayley table (checked to be a group)."""
    n = len(table)
    identity = check_group_table(table)
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    mult: SparseTable = {
        (i, j): {table[i][j]: ONE} for i in range(n) for j in range(n)
    }
    return make_algebra(labels, mult, unit_vec(n, identity))


def cyclic_group_table(m: int) -> list[list[int]]:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def symmetric_group_table(n: int) -> tuple[list[list[int]], list[str]]:
    """Cayley table of S_n acting on the right (perm composition p then q)."""
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[k]] for k in range(n))] for q in perms] for p in perms
    ]
    labels = ["".join(str(x) for x in p) for p in perms]
    return table, labels


def direct_sum(*algebras: SCAlgebra) -> SCAlgebra:
    """Direct product of algebras with block-diagonal multiplication."""
    if not algebras:
        raise ValidationError("direct sum of nothing")
    labels: list[str] = []
    seen = set()
    for k, a in enumerate(algebras):
        for l in a.basis_labels:
            labels.append(l if l not in seen else f"s{k}.{l}")
            seen.add(labels[-1])
    table: SparseTable = {}
    unit: list[Fraction] = []
    offset = 0
    for a in algebras:
        for (i, j), d in a.mult.items():
            table[(offset + i, offset + j)] = {offset + k: c for k, c in d.items()}
        unit.extend(a.unit)
        offset += a.dim
    return make_algebra(labels, table, unit)


def algebra_from_paths(q, paths: Sequence, max_len: int | None) -> SCAlgebra:
    """Structure-constant algebra on a path basis with concatenation product.

    For max_len = None the path list must be multiplicatively closed (the
    acyclic case); otherwise products longer than max_len are zero.
    """
    labels = [p.label for p in paths]
    if len(set(labels)) != len(labels):
        raise ValidationError("path labels collide; rename arrows", witness=labels)
    index = _index_paths(paths)
    table: SparseTable = {}
    for i, u in enumerate(paths):
        for j, v in enumerate(paths):
            if u.end != v.start:
                continue
            combined = u.arrows + v.arrows
            if max_len is not None and len(combined) > max_len:
                continue
            k = index.get((u.start, combined))
            if k is None:
                raise QuivalgError("path basis is not closed under concatenation")
            table[(i, j)] = {k: ONE}
    unit = [ZERO] * len(paths)
    for i, p in enumerate(paths):
        if p.length == 0:
            unit[i] = ONE
    return make_algebra(
        labels, table, unit, paths=tuple(paths), quiver=q
    )


def _index_paths(paths: Sequence) -> dict[tuple, int]:
    return {(p.start, p.arrows): i for i, p in enumerate(paths)}


@memoized
def path_index(a: SCAlgebra) -> dict[tuple, int]:
    """Basis index of each path, keyed by (start vertex, arrow labels)."""
    if a.paths is None:
        raise QuivalgError("algebra lacks path bookkeeping")
    return _index_paths(a.paths)


BUILDER_KINDS = (
    "matrix", "upper_triangular", "truncated_poly", "group_algebra",
    "direct_sum", "from_path_algebra",
)


def build(kind: str, *params) -> SCAlgebra:
    """Dispatch table over the named builders."""
    from .quiver import path_algebra

    kind = kind.replace("-", "_")
    if kind == "matrix":
        return matrix_algebra(int(params[0]))
    if kind == "upper_triangular":
        return upper_triangular(int(params[0]))
    if kind == "truncated_poly":
        return truncated_poly(int(params[0]))
    if kind == "group_algebra":
        return group_algebra(*params)
    if kind == "direct_sum":
        return direct_sum(*params)
    if kind == "from_path_algebra":
        return path_algebra(params[0])
    raise QuivalgError(f"unknown builder kind {kind!r}; choose from {BUILDER_KINDS}")


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RadicalFiltration:
    """The chain A = J^0 >= J^1 >= ... terminating at zero."""

    algebra: SCAlgebra
    powers: tuple[Subspace, ...]

    @property
    def radical(self) -> Subspace:
        return self.powers[1] if len(self.powers) > 1 else self.powers[0]

    @property
    def nilpotence_index(self) -> int:
        """Least d with J^d = 0."""
        return next(i for i, s in enumerate(self.powers) if s.dim == 0)

    def power(self, i: int) -> Subspace:
        if i < len(self.powers):
            return self.powers[i]
        return zero_subspace(self.algebra.dim)


@memoized
def radical(a: SCAlgebra) -> RadicalFiltration:
    """Radical filtration via the trace form of the left regular representation.

    J(A) is the nullspace of the Gram matrix G[i][j] = trace(L_{e_i e_j});
    higher powers come from iterated products J^(i+1) = J * J^i.  Each power
    is verified to be a two-sided ideal.  Memoized on the algebra.
    """
    n = a.dim
    if n == 0:
        return RadicalFiltration(a, (zero_subspace(0),))
    left_traces = [ZERO] * n
    for (l, k), d in a.mult.items():
        c = d.get(k)
        if c:
            left_traces[l] += c
    gram = [[ZERO] * n for _ in range(n)]
    for (i, j), d in a.mult.items():
        gram[i][j] = sum((c * left_traces[l] for l, c in d.items()), ZERO)
    j1 = canonicalize(Matrix(n, n, gram).transpose().nullspace(), n)
    powers = [full_subspace(n), j1]
    while powers[-1].dim > 0:
        nxt = bilinear_image(a.mul_vec, j1, powers[-1])
        if nxt.dim >= powers[-1].dim:
            raise QuivalgError("radical is not nilpotent; input algebra is broken")
        powers.append(nxt)
    full = powers[0]
    for s in powers[1:]:
        for left, right in ((full, s), (s, full)):
            if not products_within(a.mul_vec, left, right, s):
                raise QuivalgError("radical power is not a two-sided ideal")
    return RadicalFiltration(a, tuple(powers))


def is_semisimple(a: SCAlgebra) -> bool:
    return radical(a).radical.dim == 0


def is_commutative(a: SCAlgebra) -> bool:
    return all(
        a.mul_basis(i, j) == a.mul_basis(j, i)
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
    )


# ---------------------------------------------------------------------------
# splitting the commutative semisimple quotient over Q
# ---------------------------------------------------------------------------


def _restricted_left_mult(a: SCAlgebra, g: int, s: Subspace) -> Matrix:
    cols = []
    for row in s.basis_rows():
        image = a.mul_vec(a.basis_vec(g), row)
        coords = s.coordinates_of(image)
        if coords is None:
            raise QuivalgError("subspace is not invariant under multiplication")
        cols.append(coords)
    return Matrix(s.dim, s.dim, list(zip(*cols)) if cols else [])


def _minimal_polynomial(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, lowest degree first."""
    s = m.rows
    power = Matrix.identity(s)
    flat_powers = []
    while True:
        flat = tuple(x for row in power.entries for x in row)
        if flat_powers:
            stacked = Matrix(len(flat_powers), s * s, flat_powers).transpose()
            sol = stacked.solve(flat)
            if sol is not None:
                return [-c for c in sol] + [ONE]
        flat_powers.append(flat)
        power = power * m
        if len(flat_powers) > s + 1:
            raise QuivalgError("minimal polynomial search failed to terminate")


def _factor_over_q(coeffs: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factors (lowest-first coefficient lists) with multiplicities."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x,
        domain="QQ",
    )
    _, factors = poly.factor_list()
    out = []
    for fac, exp in factors:
        cs = [frac(sympy.Rational(c).p) / frac(sympy.Rational(c).q) for c in fac.all_coeffs()]
        out.append((list(reversed(cs)), int(exp)))
    return out


def _eval_poly_at_matrix(coeffs: list[Fraction], m: Matrix) -> Matrix:
    out = Matrix.zero(m.rows, m.rows)
    for c in reversed(coeffs):
        out = out * m
        if c != 0:
            out = out + Matrix.identity(m.rows).scale(c)
    return out


def split_blocks(a: SCAlgebra, allow_nonsplit: bool) -> list[Subspace]:
    """Decompose a commutative semisimple algebra into its simple factors.

    Refines invariant subspaces by kernels of irreducible factors of the
    minimal polynomials of the basis multiplication operators.  With
    allow_nonsplit=False any irreducible factor of degree > 1 raises
    NotSplitOverQQ; otherwise larger field factors are kept whole.  Blocks
    come back sorted by leading pivot, which fixes all downstream orderings.
    """
    blocks = [full_subspace(a.dim)]
    for g in range(a.dim):
        refined: list[Subspace] = []
        for s in blocks:
            if s.dim <= 1:
                refined.append(s)
                continue
            m = _restricted_left_mult(a, g, s)
            factors = _factor_over_q(_minimal_polynomial(m))
            if not allow_nonsplit:
                bad = [f for f, _ in factors if len(f) > 2]
                if bad:
                    raise NotSplitOverQQ(
                        "algebra does not split over Q",
                        witness=(a.basis_labels[g], bad[0]),
                    )
            if len(factors) == 1 and factors[0][1] == 1:
                refined.append(s)
                continue
            for fac, exp in factors:
                power = fac
                for _ in range(exp - 1):
                    power = _poly_mul(power, fac)
                kernel = _eval_poly_at_matrix(power, m).nullspace()
                ambient_vectors = []
                for k in kernel:
                    v = zero_vec(a.dim)
                    for c, row in zip(k, s.basis_rows()):
                        if c != 0:
                            v = vec_add(v, vec_scale(c, row))
                    ambient_vectors.append(v)
                piece = canonicalize(ambient_vectors, a.dim)
                if piece.dim:
                    refined.append(piece)
        blocks = refined
    blocks.sort(key=lambda s: (s.pivots[0], s.basis.entries[0]) if s.dim else (a.dim, ()))
    if sum(s.dim for s in blocks) != a.dim:
        raise QuivalgError("block refinement lost dimensions; input not semisimple?")
    return blocks


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def primitive_idempotents_split(a: SCAlgebra) -> tuple[Vec, ...]:
    """The n primitive idempotents of a commutative algebra isomorphic to Q^n.

    Raises NotSplitOverQQ when the algebra has a field factor bigger than Q.
    Each 1-dimensional block vector v satisfies v*v = c v with c nonzero; the
    idempotent is v/c.  Ordered by block pivot.
    """
    if not is_commutative(a):
        raise NotBasicError("primitive idempotents via splitting need commutativity")
    blocks = split_blocks(a, allow_nonsplit=False)
    if any(b.dim != 1 for b in blocks):
        raise NotSplitOverQQ("algebra does not split over Q")
    idempotents = []
    for b in blocks:
        v = b.basis_rows()[0]
        w = a.mul_vec(v, v)
        c = w[b.pivots[0]]
        if c == 0 or w != vec_scale(c, v):
            raise ValidationError("block is not closed; input not semisimple")
        idempotents.append(vec_scale(1 / c, v))
    return tuple(idempotents)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraPredicates:
    semisimple: bool
    basic: bool
    connected: bool


@memoized
def semisimple_quotient(a: SCAlgebra) -> tuple[SCAlgebra, "AlgebraHom"]:
    """A/J(A) with its projection; memoized on the algebra so orbit keys stay comparable."""
    return quotient_algebra(a, radical(a).radical)


def is_basic(a: SCAlgebra) -> bool:
    """True iff A/J(A) is isomorphic to Q^n.

    Noncommutative quotients are definitively not basic; commutative
    quotients that fail to split raise NotSplitOverQQ.
    """
    b, _ = semisimple_quotient(a)
    if not is_commutative(b):
        return False
    primitive_idempotents_split(b)
    return True


def center_subalgebra(a: SCAlgebra) -> tuple[SCAlgebra, Subspace]:
    """The center as an algebra in its own coordinates, plus its subspace."""
    n = a.dim
    stacked = vstack(
        [a.left_mult_matrix(a.basis_vec(i)) - a.right_mult_matrix(a.basis_vec(i))
         for i in range(n)]
    ) if n else Matrix(0, 0, [])
    space = canonicalize(stacked.nullspace(), n)
    labels = [f"z{k}" for k in range(space.dim)]
    table: SparseTable = {}
    rows = space.basis_rows()
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            coords = space.coordinates_of(a.mul_vec(x, y))
            if coords is None:
                raise QuivalgError("center is not closed under multiplication")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    unit_coords = space.coordinates_of(a.unit)
    if unit_coords is None:
        raise QuivalgError("unit is not central")
    center = make_algebra(labels, table, unit_coords)
    return center, space


def is_connected(a: SCAlgebra) -> bool:
    """True iff 0 and 1 are the only central idempotents.

    Counted through the simple factors of the semisimplified center: the
    idempotents of a product of fields are the 0/1 tuples, so connectedness
    is exactly "one factor".  Field factors bigger than Q are fine here.
    """
    center, _ = center_subalgebra(a)
    zs, _ = semisimple_quotient(center)
    return len(split_blocks(zs, allow_nonsplit=True)) == 1


def predicates(a: SCAlgebra) -> AlgebraPredicates:
    return AlgebraPredicates(
        semisimple=is_semisimple(a), basic=is_basic(a), connected=is_connected(a)
    )


# ---------------------------------------------------------------------------
# quotients and homomorphisms
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AlgebraHom:
    """A unital multiplicative linear map, column-vector convention."""

    source: SCAlgebra
    target: SCAlgebra
    matrix: Matrix  # target.dim x source.dim
    surjective: bool | None = None
    section: Matrix | None = None  # for quotient projections: reps as columns

    def apply(self, x: Sequence) -> Vec:
        return self.matrix.apply(x)

    def then(self, other: "AlgebraHom") -> "AlgebraHom":
        """Apply self first, then other.

        Accepts a middle algebra that is a distinct object as long as it has
        the same labeled multiplication table.
        """
        mid_ok = other.source is self.target or (
            other.source.basis_labels == self.target.basis_labels
            and same_table(other.source, self.target)
        )
        if not mid_ok:
            raise DimensionMismatch("homomorphisms do not compose")
        return AlgebraHom(self.source, other.target, other.matrix * self.matrix)


def identity_hom(a: SCAlgebra) -> AlgebraHom:
    return AlgebraHom(a, a, Matrix.identity(a.dim), surjective=True)


def hom_from_images(source: SCAlgebra, target: SCAlgebra, images: Sequence[Sequence]) -> AlgebraHom:
    """Build the hom sending the i-th basis element to images[i], then validate."""
    cols = [vec(im) for im in images]
    if len(cols) != source.dim or any(len(c) != target.dim for c in cols):
        raise DimensionMismatch("wrong number or shape of basis images")
    matrix = Matrix(target.dim, source.dim, list(zip(*cols)) if cols else [[]] * target.dim)
    return validate_hom(AlgebraHom(source, target, matrix))


def validate_hom(f: AlgebraHom, check_radical_image: bool = True) -> AlgebraHom:
    """Verify unitality and multiplicativity on all basis pairs.

    Sets the surjectivity flag from the rank; for surjective maps also
    asserts f(J(A)) = J(B), which every surjection must satisfy.
    """
    a, b = f.source, f.target
    if f.matrix.rows != b.dim or f.matrix.cols != a.dim:
        raise DimensionMismatch("hom matrix has the wrong shape")
    if f.apply(a.unit) != b.unit:
        raise ValidationError("homomorphism does not preserve the unit")
    cols = [f.matrix.col(i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = [ZERO] * b.dim
            for k, c in a.mul_basis(i, j).items():
                for m, t in enumerate(cols[k]):
                    if t:
                        lhs[m] += c * t
            if tuple(lhs) != b.mul_vec(cols[i], cols[j]):
                raise ValidationError(
                    f"not multiplicative on ({a.basis_labels[i]}, {a.basis_labels[j]})",
                    witness=(i, j),
                )
    f.surjective = f.matrix.rank() == b.dim
    if f.surjective and check_radical_image:
        ja = radical(a).radical
        jb = radical(b).radical
        image = canonicalize([f.apply(r) for r in ja.basis_rows()], b.dim)
        if image != jb:
            raise ValidationError("surjective hom does not map J(A) onto J(B)")
    return f


def is_isomorphism(f: AlgebraHom) -> bool:
    return f.matrix.rows == f.matrix.cols and f.matrix.rank() == f.matrix.rows


def quotient_algebra(a: SCAlgebra, ideal: Subspace) -> tuple[SCAlgebra, AlgebraHom]:
    """Quotient by a proper two-sided ideal, with the projection hom.

    Coset representatives come from deterministic RREF-pivot completion; when
    they are all standard basis vectors their labels (and any path
    bookkeeping) carry over to the quotient.
    """
    if ideal.ambient_dim != a.dim:
        raise DimensionMismatch("ideal lives in the wrong space")
    full = a.full_space()
    if ideal.dim >= a.dim and a.dim > 0:
        raise ValidationError("cannot quotient by the whole algebra")
    for left, right in ((full, ideal), (ideal, full)):
        if not products_within(a.mul_vec, left, right, ideal):
            raise ValidationError("subspace is not a two-sided ideal")
    reps = quotient_basis(full, ideal)
    r = len(reps)
    rep_indices = []
    for v in reps:
        nonzero = [k for k, c in enumerate(v) if c != 0]
        rep_indices.append(nonzero[0] if len(nonzero) == 1 and v[nonzero[0]] == 1 else None)
    if all(k is not None for k in rep_indices):
        labels = [a.basis_labels[k] for k in rep_indices]
        paths = tuple(a.paths[k] for k in rep_indices) if a.paths else None
    else:
        labels = [f"q{k}" for k in range(r)]
        paths = None
    basis_matrix = Matrix(a.dim, a.dim, list(reps) + list(ideal.basis_rows()))
    inv = basis_matrix.inverse()
    # row k of the projection reads off the rep_k coefficient of each e_i
    proj_matrix = Matrix(
        r, a.dim, [tuple(inv.entries[i][k] for i in range(a.dim)) for k in range(r)]
    )

    def project(x: Sequence) -> Vec:
        return proj_matrix.apply(x)

    table: SparseTable = {}
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            coords = project(a.mul_vec(x, y))
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    quotient = make_algebra(
        labels, table, project(a.unit),
        paths=paths, quiver=a.quiver if paths else None,
    )
    section = Matrix(a.dim, r, list(zip(*reps)) if reps else [[]] * a.dim)
    proj = AlgebraHom(a, quotient, proj_matrix, section=section)
    validate_hom(proj, check_radical_image=False)
    kernel = canonicalize(proj_matrix.nullspace(), a.dim)
    if kernel != ideal:
        raise QuivalgError("projection kernel disagrees with the ideal")
    return quotient, proj


# ---------------------------------------------------------------------------
# idempotent lifting
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class IdempotentSet:
    algebra: SCAlgebra
    idempotents: tuple[Vec, ...]


def _newton_idempotent(a: SCAlgebra, x: Vec, cap: int) -> Vec:
    """Iterate e <- 3e^2 - 2e^3; converges because the defect lies in J."""
    e = x
    for _ in range(cap):
        sq = a.mul_vec(e, e)
        if sq == e:
            return e
        cube = a.mul_vec(sq, e)
        e = vec_sub(vec_scale(frac(3), sq), vec_scale(frac(2), cube))
    if a.mul_vec(e, e) == e:
        return e
    raise QuivalgError("idempotent lifting did not converge; impossible for nilpotent J")


def lift_idempotents(a: SCAlgebra) -> IdempotentSet:
    """A complete set of orthogonal primitive idempotents of a basic algebra.

    Lifts the canonical idempotents of A/J along the projection by Newton
    iteration, orthogonalizing sequentially with f <- (1-s) f (1-s), and
    verifies completeness, orthogonality and primitivity.
    """
    filt = radical(a)
    b, proj = semisimple_quotient(a)
    j = filt.radical
    if not is_commutative(b):
        raise NotBasicError("algebra is not basic: semisimple quotient not commutative")
    quotient_idems = primitive_idempotents_split(b)
    cap = ceil(log2(a.dim + 1)) + 2
    lifted: list[Vec] = []
    partial_sum = zero_vec(a.dim)
    for u in quotient_idems:
        x = proj.section.apply(u)
        e = _newton_idempotent(a, x, cap)
        t = vec_sub(a.unit, partial_sum)
        f = a.mul_vec(a.mul_vec(t, e), t)
        f = _newton_idempotent(a, f, cap)
        if proj.apply(f) != u:
            raise QuivalgError("lifted idempotent drifted off its class")
        for prev in lifted:
            if not is_zero_vec(a.mul_vec(f, prev)) or not is_zero_vec(a.mul_vec(prev, f)):
                raise QuivalgError("lifted idempotents are not orthogonal")
        lifted.append(f)
        partial_sum = vec_add(partial_sum, f)
    if partial_sum != a.unit:
        raise ValidationError("lifted idempotents do not sum to the unit")
    for e in lifted:
        corner = canonicalize(
            [a.mul_vec(a.mul_vec(e, a.basis_vec(k)), e) for k in range(a.dim)], a.dim
        )
        corner_rad = canonicalize(
            [a.mul_vec(a.mul_vec(e, r), e) for r in j.basis_rows()], a.dim
        )
        if corner.dim != corner_rad.dim + 1:
            raise ValidationError("lifted idempotent is not primitive")
    return IdempotentSet(a, tuple(lifted))


def unipotent_inverse(a: SCAlgebra, w: Vec) -> Vec:
    """(1 + w)^(-1) for w in the radical, via the finite geometric series."""
    result = a.unit
    term = a.unit
    for _ in range(a.dim + 1):
        term = vec_scale(frac(-1), a.mul_vec(term, w))
        if is_zero_vec(term):
            return result
        result = vec_add(result, term)
    raise QuivalgError("element 1 + w is not unipotent; w outside the radical?")
