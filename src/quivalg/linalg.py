"""Exact linear algebra over the rationals.

Everything in this module works with ``fractions.Fraction`` entries, so all
results are bit-exact and subspace equality is literal equality of the unique
reduced-row-echelon basis.  Vectors are plain tuples of Fractions; subspace
bases are stored as matrix *rows*.

All elimination happens in one place, the sparse echelon accumulator
``_Echelon``.  It keeps rows as ``{column: Fraction}`` dicts keyed by pivot,
reduces each incoming vector on insertion and drops it when it reduces to
zero, stops taking vectors once the rank equals the ambient dimension, and
back-substitutes once at the end to give the unique RREF.  ``Matrix.rref``,
``rank``, ``nullspace``, ``solve``, ``inverse``, ``canonicalize``,
``subspace_sum``, ``subspace_intersect``, ``bilinear_image`` and the
first-relation search ``_monic_relation`` (behind minimal polynomials of
algebra elements) all run through it.  Its outputs are wrapped by the
trusted ``Matrix._trusted`` constructor, which skips the entry coercion of
the public ``Matrix(...)``.  A ``Subspace`` computes its pivots and sparse
rows once, so membership tests (``contains_vector``, ``subspace_contains``,
``products_within``) reduce against them without building new subspaces.
Algebra quotients read their representatives off one right-to-left
``canonicalize`` of the ideal.

Conventions fixed here and used by every other module:

* subspaces are always kept in RREF with the natural column order; this is
  the global tie-breaking rule wherever a basis has to be chosen;
* tensor bases are ordered lexicographically with the left factor major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, QuivalgError

Scalar = Fraction
Vec = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``3/2`` and Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_scale(c: Fraction, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def is_zero_vec(x: Vec) -> bool:
    return not any(x)


# ---------------------------------------------------------------------------
# the echelon kernel
# ---------------------------------------------------------------------------


def _sparse(v: Sequence) -> SparseRow:
    """The nonzero entries of a dense vector as {column: Fraction}.

    Most zeros are the shared ``ZERO``; the identity test skips them without
    a call to ``Fraction.__bool__``.
    """
    out = {}
    for j, x in enumerate(v):
        if x is not ZERO and x:
            if type(x) is not Fraction:
                x = Fraction(x)
                if not x:
                    continue
            out[j] = x
    return out


def _axpy(v: SparseRow, row: SparseRow, c: Fraction) -> None:
    """v -= c * row in place, dropping entries that cancel."""
    for j, x in row.items():
        y = v.get(j)
        if y is None:
            v[j] = -c * x
        else:
            y -= c * x
            if y:
                v[j] = y
            else:
                del v[j]


def _reduce(v: SparseRow, rows: dict[int, SparseRow], order: Sequence[int]) -> None:
    """Reduce v in place by echelon rows, taking pivots in ascending order.

    A row only has entries at or right of its pivot, so one ascending pass
    clears every pivot column of v.
    """
    for p in order:
        c = v.get(p)
        if c:
            _axpy(v, rows[p], c)


def _dense(row: SparseRow, n: int) -> Vec:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


class _Echelon:
    """Sparse row-echelon accumulator; the only code in quivalg that eliminates.

    ``rows`` maps each pivot column to its row, a ``{column: Fraction}`` dict
    whose pivot entry is 1; ``order`` lists the pivots ascending.  Rows are
    reduced against earlier pivots only; ``reduced`` back-substitutes once.
    """

    __slots__ = ("n", "rows", "order")

    def __init__(self, n: int, seed: "Subspace | None" = None):
        self.n = n
        if seed is None:
            self.rows: dict[int, SparseRow] = {}
            self.order: list[int] = []
        else:
            self.rows = dict(seed._rows)
            self.order = list(seed.pivots)

    @property
    def full(self) -> bool:
        return len(self.order) == self.n

    def add(self, v: Sequence) -> bool:
        """Reduce a dense vector and keep it if independent; True when kept."""
        if len(v) != self.n:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {self.n}"
            )
        r = _sparse(v)
        _reduce(r, self.rows, self.order)
        if not r:
            return False
        p = min(r)
        c = r[p]
        if c != 1:
            for j, x in r.items():
                r[j] = x / c
        self.rows[p] = r
        order = self.order
        order.append(p)
        if len(order) > 1 and order[-2] > p:
            order.sort()
        return True

    def extend(self, vectors: Iterable[Sequence]) -> "_Echelon":
        """Add vectors until the span is full; later vectors are never read."""
        if not self.full:
            for v in vectors:
                self.add(v)
                if self.full:
                    break
        return self

    def reduced(self) -> dict[int, SparseRow]:
        """The RREF rows keyed by ascending pivot (one back-substitution).

        Rows are cleared highest pivot first, so every row subtracted is
        already reduced and touches no other pivot column.
        """
        rows = self.rows
        out: dict[int, SparseRow] = {}
        for p in reversed(self.order):
            row = rows[p]
            hits = [q for q in row if q != p and q in rows]
            if hits:
                row = dict(row)
                for q in hits:
                    _axpy(row, out[q], row[q])
            out[p] = row
        return {p: out[p] for p in self.order}

    def subspace(self) -> "Subspace":
        rows = self.reduced()
        n = self.n
        basis = Matrix._trusted(len(rows), n, tuple(_dense(r, n) for r in rows.values()))
        return Subspace(n, basis, tuple(rows), rows)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(
            self, "entries", tuple(tuple(frac(x) for x in r) for r in entries)
        )

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[Vec, ...]) -> "Matrix":
        """Wrap a tuple of Fraction tuples as is: no shape check, no coercion."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(rows, cols, (zero_vec(cols),) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(n, n, tuple(unit_vec(n, i) for i in range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(
            self.rows,
            self.cols,
            tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(
            self.rows,
            self.cols,
            tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i is sum_k a_ik (row k of other) over nonzero a_ik; each row of
        # other is read once, as (column, value) pairs
        n = other.cols
        rows = [_sparse(r).items() for r in other.entries]
        out = []
        for r in self.entries:
            acc = [ZERO] * n
            for a, row in zip(r, rows):
                if a is not ZERO and a:
                    for j, x in row:
                        acc[j] += a * x
            out.append(tuple(acc))
        return Matrix._trusted(self.rows, n, tuple(out))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._trusted(
            self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries)
        )

    def transpose(self) -> "Matrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._trusted(self.cols, self.rows, entries)

    def apply(self, v: Sequence) -> Vec:
        """Matrix times column vector; skips zero entries of the vector."""
        v = vec(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} vs {self.cols} columns")
        out = [ZERO] * self.rows
        for j, c in enumerate(v):
            if not c:
                continue
            for i, row in enumerate(self.entries):
                e = row[j]
                if e:
                    out[i] += c * e
        return tuple(out)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix shapes differ")

    def _reduced_rows(self) -> dict[int, SparseRow]:
        return _Echelon(self.cols).extend(self.entries).reduced()

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices."""
        rows = self._reduced_rows()
        n = self.cols
        entries = tuple(_dense(r, n) for r in rows.values())
        entries += (zero_vec(n),) * (self.rows - len(rows))
        return Matrix._trusted(self.rows, n, entries), tuple(rows)

    def rank(self) -> int:
        return len(_Echelon(self.cols).extend(self.entries).order)

    def nullspace(self) -> list[Vec]:
        """Basis of {x : M x = 0} (column-vector kernel)."""
        rows = self._reduced_rows()
        basis = []
        for f in range(self.cols):
            if f in rows:
                continue
            x = [ZERO] * self.cols
            x[f] = ONE
            for p, r in rows.items():
                c = r.get(f)
                if c:
                    x[p] = -c
            basis.append(tuple(x))
        return basis

    def solve(self, b: Sequence) -> Vec | None:
        """One solution of M x = b, or None if inconsistent."""
        b = vec(b)
        if len(b) != self.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        n = self.cols
        acc = _Echelon(n + 1).extend(r + (val,) for r, val in zip(self.entries, b))
        if n in acc.rows:
            return None
        x = [ZERO] * n
        for p, r in acc.reduced().items():
            x[p] = r.get(n, ZERO)
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        n = self.rows
        acc = _Echelon(2 * n).extend(
            r + unit_vec(n, i) for i, r in enumerate(self.entries)
        )
        if acc.order != list(range(n)):
            raise QuivalgError("matrix is singular")
        inv = []
        for r in acc.reduced().values():
            out = [ZERO] * n
            for j, x in r.items():
                if j >= n:
                    out[j - n] = x
            inv.append(tuple(out))
        return Matrix._trusted(n, n, tuple(inv))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its unique RREF row basis.

    ``pivots`` and the sparse rows are computed once, at construction; the
    echelon kernel passes them in directly.
    """

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...] = field(default=None, compare=False, repr=False)
    _rows: dict[int, SparseRow] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._rows is None:
            rows = {}
            for r in self.basis.entries:
                s = _sparse(r)
                rows[min(s)] = s
            object.__setattr__(self, "_rows", rows)
            object.__setattr__(self, "pivots", tuple(rows))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[Vec, ...]:
        return self.basis.entries

    def _residual(self, v: Sequence) -> SparseRow:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        r = _sparse(v)
        _reduce(r, self._rows, self.pivots)
        return r

    def contains_vector(self, v: Sequence) -> bool:
        return not self._residual(v)

    def coordinates_of(self, v: Sequence) -> Vec | None:
        """Coefficients of v over the RREF basis rows, or None if outside.

        Because the basis is in RREF the candidate coefficients can be read
        off the pivot columns; reducing by the cached rows verifies membership.
        """
        if self._residual(v):
            return None
        return tuple(frac(v[p]) for p in self.pivots)

    def __contains__(self, v) -> bool:
        return self.contains_vector(v)


def canonicalize(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """The unique RREF-basis subspace spanning the given vectors."""
    rows = list(vectors)
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(r)} in ambient dimension {ambient_dim}"
            )
    return _Echelon(ambient_dim).extend(rows).subspace()


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix(0, ambient_dim, []))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix.identity(ambient_dim))


def _check_same_ambient(u: Subspace, w: Subspace):
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _check_same_ambient(u, w)
    return _Echelon(u.ambient_dim, u).extend(w.basis_rows()).subspace()


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection by one Zassenhaus pass over Q^2n.

    The echelon is seeded with w's RREF rows, read as (w, 0), and then takes
    (x, x) for each row x of u.  A row whose pivot lies in the right half
    has a zero left half, and those right halves span u ∩ w.
    """
    _check_same_ambient(u, w)
    n = u.ambient_dim
    acc = _Echelon(2 * n, w).extend(x + x for x in u.basis_rows())
    meet = _Echelon(n)
    for p in acc.order:
        if p >= n:
            meet.rows[p - n] = {j - n: x for j, x in acc.rows[p].items()}
            meet.order.append(p - n)
    return meet.subspace()


def _monic_relation(vectors: Iterable[Sequence], n: int) -> tuple[list[Fraction], list[Sequence]]:
    """The first linear relation among v_0, v_1, ... in Q^n, by one echelon pass.

    Takes the rows (v_k | e_k) of Q^(2n+1).  The first row kept with its
    pivot in the right half has a zero left half, so its right half holds
    c with sum c_j v_j = 0.  Returns c scaled to c_k = 1 and the vectors
    v_0 .. v_k read; at most n + 1 are read.  Every earlier row pivots in
    the left half, so a right-half pivot is the last one in ``order``.
    """
    acc = _Echelon(2 * n + 1)
    read = []
    for k, v in zip(range(n + 1), vectors):
        read.append(v)
        acc.add(tuple(v) + unit_vec(n + 1, k))
        p = acc.order[-1]
        if p >= n:
            row = acc.rows[p]
            lead = row[n + k]
            return [row.get(n + j, ZERO) / lead for j in range(k + 1)], read
    raise QuivalgError("vectors ran out before a linear relation")


def subspace_contains(u: Subspace, w: Subspace) -> bool:
    """True iff w is contained in u."""
    _check_same_ambient(u, w)
    return all(u.contains_vector(r) for r in w.basis_rows())


def bilinear_image(mult, u: Subspace, w: Subspace) -> Subspace:
    """Span of all products mult(x, y) over basis vectors of u and w.

    ``mult`` is a bilinear map of vectors, such as ``SCAlgebra.mul_vec``.
    Products are formed lazily and no more are formed once they span the
    whole ambient space.
    """
    _check_same_ambient(u, w)
    products = (mult(x, y) for x in u.basis_rows() for y in w.basis_rows())
    return _Echelon(u.ambient_dim).extend(products).subspace()


def products_within(mult, u: Subspace, w: Subspace, s: Subspace) -> bool:
    """True iff every product mult(x, y) with x in u and y in w lies in s.

    Equivalent to ``subspace_contains(s, bilinear_image(mult, u, w))``, but
    each product of basis rows is reduced against s's cached rows and the
    test stops at the first product outside s.
    """
    _check_same_ambient(u, w)
    _check_same_ambient(u, s)
    return all(
        s.contains_vector(mult(x, y))
        for x in u.basis_rows()
        for y in w.basis_rows()
    )


def dual_map(m: Matrix) -> Matrix:
    """Matrix of the dual operator in the dual bases (the transpose)."""
    return m.transpose()


def double_dual_naturality(m: Matrix) -> bool:
    """Check the naturality square of the evaluation map into the double dual.

    phi_U and phi_V are identity matrices in the double-dual coordinates
    induced by the chosen bases; the double dual of the operator is built by
    applying the dual-map construction twice.  Always true.
    """
    double_dual = dual_map(dual_map(m))
    phi_u = Matrix.identity(m.cols)
    phi_v = Matrix.identity(m.rows)
    return phi_v * m == double_dual * phi_u


def curry(m: Matrix, dims: tuple[int, int, int]) -> tuple[Matrix, ...]:
    """Hom(U (x) V, W) -> Hom(U, Hom(V, W)) in lexicographic tensor bases.

    The input has shape dimW x (dimU * dimV) with the tensor basis ordered
    left-factor major; the output assigns to each U-basis vector a
    dimW x dimV matrix.
    """
    du, dv, dw = dims
    if m.rows != dw or m.cols != du * dv:
        raise DimensionMismatch(
            f"expected {dw}x{du * dv} for dims {dims}, got {m.rows}x{m.cols}"
        )
    return tuple(
        Matrix(dw, dv, [[m.entries[r][i * dv + j] for j in range(dv)] for r in range(dw)])
        for i in range(du)
    )

def uncurry(mats: Sequence[Matrix], dims: tuple[int, int, int]) -> Matrix:
    du, dv, dw = dims
    if len(mats) != du or any(n.rows != dw or n.cols != dv for n in mats):
        raise DimensionMismatch(f"expected {du} matrices of shape {dw}x{dv}")
    return Matrix(
        dw, du * dv,
        [[mats[i].entries[r][j] for i in range(du) for j in range(dv)] for r in range(dw)],
    )


def curry_roundtrip(dims: tuple[int, int, int], m: Matrix) -> bool:
    """Curry then uncurry and compare entrywise.  Always the identity."""
    return uncurry(curry(m, dims), dims) == m
