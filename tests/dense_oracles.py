"""Dense reference constructions shared by the tests.

Most helpers build with whole matrices (inverses, stacked operator matrices,
nullspaces of stacks) what the library now reads off sparse rows or tables,
and tests require the library's answer to equal theirs literally; the rest
move an algebra to another basis for those tests.
"""

from fractions import Fraction

from quivalg import adjunction as adj
from quivalg import algebra as alg
from quivalg.errors import QuivalgError, ValidationError
from quivalg.linalg import (
    Matrix, _check_same_ambient, _Echelon, canonicalize, is_zero_vec, subspace_contains,
    subspace_intersect, vec_add, vec_scale, zero_subspace, zero_vec,
)
from quivalg.vquiver import _path_images, path_algebra_vq


def vstack(ms):
    """The rows of the matrices ms, one block under the other."""
    cols = ms[0].cols
    assert all(m.cols == cols for m in ms)
    return Matrix(sum(m.rows for m in ms), cols, [r for m in ms for r in m.entries])


def quotient_basis(u, w):
    """Vectors of u completing a basis of w to a basis of u.

    Deterministic RREF-pivot completion: walk u's RREF rows in order and keep
    the ones independent of w and of the rows already kept (one echelon pass
    seeded with w).  Returns exactly dim(u) - dim(w) vectors.
    """
    _check_same_ambient(u, w)
    if not subspace_contains(u, w):
        raise QuivalgError("quotient_basis requires w to be a subspace of u")
    span = _Echelon(u.ambient_dim, w)
    return [row for row in u.basis_rows() if span.add(row)]


def check_lifted_idempotents(a, idems):
    """The orthogonality and primitivity scans lift_idempotents proves by
    construction: f prev = prev f = 0 for each earlier prev, and
    dim eAe = dim eJe + 1 for each e."""
    j = alg.radical(a).radical
    for k, f in enumerate(idems):
        for prev in idems[:k]:
            if not is_zero_vec(a.mul_vec(f, prev)) or not is_zero_vec(a.mul_vec(prev, f)):
                raise QuivalgError("lifted idempotents are not orthogonal")
    for e in idems:
        corner = canonicalize(
            [a.mul_vec(a.mul_vec(e, a.basis_vec(k)), e) for k in range(a.dim)], a.dim
        )
        corner_rad = canonicalize(
            [a.mul_vec(a.mul_vec(e, r), e) for r in j.basis_rows()], a.dim
        )
        if corner.dim != corner_rad.dim + 1:
            raise ValidationError("lifted idempotent is not primitive")


def left_mult_matrix(a, x):
    """The matrix of y -> x y, built from products with the unit vectors."""
    cols = [a.mul_vec(x, a.basis_vec(j)) for j in range(a.dim)]
    return Matrix(a.dim, a.dim, list(zip(*cols)) if cols else [])


def right_mult_matrix(a, x):
    """The matrix of y -> y x, built from products with the unit vectors."""
    cols = [a.mul_vec(a.basis_vec(j), x) for j in range(a.dim)]
    return Matrix(a.dim, a.dim, list(zip(*cols)) if cols else [])


def fraction_mul_vec(a, x, y):
    """x * y summed term by term over the Fraction table."""
    out = [Fraction(0)] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, t in a.mul_basis(i, j).items():
                out[k] += xi * yj * t
    return tuple(out)


def transport(a, p):
    """a in the basis of the columns of the invertible matrix p, unvalidated."""
    n = a.dim
    inv = p.inverse()
    cols = [p.col(i) for i in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            coords = inv.apply(fraction_mul_vec(a, cols[i], cols[j]))
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                table[(i, j)] = entry
    return alg.SCAlgebra(n, tuple(f"f{i}" for i in range(n)), table, inv.apply(a.unit))


def lu_matrix(n, lower, upper, diagonal):
    """L * U with unit lower L and nonzero diagonal in U: always invertible."""
    entries = iter(lower)
    low = Matrix(n, n, [[1 if r == c else next(entries) if c < r else 0
                         for c in range(n)] for r in range(n)])
    entries = iter(upper)
    up = Matrix(n, n, [[diagonal[r] if r == c else next(entries) if c > r else 0
                        for c in range(n)] for r in range(n)])
    return low * up


def dense_upper_triangular(n, rng):
    """U_n transported by a seeded dense invertible change of basis."""
    u = alg.upper_triangular(n)
    d = u.dim
    size = d * (d - 1) // 2
    p = lu_matrix(
        d,
        [rng.randint(-2, 2) for _ in range(size)],
        [rng.randint(-2, 2) for _ in range(size)],
        [rng.choice([-2, -1, 1, 2]) for _ in range(d)],
    )
    return transport(u, p)


def inverse_quotient(a, ideal):
    """_quotient_by_ideal as it was built from a dense inverse.

    Representatives from quotient_basis, the projection read off the inverse
    of (reps | ideal rows), its kernel re-proved by a nullspace, and the
    table as the projection of every product of two representatives.
    """
    reps = quotient_basis(a.full_space(), ideal)
    r = len(reps)
    rep_indices = []
    for v in reps:
        nonzero = [k for k, c in enumerate(v) if c != 0]
        assert len(nonzero) == 1 and v[nonzero[0]] == 1  # reps are basis vectors
        rep_indices.append(nonzero[0])
    labels = [a.basis_labels[k] for k in rep_indices]
    paths = tuple(a.paths[k] for k in rep_indices) if a.paths else None
    inv = Matrix(a.dim, a.dim, list(reps) + list(ideal.basis_rows())).inverse()
    proj_matrix = Matrix(
        r, a.dim, [tuple(inv.entries[i][k] for i in range(a.dim)) for k in range(r)]
    )
    assert canonicalize(proj_matrix.nullspace(), a.dim) == ideal
    table = {}
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            coords = proj_matrix.apply(a.mul_vec(x, y))
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    quotient = alg.SCAlgebra(
        r, tuple(labels), table, proj_matrix.apply(a.unit),
        paths=paths, quiver=a.quiver if paths else None,
    )
    section = Matrix(a.dim, r, list(zip(*reps)) if reps else [[]] * a.dim)
    return quotient, alg.AlgebraHom(a, quotient, proj_matrix, surjective=True, section=section)


def full_basis_center(a):
    """The center as the common kernel of L_i - R_i over the whole basis."""
    n = a.dim
    stacked = vstack([left_mult_matrix(a, a.basis_vec(i)) - right_mult_matrix(a, a.basis_vec(i))
                      for i in range(n)])
    return canonicalize(stacked.nullspace(), n)


def kernel_intersect(u, w):
    """Test-only oracle: the kernel construction the Zassenhaus pass replaced.

    A vector lies in both spans iff it is a U-combination a and a
    W-combination b with a*U - b*W = 0, i.e. (a, b) is in the kernel of the
    transposed stacked basis matrix.
    """
    if u.dim == 0 or w.dim == 0:
        return zero_subspace(u.ambient_dim)
    stacked = vstack([u.basis, w.basis.scale(-1)])
    kernel = stacked.transpose().nullspace()
    vectors = []
    for k in kernel:
        v = zero_vec(u.ambient_dim)
        for c, row in zip(k[: u.dim], u.basis_rows()):
            if c:
                v = vec_add(v, vec_scale(c, row))
        vectors.append(v)
    return canonicalize(vectors, u.ambient_dim)


def corner_subspace(a, e, f, space):
    """Span of e x f over basis vectors x of the given subspace."""
    return canonicalize(
        [a.mul_vec(a.mul_vec(e, r), f) for r in space.basis_rows()], a.dim
    )


def corner_edge_reps(a, idems, filt):
    """Edge representatives from a corner_subspace per ordered pair, each
    corner forming e r anew for every f."""
    j2 = filt.power(2)
    reps = {}
    for i, e in enumerate(idems):
        for k, f in enumerate(idems):
            corner = corner_subspace(a, e, f, filt.radical)
            span = _Echelon(a.dim, j2)
            reps[(i, k)] = tuple(r for r in corner.basis_rows() if span.add(r))
    return reps


def corner_counit_matrices(a, rngs):
    """The matrix of counit(a, rng) per rng, built on stored corners: each
    representative moves inside e J f ∩ J^2, formed by a Zassenhaus pass."""
    ga = adj.gabriel_vquiver(a)
    idems = ga.idempotents.idempotents
    j2 = ga.filtration.power(2)
    edges = []
    for (i, k), reps in corner_edge_reps(a, idems, ga.filtration).items():
        if reps:
            corner = corner_subspace(a, idems[i], idems[k], ga.filtration.radical)
            labs = ga.vquiver.edge_labels[(ga.vquiver.vertices[i], ga.vquiver.vertices[k])]
            edges.append((labs, reps, subspace_intersect(corner, j2).basis_rows()))
    t = path_algebra_vq(ga.vquiver)
    vertex_images = dict(zip(ga.vquiver.vertices, idems))
    out = []
    for rng in rngs:
        section = {}
        for labs, reps, perturb in edges:
            for lab, rep in zip(labs, reps):
                for row in perturb:
                    rep = vec_add(rep, vec_scale(Fraction(rng.randint(-3, 3)), row))
                section[lab] = rep
        images = _path_images(t.paths, a, vertex_images, section)
        out.append(Matrix(a.dim, t.dim, list(zip(*images))))
    return out
