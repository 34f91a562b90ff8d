"""Seeded inputs for the four benchmark workloads, in plain stdlib code.

Nothing here imports quivalg: the benchmark builds structure-constant tables,
quivers, relation sets and CLI input files itself, and hands quivalg only the
finished inputs.  Every job carries the answer the oracles in ``oracle.py``
expect, so any seed can be checked.

A workload is a sequence of *rounds*.  Each round has a fixed composition of
job slots (family and exact size); the seed only chooses the content inside
each slot and the order of the slots.  Round ``r`` of seed ``s`` is built
from ``random.Random(f"{workload}:{s}:{r}")``, so the same seed always gives
byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import (
    bound_expected,
    commutative_counts,
    enumerate_paths,
    path_algebra_expected,
    upper_triangular_expected,
    word_counts,
)

WORKLOADS = ("present-sparse", "present-dense", "bound-cyclic", "cli-mix")

ONE = Fraction(1)


@dataclass
class Job:
    kind: str            # "present", "bound" or "cli": selects the runner
    family: str          # short name of the input family, for reports
    payload: tuple       # what the runner hands to quivalg
    expected: object     # what the oracle compares the answer against
    props: dict = field(default_factory=dict)   # dim, nnz, maxlen, coeff_bits
    key: str = ""        # digest of the input content, for repeat_share


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# quivers and paths
# ---------------------------------------------------------------------------


def random_acyclic_quiver(rng, n_vertices, n_arrows):
    """Arrows point forward along the vertex order, so the quiver is acyclic."""
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    arrows = []
    for k in range(n_arrows):
        i = rng.randrange(0, n_vertices - 1)
        j = rng.randrange(i + 1, n_vertices)
        arrows.append((f"a{k}", vertices[i], vertices[j]))
    return vertices, tuple(arrows)


def path_table(paths):
    """Labels, sparse table and unit of the algebra with the given path basis.

    u * v is the concatenation when it is composable and in the basis, zero
    otherwise, so a path list that avoids some words gives the monomial
    quotient kQ/I.
    """
    index = {(s, w): i for i, (s, w, _) in enumerate(paths)}
    labels = tuple(f"p_{s}" if not w else "*".join(w) for s, w, _ in paths)
    table = {}
    for i, (s1, w1, e1) in enumerate(paths):
        for j, (s2, w2, _) in enumerate(paths):
            if e1 != s2:
                continue
            k = index.get((s1, w1 + w2))
            if k is not None:
                table[(i, j)] = {k: ONE}
    unit = tuple(ONE if not w else Fraction(0) for _, w, _ in paths)
    return labels, table, unit


def upper_triangular_table(n):
    units = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    index = {u: k for k, u in enumerate(units)}
    labels = tuple(f"E{i}{j}" for i, j in units)
    table = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[(a, b)] = {index[(i, l)]: ONE}
    unit = tuple(ONE if i == j else Fraction(0) for i, j in units)
    return labels, table, unit


# ---------------------------------------------------------------------------
# dense basis change
# ---------------------------------------------------------------------------


def inverse(p):
    """Inverse of an integer matrix over Q, or None when it is singular."""
    n = len(p)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(p)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def transport(table, unit, rng):
    """The same algebra in the basis f_i = sum_j P[i][j] e_j.

    P is a seeded invertible integer matrix with entries in [-2, 2].  With
    Q = P^-1, the new constants are c'_ij^k = sum P_ia P_jb c_ab^l Q_lk and
    the unit has coordinates u Q.
    """
    n = len(unit)
    while True:
        p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = inverse(p)
        if q is not None:
            break
    out = {}
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * n
            for (a, b), d in table.items():
                c = p[i][a] * p[j][b]
                if c:
                    for l, t in d.items():
                        acc[l] += c * t
            entry = {}
            for l, v in enumerate(acc):
                if v:
                    for k in range(n):
                        if q[l][k]:
                            entry[k] = entry.get(k, 0) + v * q[l][k]
            entry = {k: v for k, v in entry.items() if v}
            if entry:
                out[(i, j)] = entry
    new_unit = tuple(sum((unit[l] * q[l][k] for l in range(n)), Fraction(0))
                     for k in range(n))
    return tuple(f"f{i}" for i in range(n)), out, new_unit


def coeff_bits(table, unit=()):
    values = [c for d in table.values() for c in d.values()] + list(unit)
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in values), default=0)


# ---------------------------------------------------------------------------
# present-* jobs
# ---------------------------------------------------------------------------


def present_job(family, labels, table, unit, expected):
    payload = (labels, table, unit)
    props = {"dim": len(labels), "nnz": sum(len(d) for d in table.values()),
             "maxlen": 0, "coeff_bits": coeff_bits(table, unit)}
    return Job("present", family, payload, expected, props, digest(payload))


def upper_triangular_source(n):
    return upper_triangular_table(n), upper_triangular_expected(n)


def quiver_source(rng, n_vertices, dim, kernel):
    """A seeded kQ (kernel 0) or monomial kQ/I of dimension ``dim`` with
    dim I = ``kernel``.

    Rejection sampling keeps the size of a slot fixed while the seed varies
    the shape, so the job-size mix does not depend on the seed.
    """
    for _ in range(100000):
        n_arrows = rng.randint(1, n_vertices + 3)
        vertices, arrows = random_acyclic_quiver(rng, n_vertices, n_arrows)
        full = enumerate_paths(vertices, arrows, n_vertices)
        if len(full) != dim + kernel:
            continue
        forbidden = ()
        if kernel:
            long = [w for _, w, _ in full if 2 <= len(w) <= 3]
            if not long:
                continue
            forbidden = tuple(sorted(rng.sample(long, min(len(long), rng.randint(1, 3)))))
        paths = enumerate_paths(vertices, arrows, n_vertices, forbidden)
        if len(paths) == dim:
            return path_table(paths), path_algebra_expected(vertices, arrows, paths, len(full))
    raise ValueError(f"no quiver on {n_vertices} vertices gives dim {dim}, kernel {kernel}")


def _present_round(rng, slots, dense):
    jobs = []
    for family, arg in slots:
        if family == "U":
            (labels, table, unit), expected = upper_triangular_source(arg)
            name = f"U{arg}"
        else:
            n_vertices, dim, kernel = arg
            (labels, table, unit), expected = quiver_source(rng, n_vertices, dim, kernel)
            name = f"{family}{n_vertices}"
        if dense:
            labels, table, unit = transport(table, unit, rng)
            name = "dense-" + name
        jobs.append(present_job(name, labels, table, unit, expected))
    rng.shuffle(jobs)
    return jobs


# U_4..U_7 with U_6 five times, plus 31 small quiver algebras: 39 jobs.  The
# six largest U_n jobs are the top 15%, so p90 falls inside the U_6 block
# rather than on a boundary between size classes, and p50 falls inside the
# quiver algebras.  Quiver slots are (vertices, dim, dim I); the seed varies
# only their shape.
SPARSE_SLOTS = (
    [("U", 4), ("U", 5)] + [("U", 6)] * 5 + [("U", 7)]
    + [("kQ", (3 + k % 4, 6 + k % 8, 0)) for k in range(16)]
    + [("mono", (3 + k % 4, 6 + k % 4 + k % 3, 1 + k % 2)) for k in range(15)]
)

# Dense tables up to dimension 7, 25 jobs in three size classes: three U_3
# (dim 6) and one dim-7 path algebra on top (16%, around p90), 13 monomial
# algebras of dim 5 in the middle (around p50), and 8 path algebras of dims
# 3-4 below.  Dense dim-5 path algebras and monomial algebras differ in cost
# by a seed-dependent amount, so mixing them in the middle class let p50 jump
# between the two families from seed to seed.
DENSE_SLOTS = (
    [("U", 3)] * 3 + [("kQ", (4, 7, 0))]
    + [("mono", (3, 5, 1))] * 13
    + [("kQ", (2, 3, 0))] * 2 + [("kQ", (2, 4, 0))] * 3 + [("kQ", (3, 4, 0))] * 3
)


# ---------------------------------------------------------------------------
# bound-cyclic jobs
# ---------------------------------------------------------------------------

LOOPS2 = ("loops2", ("1",), (("a", "1", "1"), ("b", "1", "1")))
LOOPS3 = ("loops3", ("1",), (("a", "1", "1"), ("b", "1", "1"), ("c", "1", "1")))
CYCLE_LOOP = ("cycle-loop", ("1", "2"), (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")))


def bound_source(rng, quiver, max_len, commutative, n_words, admissible, fixed=None):
    """A seeded relation set on a cyclic quiver, with its expected verdict.

    Monomial sets are ``n_words`` random composable words of length 2-3, or
    the words ``fixed``.  A commutative set adds every commutator of the
    loops, so kQ/I is a monomial quotient of a polynomial ring and the oracle
    counts monomials.  Sets are drawn until the verdict is ``admissible`` (or
    "undetermined"), since an admissible set costs bound_algebra a quotient
    and a refused one does not; fixing the verdict per slot keeps the cost
    mix seed-independent.
    """
    name, vertices, arrows = quiver
    words = [w for _, w, _ in enumerate_paths(vertices, arrows, 3) if len(w) >= 2]
    loops = [lab for lab, _, _ in arrows]
    for _ in range(100000):
        chosen = fixed or tuple(sorted(rng.sample(words, n_words)))
        if commutative:
            counts = commutative_counts(len(loops), [
                tuple(w.count(x) for x in loops) for w in chosen], max_len)
        else:
            counts = word_counts(vertices, arrows, chosen, max_len)
        expected = bound_expected(counts, max_len)
        if expected["admissible"] == admissible:
            break
    else:
        raise ValueError(f"no {name} set of {n_words} words has verdict {admissible}")
    relations = [((1, w),) for w in chosen]
    if commutative:
        for i, x in enumerate(loops):
            for y in loops[i + 1:]:
                relations.append(((1, (x, y)), (-1, (y, x))))
    payload = (vertices, arrows, tuple(relations), max_len)
    props = {"dim": len(enumerate_paths(vertices, arrows, max_len)),
             "nnz": sum(len(r) for r in relations), "maxlen": max_len, "coeff_bits": 1}
    family = (f"{'comm' if commutative else 'mono'}-{name}-M{max_len}-"
              f"{'adm' if admissible else 'undet'}")
    return Job("bound", family, payload, expected, props, digest(payload))


# 28 sets in three cost classes.  On top, one admissible maxlen-4 set on two
# loops, one set on three commuting loops, and four copies (fresh objects) of
# one fixed set undetermined at maxlen 4 on the 2-cycle with a loop; random
# maxlen-4 sets there differ 2.5-fold in cost, the fixed one keeps p90, which
# falls inside the four, steady.  In the middle, 12 admissible maxlen-3 sets
# on two loops, which hold p50.  Below, 10 undetermined maxlen-3 sets.  Each
# slot is (quiver, maxlen, commutative, number of monomials, admissible
# [, fixed monomials]).
BOUND_SLOTS = (
    [(LOOPS2, 4, False, 4, True), (LOOPS3, 3, True, 2, False)]
    + [(CYCLE_LOOP, 4, False, 2, False, (("a", "b", "a"), ("c", "c")))] * 4
    + [(LOOPS2, 3, False, 4, True), (LOOPS2, 3, False, 3, True)] * 6
    + [(CYCLE_LOOP, 3, False, 1 + k % 2, False) for k in range(6)]
    + [(LOOPS2, 3, False, 1 + k % 2, False) for k in range(2)]
    + [(LOOPS2, 3, True, 1, False)] * 2
)


def _bound_round(rng):
    jobs = [bound_source(rng, *slot) for slot in BOUND_SLOTS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-mix jobs
# ---------------------------------------------------------------------------

WORK_DIR = os.path.join("bench", ".work")


def _lincomb(vector, labels):
    parts = [(c, lab) for c, lab in zip(vector, labels) if c != 0]
    if not parts:
        return "0"
    text = ("-" if parts[0][0] < 0 else "") + f"{abs(parts[0][0])}*{parts[0][1]}"
    for c, lab in parts[1:]:
        text += f" {'-' if c < 0 else '+'} {abs(c)}*{lab}"
    return text


def algebra_text(labels, table, unit):
    n = len(labels)
    out = [f"algebra dim {n}", "basis: " + " ".join(labels),
           "unit: " + _lincomb(unit, labels)]
    for (i, j), d in sorted(table.items()):
        vector = [d.get(k, Fraction(0)) for k in range(n)]
        out.append(f"mul {labels[i]} {labels[j]} = {_lincomb(vector, labels)}")
    return "\n".join(out) + "\n"


def quiver_text(vertices, arrows):
    return "\n".join(["quiver"] + [f"vertex {v}" for v in vertices]
                     + [f"arrow {l}: {s} -> {t}" for l, s, t in arrows]) + "\n"


def relations_text(words, max_len):
    return "\n".join(["relations", f"maxlen: {max_len}"]
                     + [f"relation: 1*{'*'.join(w)}" for w in words]) + "\n"


def cli_files():
    """Fixed generated input files for the cli-mix pool (independent of seed)."""
    rng = random.Random("cli-mix-files")
    files = {}
    (labels, table, unit), _ = upper_triangular_source(4)
    files["u4.alg"] = algebra_text(labels, table, unit)
    (labels, table, unit), _ = quiver_source(rng, 4, 9, 0)
    files["kq.alg"] = algebra_text(labels, table, unit)
    (labels, table, unit), _ = quiver_source(rng, 4, 7, 1)
    files["mono.alg"] = algebra_text(labels, table, unit)
    (labels, table, unit), _ = upper_triangular_source(2)
    files["dense.alg"] = algebra_text(*transport(table, unit, rng))
    files["chain4.quiver"] = quiver_text(
        ("1", "2", "3", "4"), (("x", "1", "2"), ("y", "2", "3"), ("z", "3", "4")))
    files["chain4.rep"] = "rep\nspace 1: 1\nspace 2: 2\nspace 3: 2\nspace 4: 1\n" \
        "map x: 1 ; 1\nmap y: 1 0 ; 0 1\nmap z: 1 -1\n"
    files["chain4.rel"] = relations_text([("x", "y", "z")], 4)
    files["cyc.quiver"] = quiver_text(*CYCLE_LOOP[1:])
    files["cyc-adm.rel"] = relations_text([("a", "b"), ("b", "a"), ("c", "c")], 4)
    files["cyc-undet.rel"] = relations_text([("a", "b"), ("b", "a"), ("c", "c")], 3)
    files["square.vq"] = "vquiver\nvertex p\nvertex q\nvertex r\nvertex s\n" \
        "edges p q: dim 1 e1\nedges p r: dim 1 e2\nedges q s: dim 2 e3 e4\n" \
        "edges r s: dim 1 e5\n"
    return files


def _w(name):
    return os.path.join(WORK_DIR, name)


S = "samples/"

# (id, argv): every command runs once per round, in a seeded order.
CLI_POOL = (
    ("gallery", ["paper-gallery"]),
    ("triangles", ["adjunction", "triangles"]),
    ("present-u4", ["algebra", "present", _w("u4.alg")]),
    ("present-kq", ["algebra", "present", _w("kq.alg")]),
    ("present-mono", ["algebra", "present", _w("mono.alg")]),
    ("present-dense", ["algebra", "present", _w("dense.alg")]),
    ("radical-kq", ["algebra", "radical", _w("kq.alg")]),
    ("gabriel-mono", ["algebra", "gabriel", _w("mono.alg")]),
    ("counit-u4", ["adjunction", "counit", _w("u4.alg")]),
    ("info-dense", ["algebra", "info", _w("dense.alg")]),
    ("build-u3", ["algebra", "build", "upper-triangular", "3"]),
    ("build-sum", ["algebra", "build", "direct-sum", "matrix:2", "truncated-poly:3"]),
    ("rep-one-arrow", ["rep", "convert", S + "one_arrow.rep", "--quiver",
                       S + "one_arrow.quiver", "--roundtrip"]),
    ("rep-chain4", ["rep", "convert", _w("chain4.rep"), "--quiver",
                    _w("chain4.quiver"), "--roundtrip"]),
    ("rep-chain4-bound", ["rep", "convert", _w("chain4.rep"), "--quiver",
                          _w("chain4.quiver"), "--relations", _w("chain4.rel"),
                          "--roundtrip"]),
    ("vq-chain", ["vquiver", "path-algebra", S + "chain.vq"]),
    ("vq-square", ["vquiver", "path-algebra", _w("square.vq")]),
    ("vq-square-info", ["vquiver", "info", _w("square.vq")]),
    ("unit-square", ["adjunction", "unit", _w("square.vq")]),
    ("cat-galois", ["cat", "galois", S + "closure.galois"]),
    ("cat-adjunction", ["cat", "adjunction", S + "closure.galois"]),
    ("cat-validate", ["cat", "validate", S + "arrow_category.cat"]),
    ("bound-two-loops", ["bound", "construct", S + "two_loops.quiver", S + "two_loops.rel"]),
    ("bound-cyc", ["bound", "construct", _w("cyc.quiver"), _w("cyc-adm.rel")]),
    ("bound-chain4", ["bound", "construct", _w("chain4.quiver"), _w("chain4.rel")]),
    ("check-cyc-undet", ["bound", "check", _w("cyc.quiver"), _w("cyc-undet.rel")]),
    ("construct-cyc-undet", ["bound", "construct", _w("cyc.quiver"), _w("cyc-undet.rel")]),
    ("quiver-paths", ["quiver", "paths", _w("cyc.quiver"), "--max-len", "3"]),
    ("quiver-kq", ["quiver", "path-algebra", _w("chain4.quiver")]),
    ("quiver-info", ["quiver", "info", S + "one_arrow.quiver"]),
)


CLI_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_expected.json")


def write_cli_files():
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, text in cli_files().items():
        with open(_w(name), "w", encoding="utf-8") as fh:
            fh.write(text)


def prepare(workload):
    """Per-run set-up shared by all rounds: cli-mix writes its input files and
    loads the committed expected outputs; the other workloads need nothing."""
    if workload != "cli-mix":
        return None
    write_cli_files()
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_round(rng, expected):
    jobs = []
    for cid, argv in CLI_POOL:
        props = {"dim": 0, "nnz": 0, "maxlen": 0, "coeff_bits": 0}
        jobs.append(Job("cli", cid, (tuple(argv),), expected[cid], props, digest(argv)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def make_round(workload, seed, index, context=None):
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "present-sparse":
        return _present_round(rng, SPARSE_SLOTS, dense=False)
    if workload == "present-dense":
        return _present_round(rng, DENSE_SLOTS, dense=True)
    if workload == "bound-cyclic":
        return _bound_round(rng)
    if workload == "cli-mix":
        return _cli_round(rng, context)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload, context=None):
    """Seed-independent jobs that load lazily imported code paths (sympy's
    factoring, the gallery) before anything is timed."""
    rng = random.Random("warmup")
    if workload in ("present-sparse", "present-dense"):
        (labels, table, unit), expected = upper_triangular_source(2)
        if workload == "present-dense":
            labels, table, unit = transport(table, unit, rng)
        return [present_job("warmup", labels, table, unit, expected)]
    if workload == "bound-cyclic":
        return [bound_source(rng, LOOPS2, 3, False, 4, True),
                bound_source(rng, CYCLE_LOOP, 3, False, 2, False)]
    return _cli_round(rng, context)
