"""Expected answers, computed without quivalg, and the check against them.

Each job's answer is a dict with the same keys as its expectation; a job
passes when every key matches.

* U_n: closed forms (dim J^i = (n-i)(n-i+1)/2, GQ = A_n, kernel 0, m = n).
* kQ and monomial kQ/I of an acyclic Q: path counting.  GQ = Q, the counit
  kernel is I (so dim kQ - dim kQ/I), and m is one more than the longest
  surviving path.
* Dense transports of those algebras: the same invariants, because the
  radical chain, nilpotence index, Gabriel edge dimensions, kernel dimension
  and m do not depend on the basis.
* Cyclic relation sets: words avoiding the monomial relations (or, for
  commuting loops, commutative monomials avoiding them) are counted per
  length up to maxlen.
* cli-mix: committed byte-exact stdout and exit codes.
"""

from __future__ import annotations

from collections import Counter
from itertools import product


def enumerate_paths(vertices, arrows, max_len, forbidden=()):
    """Composable paths (start, arrow labels, end) of length <= max_len.

    Paths containing a word of ``forbidden`` as a contiguous sub-word are
    skipped; the list is ordered by length, then by generation order.
    """
    out = [(v, (), v) for v in vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for start, word, end in frontier:
            for lab, s, t in arrows:
                if s != end:
                    continue
                w = word + (lab,)
                if any(w[len(w) - len(f):] == f for f in forbidden if len(f) <= len(w)):
                    continue
                nxt.append((start, w, t))
        if not nxt:
            break
        out.extend(nxt)
        frontier = nxt
    return out


def gabriel_shape(vertices, edge_dims):
    """Vertex count, sorted edge dimensions and sorted (in, out) degrees of a
    quiver given as {(source, target): number of arrows}."""
    degrees = sorted(
        (sum(d for (s, t), d in edge_dims.items() if t == v),
         sum(d for (s, t), d in edge_dims.items() if s == v))
        for v in vertices)
    return len(vertices), sorted(edge_dims.values()), degrees


def present_answer_expected(dim, chain, vertices, edge_dims, degrees, kernel_dim):
    nilpotence = len(chain) - 1
    return {
        "dim": dim,
        "radical_chain": list(chain),
        "nilpotence_index": nilpotence,
        "gabriel_vertices": vertices,
        "gabriel_edge_dims": list(edge_dims),
        "gabriel_degrees": [tuple(d) for d in degrees],
        "counit_surjective": True,
        "kernel_dim": kernel_dim,
        "m": nilpotence,
        "admissible": True,
        "admissible_m": nilpotence,
    }


def upper_triangular_expected(n):
    chain = [(n - i) * (n - i + 1) // 2 for i in range(n + 1)]
    degrees = sorted([(0, 1), (1, 0)] + [(1, 1)] * (n - 2))
    return present_answer_expected(n * (n + 1) // 2, chain, n, [1] * (n - 1), degrees, 0)


def path_algebra_expected(vertices, arrows, paths, n_full_paths):
    """Invariants of kQ/I for the surviving path basis ``paths``."""
    lengths = [len(w) for _, w, _ in paths]
    top = max(lengths)
    chain = [len(paths)] + [sum(1 for l in lengths if l >= i) for i in range(1, top + 2)]
    n_v, edge_dims, degrees = gabriel_shape(vertices, Counter((s, t) for _, s, t in arrows))
    return present_answer_expected(
        len(paths), chain, n_v, edge_dims, degrees, n_full_paths - len(paths))


def word_counts(vertices, arrows, forbidden, max_len):
    """Number of composable words of each length 0..max_len avoiding ``forbidden``."""
    lengths = Counter(len(w) for _, w, _ in enumerate_paths(vertices, arrows, max_len, forbidden))
    return [lengths[l] for l in range(max_len + 1)]


def commutative_counts(n_loops, monomials, max_len):
    """Monomials of each degree 0..max_len in n_loops commuting variables that
    no relation monomial (an exponent vector) divides."""
    counts = []
    for degree in range(max_len + 1):
        counts.append(sum(
            1 for e in product(range(degree + 1), repeat=n_loops)
            if sum(e) == degree
            and not any(all(x >= y for x, y in zip(e, m)) for m in monomials)))
    return counts


def bound_expected(counts, max_len):
    """Verdict of check_admissible and bound_algebra from per-length counts.

    m is the least length in 2..max_len with no surviving words; when there
    is none, the verdict is "undetermined" with m = max_len + 1 and
    bound_algebra must refuse the set.
    """
    m = next((l for l in range(2, max_len + 1) if counts[l] == 0), None)
    if m is None:
        return {"admissible": False, "m": max_len + 1, "undetermined": True,
                "inside_square": True, "dim": None}
    return {"admissible": True, "m": m, "undetermined": False,
            "inside_square": True, "dim": sum(counts[:m])}


def mismatches(answer, expected) -> list[str]:
    """Keys on which the answer disagrees with the expectation."""
    keys = sorted(set(answer) | set(expected))
    return [k for k in keys if answer.get(k) != expected.get(k)]
