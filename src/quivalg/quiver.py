"""Finite quivers, path enumeration and the path algebra.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed.  Paths multiply by concatenation read left to right: u * v means
"traverse u first, then v", matching the worked multiplication table
p1 * h = h for the one-arrow quiver 1 -> 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .algebra import algebra_from_paths
from .errors import CyclicInput, FormatError, ValidationError

# most paths a path algebra or truncation may have; at this size (one loop at
# maxlen 511, or two loops at maxlen 8) check_admissible takes under half a second
MAX_TRUNCATION_PATHS = 512


@dataclass(frozen=True)
class Quiver:
    """Vertices and arrows; arrow ends and out-adjacency are built once."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (label, source, target)
    _ends: dict[str, tuple[str, str]] = field(init=False, compare=False, repr=False)
    _out: dict[str, tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        out: dict[str, list] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a[1]].append(a)
        object.__setattr__(self, "_ends", {lab: (s, t) for lab, s, t in self.arrows})
        object.__setattr__(self, "_out", {v: tuple(arr) for v, arr in out.items()})


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; empty means the trivial path at start."""

    start: str
    arrows: tuple[str, ...]
    end: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def label(self) -> str:
        if not self.arrows:
            return f"p_{self.start}"
        return "*".join(self.arrows)


def validate_quiver(vertices: Iterable[str], arrows: Iterable[Sequence[str]]) -> Quiver:
    """Build a quiver, rejecting duplicate labels and dangling endpoints."""
    vertices = tuple(str(v) for v in vertices)
    arrows = tuple((str(l), str(s), str(t)) for l, s, t in arrows)
    if len(set(vertices)) != len(vertices):
        raise ValidationError("duplicate vertex labels", witness=vertices)
    labels = [a[0] for a in arrows]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate arrow labels", witness=labels)
    vertex_set = set(vertices)
    for lab, s, t in arrows:
        if s not in vertex_set or t not in vertex_set:
            raise ValidationError(
                f"arrow {lab}: {s} -> {t} has an undeclared endpoint", witness=lab
            )
        if lab in vertex_set:
            raise ValidationError(f"label {lab} used for both a vertex and an arrow")
    return Quiver(vertices, arrows)


def trivial_path(v: str) -> Path:
    return Path(v, (), v)


def path_from_arrows(q: Quiver, labels: Sequence[str]) -> Path:
    """The composable path with the given arrow labels (errors if broken)."""
    if not labels:
        raise ValidationError("path_from_arrows needs at least one arrow")
    amap = q._ends
    for lab in labels:
        if lab not in amap:
            raise ValidationError(f"unknown arrow {lab}")
    start = amap[labels[0]][0]
    at = start
    for lab in labels:
        s, t = amap[lab]
        if s != at:
            raise ValidationError(
                f"arrows do not compose at {lab}", witness=tuple(labels)
            )
        at = t
    return Path(start, tuple(labels), at)


def _topological_order(q: Quiver) -> list[str] | None:
    """Kahn's algorithm: the vertices in topological order, or None on a cycle."""
    indeg = {v: 0 for v in q.vertices}
    for _, _, t in q.arrows:
        indeg[t] += 1
    ready = deque(v for v in q.vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for _, _, t in q._out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return order if len(order) == len(q.vertices) else None


def is_acyclic(q: Quiver) -> bool:
    """No oriented cycle; loops count as cycles."""
    return _topological_order(q) is not None


def enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All paths of length <= max_len, ordered by length then label sequence.

    Trivial paths come first in vertex order.  For an acyclic quiver any
    max_len >= |Q0| yields the complete list.
    """
    vertex_pos = {v: i for i, v in enumerate(q.vertices)}
    paths = [trivial_path(v) for v in q.vertices]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for lab, _, t in q._out[p.end]:
                nxt.append(Path(p.start, p.arrows + (lab,), t))
        if not nxt:
            break
        paths.extend(nxt)
        frontier = nxt
    paths.sort(key=lambda p: (p.length, p.arrows, vertex_pos[p.start]))
    return paths


def longest_path_length(q: Quiver) -> int:
    """Number of arrows in a longest path of an acyclic quiver."""
    order = _topological_order(q)
    if order is None:
        raise CyclicInput("longest path is undefined for cyclic quivers")
    depth: dict[str, int] = {}
    for v in reversed(order):
        depth[v] = max((1 + depth[t] for _, _, t in q._out[v]), default=0)
    return max(depth.values(), default=0)


def check_path_budget(q: Quiver, max_len: int | None) -> None:
    """Refuse more than MAX_TRUNCATION_PATHS paths of length <= max_len (or of
    any length, for an acyclic q and max_len None) before any is built.

    Paths are counted by end vertex, one length at a time.  When the bound
    covers every path of an acyclic q, the message names the path algebra."""
    ends, total = dict.fromkeys(q.vertices, 1), len(q.vertices)
    for _ in range(max_len or MAX_TRUNCATION_PATHS):  # each length adds a path, or none after
        step = dict.fromkeys(q.vertices, 0)
        for _, s, t in q.arrows:
            step[t] += ends[s]
        ends, total = step, total + sum(step.values())
        if total > MAX_TRUNCATION_PATHS:
            if max_len is None or is_acyclic(q) and longest_path_length(q) < max_len:
                raise FormatError(f"path algebra has over {MAX_TRUNCATION_PATHS} "
                                  "paths (MAX_TRUNCATION_PATHS)")
            raise FormatError(f"truncation at maxlen {max_len} has over {MAX_TRUNCATION_PATHS} "
                              "paths (MAX_TRUNCATION_PATHS); lower maxlen")
        if not any(step.values()):
            return


def path_algebra(q: Quiver):
    """The path algebra kQ as a structure-constant algebra.

    Only defined for acyclic quivers (otherwise kQ is infinite dimensional);
    cyclic quivers are supported through the truncated builders in the
    bound-quiver module.  The basis is the full path list; the unit is the
    sum of the trivial paths; path bookkeeping is attached to the result.
    Over MAX_TRUNCATION_PATHS paths, ``check_path_budget`` refuses it unbuilt.
    """
    if not is_acyclic(q):
        raise CyclicInput("path algebra of a cyclic quiver is infinite dimensional")
    check_path_budget(q, None)
    paths = enumerate_paths(q, max(len(q.vertices), 1))
    return algebra_from_paths(q, paths, max_len=None)
