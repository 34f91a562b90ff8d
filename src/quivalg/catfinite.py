"""Finite categories as explicit tables: axioms, functors, adjunctions.

Composition is stored diagrammatically: compose[(f, g)] is "f then g" for
f: X -> Y and g: Y -> Z.  Everything is checked exhaustively, which is
decidable precisely because objects and hom-sets are finite tables; failures
come back with the violating objects or morphisms as witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import QuivalgError, ValidationError


@dataclass(eq=False)
class FinCategory:
    objects: tuple[str, ...]
    homs: dict[tuple[str, str], tuple[str, ...]]
    compose: dict[tuple[str, str], str]
    identities: dict[str, str]

    def endpoints(self, f: str) -> tuple[str, str]:
        return self._endpoints[f]

    def __post_init__(self):
        self._endpoints = {
            f: pair for pair, fs in self.homs.items() for f in fs
        }

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.homs.get((x, y), ())

    def morphisms(self) -> list[str]:
        return [f for fs in self.homs.values() for f in fs]

    def then(self, f: str, g: str) -> str:
        try:
            return self.compose[(f, g)]
        except KeyError:
            raise QuivalgError(f"no composite for ({f}, {g})") from None


def validate_category(
    objects: Sequence[str],
    homs: Mapping[tuple[str, str], Sequence[str]],
    compose: Mapping[tuple[str, str], str],
    identities: Mapping[str, str],
) -> FinCategory:
    """Exhaustive check of the category axioms over the finite tables."""
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate object labels", witness=objects)
    homs = {pair: tuple(fs) for pair, fs in homs.items() if fs}
    all_labels = [f for fs in homs.values() for f in fs]
    if len(set(all_labels)) != len(all_labels):
        raise ValidationError("morphism labels must be globally distinct")
    for (x, y) in homs:
        if x not in objects or y not in objects:
            raise ValidationError(f"hom-set at undeclared objects ({x}, {y})")
    cat = FinCategory(objects, homs, dict(compose), dict(identities))
    for x in objects:
        i = identities.get(x)
        if i is None or i not in cat.hom(x, x):
            raise ValidationError(f"object {x} lacks an identity morphism", witness=x)
    for f in cat.morphisms():
        fx, fy = cat.endpoints(f)
        for g in cat.morphisms():
            gx, gy = cat.endpoints(g)
            if fy != gx:
                if (f, g) in compose:
                    raise ValidationError(
                        f"composite declared for non-composable pair ({f}, {g})"
                    )
                continue
            h = compose.get((f, g))
            if h is None:
                raise ValidationError(
                    f"missing composite for ({f}, {g})", witness=(f, g)
                )
            if h not in cat.hom(fx, gy):
                raise ValidationError(
                    f"composite {h} of ({f}, {g}) has wrong endpoints",
                    witness=(f, g, h),
                )
    for f in cat.morphisms():
        x, y = cat.endpoints(f)
        if cat.then(identities[x], f) != f or cat.then(f, identities[y]) != f:
            raise ValidationError(f"identity law fails at {f}", witness=f)
    for f in cat.morphisms():
        _, fy = cat.endpoints(f)
        for g in cat.morphisms():
            gx, gy = cat.endpoints(g)
            if fy != gx:
                continue
            fg = cat.then(f, g)
            for h in cat.morphisms():
                hx, _ = cat.endpoints(h)
                if gy != hx:
                    continue
                if cat.then(fg, h) != cat.then(f, cat.then(g, h)):
                    raise ValidationError(
                        f"associativity fails on ({f}, {g}, {h})", witness=(f, g, h)
                    )
    return cat


def is_iso(cat: FinCategory, f: str) -> bool:
    x, y = cat.endpoints(f)
    return any(
        cat.then(f, g) == cat.identities[x] and cat.then(g, f) == cat.identities[y]
        for g in cat.hom(y, x)
    )


def objects_isomorphic(cat: FinCategory, x: str, y: str) -> bool:
    return any(is_iso(cat, f) for f in cat.hom(x, y))


@dataclass(eq=False)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    object_map: dict[str, str]
    morphism_map: dict[str, str]
    variance: str = "covariant"


def validate_functor(fun: FinFunctor) -> FinFunctor:
    """Check identity preservation and (co/contra)variant composition."""
    c, d = fun.source, fun.target
    contra = fun.variance == "contravariant"
    if fun.variance not in ("covariant", "contravariant"):
        raise ValidationError(f"unknown variance {fun.variance!r}")
    for x in c.objects:
        if fun.object_map.get(x) not in d.objects:
            raise ValidationError(f"object {x} has no valid image", witness=x)
    for f in c.morphisms():
        x, y = c.endpoints(f)
        img = fun.morphism_map.get(f)
        expected = (
            (fun.object_map[y], fun.object_map[x])
            if contra
            else (fun.object_map[x], fun.object_map[y])
        )
        if img is None or img not in d.hom(*expected):
            raise ValidationError(
                f"morphism {f} has no valid image in hom{expected}", witness=f
            )
    for x in c.objects:
        if fun.morphism_map[c.identities[x]] != d.identities[fun.object_map[x]]:
            raise ValidationError(f"identity at {x} is not preserved", witness=x)
    for f in c.morphisms():
        _, fy = c.endpoints(f)
        for g in c.morphisms():
            gx, _ = c.endpoints(g)
            if fy != gx:
                continue
            lhs = fun.morphism_map[c.then(f, g)]
            ff, gg = fun.morphism_map[f], fun.morphism_map[g]
            rhs = d.then(gg, ff) if contra else d.then(ff, gg)
            if lhs != rhs:
                raise ValidationError(
                    f"composition is not preserved on ({f}, {g})", witness=(f, g)
                )
    return fun


def identity_functor(cat: FinCategory) -> FinFunctor:
    return validate_functor(
        FinFunctor(
            cat, cat,
            {x: x for x in cat.objects},
            {f: f for f in cat.morphisms()},
        )
    )


def compose_functors(first: FinFunctor, second: FinFunctor) -> FinFunctor:
    """Apply first, then second (both covariant)."""
    return validate_functor(
        FinFunctor(
            first.source,
            second.target,
            {x: second.object_map[first.object_map[x]] for x in first.source.objects},
            {
                f: second.morphism_map[first.morphism_map[f]]
                for f in first.source.morphisms()
            },
        )
    )


@dataclass(eq=False)
class FinNatTrans:
    source_functor: FinFunctor
    target_functor: FinFunctor
    components: dict[str, str]


def validate_nat_trans(alpha: FinNatTrans) -> FinNatTrans:
    """Check every naturality square of a transformation between covariant functors."""
    f_fun, g_fun = alpha.source_functor, alpha.target_functor
    if f_fun.source is not g_fun.source or f_fun.target is not g_fun.target:
        raise ValidationError("natural transformation needs parallel functors")
    c, d = f_fun.source, f_fun.target
    for x in c.objects:
        comp = alpha.components.get(x)
        if comp is None or comp not in d.hom(f_fun.object_map[x], g_fun.object_map[x]):
            raise ValidationError(f"component at {x} missing or mistyped", witness=x)
    for f in c.morphisms():
        x1, x2 = c.endpoints(f)
        lhs = d.then(f_fun.morphism_map[f], alpha.components[x2])
        rhs = d.then(alpha.components[x1], g_fun.morphism_map[f])
        if lhs != rhs:
            raise ValidationError(
                f"naturality square fails at {f}", witness=(f, lhs, rhs)
            )
    return alpha


def compose_nat_trans(alpha: FinNatTrans, beta: FinNatTrans) -> FinNatTrans:
    """Vertical composition: first alpha, then beta."""
    if alpha.target_functor is not beta.source_functor:
        raise ValidationError("natural transformations do not compose")
    d = alpha.source_functor.target
    return validate_nat_trans(
        FinNatTrans(
            alpha.source_functor,
            beta.target_functor,
            {
                x: d.then(alpha.components[x], beta.components[x])
                for x in alpha.source_functor.source.objects
            },
        )
    )


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    le: frozenset[tuple[str, str]]

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.le


def validate_poset(elements: Sequence[str], le: Iterable[tuple[str, str]]) -> Poset:
    """Verify reflexivity, antisymmetry and transitivity; witnesses come in element order."""
    elements = tuple(elements)
    le = frozenset((a, b) for a, b in le)
    declared = set(elements)
    for a, b in sorted(le):
        if a not in declared or b not in declared:
            raise ValidationError(f"relation mentions undeclared element ({a}, {b})")
    for a in elements:
        if (a, a) not in le:
            raise ValidationError(f"relation is not reflexive at {a}", witness=a)
    ordered = [(a, b) for a in elements for b in elements if (a, b) in le]
    for a, b in ordered:
        if a != b and (b, a) in le:
            raise ValidationError(f"antisymmetry fails on ({a}, {b})", witness=(a, b))
    for a, b in ordered:
        for c in elements:
            if (b, c) in le and (a, c) not in le:
                raise ValidationError(
                    f"transitivity fails on ({a}, {b}, {c})", witness=(a, b, c)
                )
    return Poset(elements, le)


def mor_label(a: str, b: str) -> str:
    return f"{a}<={b}"


@lru_cache(maxsize=None)
def poset_to_category(p: Poset) -> FinCategory:
    """The category with one morphism a -> b exactly when a <= b.

    Memoized on the (hashable) poset so repeated constructions share one
    category object and functors between them compose.
    """
    homs = {
        (a, b): (mor_label(a, b),)
        for a in p.elements
        for b in p.elements
        if p.leq(a, b)
    }
    compose = {}
    for a, b in p.le:
        for c in p.elements:
            if p.leq(b, c):
                compose[(mor_label(a, b), mor_label(b, c))] = mor_label(a, c)
    identities = {a: mor_label(a, a) for a in p.elements}
    return validate_category(p.elements, homs, compose, identities)


def is_monotone(pi: Poset, pj: Poset, mapping: Mapping[str, str]) -> tuple[bool, tuple | None]:
    for a, b in pi.le:
        if not pj.leq(mapping[a], mapping[b]):
            return False, (a, b)
    return True, None


def functor_from_monotone(pi: Poset, pj: Poset, mapping: Mapping[str, str]) -> FinFunctor:
    """The functor a poset homomorphism induces between the poset categories."""
    ok, witness = is_monotone(pi, pj, mapping)
    if not ok:
        raise ValidationError(
            f"map is not monotone on {witness}", witness=witness
        )
    ci, cj = poset_to_category(pi), poset_to_category(pj)
    morphism_map = {
        mor_label(a, b): mor_label(mapping[a], mapping[b]) for a, b in pi.le
    }
    return validate_functor(FinFunctor(ci, cj, dict(mapping), morphism_map))


def check_galois_adjunction(
    pi: Poset, pj: Poset, f: Mapping[str, str], g: Mapping[str, str]
) -> tuple[bool, tuple | None]:
    """Exhaustively test F(a) <= b iff a <= G(b) over the product of posets."""
    for mapping, src, tgt in ((f, pi, pj), (g, pj, pi)):
        ok, witness = is_monotone(src, tgt, mapping)
        if not ok:
            return False, witness
    for a in pi.elements:
        for b in pj.elements:
            if pj.leq(f[a], b) != pi.leq(a, g[b]):
                return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------
# adjunctions and equivalences for finite categories
# ---------------------------------------------------------------------------


def check_adjunction_finite(
    f_fun: FinFunctor,
    g_fun: FinFunctor,
    eta: Mapping[tuple[str, str], Mapping[str, str]],
) -> tuple[bool, tuple | None]:
    """Verify a hom-set bijection family is an adjunction F -| G.

    eta[(A, B)] maps Mor_C(A, G(B)) to Mor_D(F(A), B); bijectivity and both
    naturality squares are checked over every morphism of each category.
    Returns (ok, witness).
    """
    c, d = f_fun.source, g_fun.source
    if f_fun.target is not d or g_fun.target is not c:
        raise ValidationError("adjunction functors must be opposite ways")
    for a in c.objects:
        for b in d.objects:
            src = c.hom(a, g_fun.object_map[b])
            tgt = d.hom(f_fun.object_map[a], b)
            table = eta.get((a, b), {})
            if set(table) != set(src):
                return False, ("domain", a, b)
            values = [table[u] for u in src]
            if sorted(values) != sorted(tgt):
                return False, ("bijection", a, b)
    for a in c.objects:
        for b in d.objects:
            for u in c.hom(a, g_fun.object_map[b]):
                for f in c.morphisms():
                    fx, fy = c.endpoints(f)
                    if fy != a:
                        continue
                    lhs = eta[(fx, b)][c.then(f, u)]
                    rhs = d.then(f_fun.morphism_map[f], eta[(a, b)][u])
                    if lhs != rhs:
                        return False, ("naturality-A", f, u)
                for g in d.morphisms():
                    gx, gy = d.endpoints(g)
                    if gx != b:
                        continue
                    lhs = eta[(a, gy)][c.then(u, g_fun.morphism_map[g])]
                    rhs = d.then(eta[(a, b)][u], g)
                    if lhs != rhs:
                        return False, ("naturality-B", g, u)
    return True, None


def galois_adjunction_data(
    pi: Poset, pj: Poset, f: Mapping[str, str], g: Mapping[str, str]
) -> tuple[FinFunctor, FinFunctor, dict]:
    """Package a Galois pair as functors plus hom bijections between poset categories."""
    f_fun = functor_from_monotone(pi, pj, f)
    g_fun = functor_from_monotone(pj, pi, g)
    eta: dict[tuple[str, str], dict[str, str]] = {}
    for a in pi.elements:
        for b in pj.elements:
            table = {}
            if pi.leq(a, g[b]) and pj.leq(f[a], b):
                table[mor_label(a, g[b])] = mor_label(f[a], b)
            eta[(a, b)] = table
    return f_fun, g_fun, eta


@dataclass(frozen=True)
class EquivalenceReport:
    ess_surjective: bool
    full: bool
    faithful: bool

    @property
    def is_equivalence(self) -> bool:
        return self.ess_surjective and self.full and self.faithful


def check_equivalence(fun: FinFunctor) -> EquivalenceReport:
    """Essential surjectivity by iso search, fullness/faithfulness per hom pair."""
    c, d = fun.source, fun.target
    image_objects = set(fun.object_map.values())
    ess = all(
        any(objects_isomorphic(d, y, x) for x in image_objects) for y in d.objects
    )
    full = True
    faithful = True
    for x in c.objects:
        for y in c.objects:
            images = [fun.morphism_map[f] for f in c.hom(x, y)]
            target = d.hom(fun.object_map[x], fun.object_map[y])
            if len(set(images)) != len(images):
                faithful = False
            if set(target) - set(images):
                full = False
    return EquivalenceReport(ess, full, faithful)


def quotient_category(
    cat: FinCategory, partition: Mapping[str, str]
) -> FinCategory:
    """Quotient by a hom-set partition compatible with composition.

    partition maps each morphism to a class tag; classes may not cross
    hom-sets, and whenever [f] = [f'] all composites [g f] = [g f'] and
    [f h] = [f' h] must agree (checked exhaustively, witness returned).
    """
    morphisms = cat.morphisms()
    if set(partition) != set(morphisms):
        raise ValidationError("partition must cover exactly the morphisms")
    members: dict[str, list[str]] = {}
    for f in morphisms:
        members.setdefault(partition[f], []).append(f)
    for tag, fs in members.items():
        pairs = {cat.endpoints(f) for f in fs}
        if len(pairs) != 1:
            raise ValidationError(
                f"class {tag} mixes hom-sets", witness=tuple(fs)
            )
    for f in morphisms:
        for f2 in morphisms:
            if partition[f] != partition[f2] or f == f2:
                continue
            for g in morphisms:
                gx, _ = cat.endpoints(g)
                if cat.endpoints(f)[1] == gx:
                    if partition[cat.then(f, g)] != partition[cat.then(f2, g)]:
                        raise ValidationError(
                            "partition is not a congruence",
                            witness=(f, f2, g),
                        )
                _, gy = cat.endpoints(g)
                if gy == cat.endpoints(f)[0]:
                    if partition[cat.then(g, f)] != partition[cat.then(g, f2)]:
                        raise ValidationError(
                            "partition is not a congruence",
                            witness=(g, f, f2),
                        )
    class_label = {tag: f"[{min(fs)}]" for tag, fs in members.items()}
    homs: dict[tuple[str, str], list[str]] = {}
    seen = set()
    for f in morphisms:
        lab = class_label[partition[f]]
        if lab in seen:
            continue
        seen.add(lab)
        homs.setdefault(cat.endpoints(f), []).append(lab)
    compose = {}
    for (f, g), h in cat.compose.items():
        compose[(class_label[partition[f]], class_label[partition[g]])] = class_label[
            partition[h]
        ]
    identities = {x: class_label[partition[i]] for x, i in cat.identities.items()}
    return validate_category(cat.objects, homs, compose, identities)
