"""Line-oriented text formats for every object the CLI exchanges.

All formats are UTF-8 with ``#`` comments and blank lines ignored.  Scalars
are written ``p`` or ``p/q``.  Linear combinations are written ``c*label`` terms
joined by `` + `` / `` - ``; the coefficient is always explicit, so labels
themselves may contain ``*`` (bound path algebras use path labels like
``a*b``).  Labels must not contain whitespace or ``+`` / ``-``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import SCAlgebra, make_algebra
from .bound import RelationSet, relation_set
from .catfinite import FinCategory, FinFunctor, Poset, validate_category, validate_poset
from .errors import FormatError
from .linalg import Matrix
from .quiver import Quiver, validate_quiver
from .vquiver import Vquiver, validate_vquiver


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _shown(token: str) -> str:
    """The token for an error message, cut short when it is long."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _split_once(text: str, sep: str, line: str, kind: str) -> tuple[str, str]:
    """``text`` cut at its first ``sep``; a FormatError naming ``line`` without one."""
    if sep not in text:
        raise FormatError(f"bad {kind} line {line!r}: no {sep!r}")
    head, tail = text.split(sep, 1)
    return head, tail


def parse_scalar(token: str) -> Fraction:
    # Fraction alone also takes exponents, and expands 1e100000000 to 10^8 digits
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token):
        raise FormatError(f"bad scalar {_shown(token)}: expected p or p/q")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar {_shown(token)}: {exc}") from None


def check_label(label: str) -> str:
    if not label or any(ch in label for ch in " \t+-"):
        raise FormatError(f"bad label {label!r}: no whitespace or '+'/'-' allowed")
    return label


def scalar_to_text(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # Python refuses to write long integers in decimal
        raise FormatError(
            f"scalar too large to write: over {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_lincomb(text: str) -> list[tuple[Fraction, str]]:
    """Parse ``c1*lab1 + c2*lab2 - ...``; ``0`` denotes the empty combination."""
    text = text.strip()
    if text == "0":
        return []
    normalized = re.sub(r"\s*([+-])\s*", r"\1", text).replace("-", "+-")
    terms = []
    for chunk in normalized.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" not in chunk:
            raise FormatError(f"term {chunk!r} must look like coeff*label")
        coeff, label = chunk.split("*", 1)
        terms.append((parse_scalar(coeff.strip()), label.strip()))
    if not terms:
        raise FormatError(f"empty linear combination {text!r}")
    return terms


def lincomb_to_text(vector: Sequence, labels: Sequence[str]) -> str:
    return _terms_to_text(zip(vector, labels))


def _terms_to_text(terms: Iterable[tuple[Fraction, str]]) -> str:
    """``c*label`` terms in the given order, zero coefficients skipped."""
    parts = []
    for c, lab in terms:
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{scalar_to_text(abs(c))}*{lab}"))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


# ---------------------------------------------------------------------------
# quiver
# ---------------------------------------------------------------------------


def parse_quiver(text: str) -> Quiver:
    lines = _lines(text)
    if not lines or lines[0] != "quiver":
        raise FormatError("quiver file must start with a 'quiver' line")
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    for line in lines[1:]:
        if line.startswith("vertex "):
            vertices.append(check_label(line[len("vertex "):].strip()))
        elif line.startswith("arrow "):
            label, ends = _split_once(line[len("arrow "):], ":", line, "arrow")
            src, tgt = _split_once(ends, "->", line, "arrow")
            arrows.append(
                (check_label(label.strip()), src.strip(), tgt.strip())
            )
        else:
            raise FormatError(f"unrecognized quiver line {line!r}")
    return validate_quiver(vertices, arrows)


def quiver_to_text(q: Quiver) -> str:
    out = ["quiver"]
    out += [f"vertex {v}" for v in q.vertices]
    out += [f"arrow {lab}: {s} -> {t}" for lab, s, t in q.arrows]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def parse_algebra(text: str) -> SCAlgebra:
    lines = _lines(text)
    if not lines or not lines[0].startswith("algebra dim "):
        raise FormatError("algebra file must start with 'algebra dim <n>'")
    try:
        dim = int(lines[0][len("algebra dim "):])
    except ValueError:
        raise FormatError(f"bad dimension in {lines[0]!r}") from None
    labels: list[str] | None = None
    unit_terms = None
    products: dict[tuple[str, str], list[tuple[Fraction, str]]] = {}
    for line in lines[1:]:
        if line.startswith("basis:"):
            labels = [check_label(t) for t in line[len("basis:"):].split()]
        elif line.startswith("unit:"):
            unit_terms = parse_lincomb(line[len("unit:"):])
        elif line.startswith("mul "):
            left, rhs = _split_once(line[len("mul "):], "=", line, "mul")
            factors = left.split()
            if len(factors) != 2:
                raise FormatError(f"mul needs two basis labels: {line!r}")
            products[(factors[0], factors[1])] = parse_lincomb(rhs)
        else:
            raise FormatError(f"unrecognized algebra line {line!r}")
    if labels is None or unit_terms is None:
        raise FormatError("algebra file needs 'basis:' and 'unit:' lines")
    if len(labels) != dim:
        raise FormatError(f"declared dim {dim} but {len(labels)} basis labels")
    index = {l: i for i, l in enumerate(labels)}

    def resolve(label: str) -> int:
        if label not in index:
            raise FormatError(f"unknown basis label {label!r}")
        return index[label]

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (x, y), terms in products.items():
        entry: dict[int, Fraction] = {}
        for c, lab in terms:
            entry[resolve(lab)] = entry.get(resolve(lab), Fraction(0)) + c
        table[(resolve(x), resolve(y))] = entry
    unit = [Fraction(0)] * dim
    for c, lab in unit_terms:
        unit[resolve(lab)] += c
    return make_algebra(labels, table, unit)


def algebra_to_text(a: SCAlgebra) -> str:
    labels = a.basis_labels
    out = [f"algebra dim {a.dim}", "basis: " + " ".join(labels)]
    out.append("unit: " + lincomb_to_text(a.unit, labels))
    for (i, j), entry in sorted(a.mult.items()):
        terms = _terms_to_text((entry[k], labels[k]) for k in sorted(entry))
        out.append(f"mul {labels[i]} {labels[j]} = {terms}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def parse_relations(text: str, quiver: Quiver) -> RelationSet:
    lines = _lines(text)
    if lines and lines[0] == "relations":
        lines = lines[1:]
    max_len = None
    rels = []
    for line in lines:
        if line.startswith("maxlen:"):
            try:
                max_len = int(line[len("maxlen:"):])
            except ValueError:
                raise FormatError(f"bad maxlen line {line!r}") from None
        elif line.startswith("relation:"):
            terms = parse_lincomb(line[len("relation:"):])
            rels.append(
                [(c, tuple(lab.split("*"))) for c, lab in terms]
            )
        else:
            raise FormatError(f"unrecognized relations line {line!r}")
    return relation_set(quiver, rels, max_len=max_len)


def relations_to_text(r: RelationSet) -> str:
    out = ["relations", f"maxlen: {r.max_len}"]
    for rel in r.relations:
        vector = [c for c, _ in rel]
        labels = ["*".join(labs) for _, labs in rel]
        out.append("relation: " + lincomb_to_text(vector, labels))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# vquiver
# ---------------------------------------------------------------------------


def parse_vquiver(text: str) -> Vquiver:
    lines = _lines(text)
    if not lines or lines[0] != "vquiver":
        raise FormatError("vquiver file must start with a 'vquiver' line")
    vertices: list[str] = []
    spaces: dict[tuple[str, str], object] = {}
    for line in lines[1:]:
        if line.startswith("vertex "):
            vertices.append(check_label(line[len("vertex "):].strip()))
        elif line.startswith("edges "):
            pair_part, spec = _split_once(line[len("edges "):], ":", line, "edges")
            pair = pair_part.split()
            if len(pair) != 2:
                raise FormatError(f"edges line needs two vertices: {line!r}")
            tokens = spec.split()
            if not tokens or tokens[0] != "dim":
                raise FormatError(f"edges line needs 'dim <d>': {line!r}")
            try:
                d = int(tokens[1])
            except (IndexError, ValueError):
                raise FormatError(f"bad dimension in {line!r}") from None
            labels = [check_label(t) for t in tokens[2:]]
            if labels and len(labels) != d:
                raise FormatError(
                    f"edges line declares dim {d} but {len(labels)} labels"
                )
            spaces[(pair[0], pair[1])] = labels if labels else d
        else:
            raise FormatError(f"unrecognized vquiver line {line!r}")
    return validate_vquiver(vertices, spaces)


def vquiver_to_text(vq: Vquiver) -> str:
    out = ["vquiver"]
    out += [f"vertex {v}" for v in vq.vertices]
    for (e, f), labs in vq.edge_labels.items():
        out.append(f"edges {e} {f}: dim {len(labs)} " + " ".join(labs))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# quiver representations
# ---------------------------------------------------------------------------


def parse_rep(text: str, quiver: Quiver):
    """Vertex dimensions and arrow matrices; validation happens in repcat."""
    from .repcat import validate_rep

    lines = _lines(text)
    if not lines or lines[0] != "rep":
        raise FormatError("rep file must start with a 'rep' line")
    spaces: dict[str, int] = {}
    maps: dict[str, Matrix] = {}
    arrow_shape = {lab: (s, t) for lab, s, t in quiver.arrows}
    for line in lines[1:]:
        if line.startswith("space "):
            v, d = _split_once(line[len("space "):], ":", line, "space")
            try:
                spaces[v.strip()] = int(d)
            except ValueError:
                raise FormatError(f"bad dimension in {line!r}") from None
        elif line.startswith("map "):
            lab, body = _split_once(line[len("map "):], ":", line, "map")
            lab = lab.strip()
            if lab not in arrow_shape:
                raise FormatError(f"map for unknown arrow {lab!r}")
            rows = [r.strip() for r in body.split(";")]
            entries = [
                [parse_scalar(t) for t in r.split()] for r in rows if r
            ]
            s, t = arrow_shape[lab]
            rows_n = spaces.get(t, 0)
            cols_n = spaces.get(s, 0)
            if rows_n and cols_n:
                if len(entries) != rows_n or any(len(r) != cols_n for r in entries):
                    raise FormatError(
                        f"map {lab}: expected {rows_n}x{cols_n} entries"
                    )
                maps[lab] = Matrix(rows_n, cols_n, entries)
            else:
                maps[lab] = Matrix.zero(rows_n, cols_n)
        else:
            raise FormatError(f"unrecognized rep line {line!r}")
    return validate_rep(quiver, spaces, maps)


def rep_to_text(rep) -> str:
    out = ["rep"]
    for v in rep.quiver.vertices:
        out.append(f"space {v}: {rep.spaces[v]}")
    for lab, _, _ in rep.quiver.arrows:
        m = rep.maps[lab]
        body = " ; ".join(
            " ".join(scalar_to_text(x) for x in row) for row in m.entries
        )
        out.append(f"map {lab}: {body}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# finite categories
# ---------------------------------------------------------------------------


def parse_category(text: str) -> FinCategory:
    """Category table; identity composites are filled in when not overridden."""
    lines = _lines(text)
    objects: list[str] = []
    homs: dict[tuple[str, str], list[str]] = {}
    endpoints: dict[str, tuple[str, str]] = {}
    compose: dict[tuple[str, str], str] = {}
    identities: dict[str, str] = {}
    for line in lines:
        if line.startswith("objects:"):
            objects = [check_label(t) for t in line[len("objects:"):].split()]
        elif line.startswith("mor "):
            lab, ends = _split_once(line[len("mor "):], ":", line, "mor")
            x, y = _split_once(ends, "->", line, "mor")
            lab, x, y = lab.strip(), x.strip(), y.strip()
            homs.setdefault((x, y), []).append(check_label(lab))
            endpoints[lab] = (x, y)
        elif line.startswith("id "):
            x, lab = _split_once(line[len("id "):], "=", line, "id")
            identities[x.strip()] = lab.strip()
        elif line.startswith("comp "):
            left, h = _split_once(line[len("comp "):], "=", line, "comp")
            pair = left.split()
            if len(pair) != 2:
                raise FormatError(f"comp needs two morphisms: {line!r}")
            compose[(pair[0], pair[1])] = h.strip()
        else:
            raise FormatError(f"unrecognized category line {line!r}")
    for f, (x, y) in endpoints.items():
        ix, iy = identities.get(x), identities.get(y)
        if ix is not None:
            compose.setdefault((ix, f), f)
        if iy is not None:
            compose.setdefault((f, iy), f)
    return validate_category(objects, homs, compose, identities)


# ---------------------------------------------------------------------------
# Galois files, functor files, congruence files
# ---------------------------------------------------------------------------


def _transitive_reflexive_closure(elements: list[str], pairs: list[tuple[str, str]]):
    # one Warshall pass over every name, so undeclared ones reach validate_poset
    names = list(dict.fromkeys([*elements, *(x for pair in pairs for x in pair)]))
    above: dict[str, set[str]] = {x: set() for x in names}
    for a, b in pairs:
        above[a].add(b)
    for k in names:
        for x in names:
            if k in above[x]:
                above[x] |= above[k]
    return {(a, a) for a in elements} | {(a, b) for a in names for b in above[a]}


def parse_galois(text: str) -> tuple[Poset, Poset, dict[str, str], dict[str, str]]:
    """Two posets plus maps F: first -> second and G: second -> first.

    ``le`` lines are generators; the reflexive-transitive closure is taken
    before the poset axioms are verified.
    """
    lines = _lines(text)
    if not lines or lines[0] != "galois":
        raise FormatError("galois file must start with a 'galois' line")
    names: list[str] = []
    elements: dict[str, list[str]] = {}
    gens: dict[str, list[tuple[str, str]]] = {}
    f_map: dict[str, str] = {}
    g_map: dict[str, str] = {}
    for line in lines[1:]:
        if line.startswith("poset "):
            name, elems = _split_once(line[len("poset "):], ":", line, "poset")
            name = name.strip()
            names.append(name)
            elements[name] = [check_label(t) for t in elems.split()]
            gens.setdefault(name, [])
        elif line.startswith("le "):
            name, pair = _split_once(line[len("le "):], ":", line, "le")
            toks = pair.split()
            if len(toks) != 2:
                raise FormatError(f"le line needs two elements: {line!r}")
            gens.setdefault(name.strip(), []).append((toks[0], toks[1]))
        elif line.startswith("F:"):
            a, b = _split_once(line[len("F:"):], "->", line, "F")
            f_map[a.strip()] = b.strip()
        elif line.startswith("G:"):
            a, b = _split_once(line[len("G:"):], "->", line, "G")
            g_map[a.strip()] = b.strip()
        else:
            raise FormatError(f"unrecognized galois line {line!r}")
    if len(names) != 2:
        raise FormatError("galois file needs exactly two posets")
    for name in gens:
        if name not in elements:
            raise FormatError(f"le line names an undeclared poset {name!r}")
    posets = []
    for name in names:
        le = _transitive_reflexive_closure(elements[name], gens.get(name, []))
        posets.append(validate_poset(elements[name], le))
    if set(f_map) != set(elements[names[0]]) or set(g_map) != set(elements[names[1]]):
        raise FormatError("F and G must be total on their posets")
    return posets[0], posets[1], f_map, g_map


def parse_functor(text: str, source: FinCategory, target: FinCategory) -> FinFunctor:
    from .catfinite import validate_functor

    lines = _lines(text)
    if not lines or not lines[0].startswith("functor"):
        raise FormatError("functor file must start with a 'functor' line")
    variance = "covariant"
    tokens = lines[0].split()
    if len(tokens) > 1:
        variance = tokens[1]
    object_map: dict[str, str] = {}
    morphism_map: dict[str, str] = {}
    for line in lines[1:]:
        if line.startswith("ob "):
            a, b = _split_once(line[len("ob "):], "->", line, "ob")
            object_map[a.strip()] = b.strip()
        elif line.startswith("mor "):
            a, b = _split_once(line[len("mor "):], "->", line, "mor")
            morphism_map[a.strip()] = b.strip()
        else:
            raise FormatError(f"unrecognized functor line {line!r}")
    return validate_functor(
        FinFunctor(source, target, object_map, morphism_map, variance)
    )


def parse_congruence(text: str, cat: FinCategory) -> dict[str, str]:
    """Union-find over ``glue f g`` lines; singleton classes elsewhere."""
    lines = _lines(text)
    if lines and lines[0] == "congruence":
        lines = lines[1:]
    parent = {f: f for f in cat.morphisms()}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for line in lines:
        if not line.startswith("glue "):
            raise FormatError(f"unrecognized congruence line {line!r}")
        toks = line[len("glue "):].split()
        if len(toks) != 2:
            raise FormatError(f"glue needs two morphisms: {line!r}")
        for t in toks:
            if t not in parent:
                raise FormatError(f"unknown morphism {t!r}")
        parent[find(toks[0])] = find(toks[1])
    return {f: find(f) for f in cat.morphisms()}
