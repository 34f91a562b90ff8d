"""Text formats round-trip and the CLI behaves per its exit-code contract."""

import contextlib
import io
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivalg import algebra as alg
from quivalg import bound, corpus, formats, quiver
from quivalg.cli import main
from quivalg.errors import FormatError, ValidationError
from quivalg.quiver import validate_quiver
from quivalg.vquiver import validate_vquiver

from dense_oracles import lu_matrix, transport


class TestScalarsAndLincombs:
    def test_scalar_forms(self):
        assert formats.parse_scalar("3/2") == alg.frac("3/2")
        assert formats.parse_scalar("-7") == -7
        with pytest.raises(FormatError):
            formats.parse_scalar("x")
        with pytest.raises(FormatError):
            formats.parse_scalar("1/0")
        for token in ("1.5", "1_0", " 3", "3/-2", "0x10", "inf"):
            with pytest.raises(FormatError):
                formats.parse_scalar(token)

    def test_exponent_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(FormatError):
            formats.parse_scalar("1e100000000")
        assert time.perf_counter() - start < 1.0

    def test_long_token_is_quoted_short(self):
        token = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(FormatError) as err:
            formats.parse_scalar(token)
        message = str(err.value)
        assert len(message) < 400
        assert f"({len(token)} characters)" in message

    def test_scalar_too_large_to_write(self):
        limit = sys.get_int_max_str_digits()
        for x in (Fraction(10**limit), Fraction(1, 10**limit), Fraction(-(10**limit), 7)):
            with pytest.raises(FormatError, match=f"over {limit} digits"):
                formats.scalar_to_text(x)
        with pytest.raises(FormatError):
            formats.lincomb_to_text((Fraction(10**limit),), ("a",))
        assert formats.scalar_to_text(Fraction(10**(limit - 1))) == str(10**(limit - 1))

    def test_lincomb_roundtrip(self):
        labels = ("a", "b", "c")
        vector = (alg.frac("1/2"), alg.frac(0), alg.frac(-3))
        text = formats.lincomb_to_text(vector, labels)
        parsed = formats.parse_lincomb(text)
        out = [alg.frac(0)] * 3
        for c, lab in parsed:
            out[labels.index(lab)] += c
        assert tuple(out) == vector

    def test_zero_lincomb(self):
        assert formats.lincomb_to_text((0, 0), ("a", "b")) == "0"
        assert formats.parse_lincomb("0") == []

    def test_starred_labels_survive(self):
        parsed = formats.parse_lincomb("1*a*b - 2*c")
        assert parsed == [(1, "a*b"), (-2, "c")]


class TestRoundTrips:
    def test_quiver(self):
        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        again = formats.parse_quiver(formats.quiver_to_text(q))
        assert again == q

    def test_algebra(self):
        for a in (alg.upper_triangular(2), alg.truncated_poly(3), corpus.mixed_algebra()):
            again = formats.parse_algebra(formats.algebra_to_text(a))
            assert alg.same_table(again, a)
            assert again.basis_labels == a.basis_labels

    def test_algebra_text_matches_the_dense_expansion(self):
        def dense_text(a):
            out = [f"algebra dim {a.dim}", "basis: " + " ".join(a.basis_labels)]
            out.append("unit: " + formats.lincomb_to_text(a.unit, a.basis_labels))
            for (i, j), entry in sorted(a.mult.items()):
                vector = [entry.get(k, Fraction(0)) for k in range(a.dim)]
                out.append(f"mul {a.basis_labels[i]} {a.basis_labels[j]} = "
                           + formats.lincomb_to_text(vector, a.basis_labels))
            return "\n".join(out) + "\n"

        p = lu_matrix(6, [1, -2] * 7 + [3], [2, 0, -1] * 5, [1, 2, -1, 1, -2, 1])
        dense = transport(alg.upper_triangular(3), p)
        # the same table with every entry's keys stored in descending order
        shuffled = alg.SCAlgebra(dense.dim, dense.basis_labels, {
            key: dict(sorted(entry.items(), reverse=True)) for key, entry in dense.mult.items()
        }, dense.unit)
        assert any(list(e) != sorted(e) for e in shuffled.mult.values())
        algebras = [a for _, a in corpus.corpus_basic()] + [
            dense, shuffled, alg.truncated_poly(9), bound.bound_algebra(corpus.a3_bound_algebra()[1])[0]]
        for a in algebras:
            assert formats.algebra_to_text(a) == dense_text(a)
        assert formats.algebra_to_text(shuffled) == formats.algebra_to_text(dense)

    def test_bound_algebra_with_path_labels(self):
        b, _ = bound.bound_algebra(corpus.a3_bound_algebra()[1])
        again = formats.parse_algebra(formats.algebra_to_text(b))
        assert alg.same_table(again, b)

    def test_vquiver(self):
        v = validate_vquiver(["e", "f"], {("e", "f"): ["x", "y"]})
        again = formats.parse_vquiver(formats.vquiver_to_text(v))
        assert again.vertices == v.vertices and again.edge_labels == v.edge_labels

    def test_relations(self):
        q = validate_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
        r = bound.relation_set(
            q, [[(1, ("a", "a")), (-1, ("b", "b"))]], max_len=3
        )
        again = formats.parse_relations(formats.relations_to_text(r), q)
        assert again.relations == r.relations and again.max_len == 3

    def test_rep(self):
        from quivalg import repcat
        from quivalg.linalg import Matrix

        q = validate_quiver(["1", "2"], [("h", "1", "2")])
        rep = repcat.validate_rep(q, {"1": 2, "2": 1}, {"h": Matrix(1, 2, [[1, -2]])})
        again = formats.parse_rep(formats.rep_to_text(rep), q)
        assert again.spaces == rep.spaces and again.maps["h"] == rep.maps["h"]

    def test_malformed_inputs(self):
        with pytest.raises(FormatError):
            formats.parse_quiver("not a quiver\n")
        with pytest.raises(FormatError):
            formats.parse_algebra("algebra dim x\n")
        with pytest.raises(FormatError):
            formats.parse_vquiver("vquiver\nedges a b: dim\n")

    def test_shipped_samples_parse(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "samples"
        quiver = formats.parse_quiver((root / "one_arrow.quiver").read_text())
        formats.parse_rep((root / "one_arrow.rep").read_text(), quiver)
        loops = formats.parse_quiver((root / "two_loops.quiver").read_text())
        rel = formats.parse_relations((root / "two_loops.rel").read_text(), loops)
        assert bound.check_admissible(rel).admissible
        formats.parse_vquiver((root / "chain.vq").read_text())
        formats.parse_category((root / "arrow_category.cat").read_text())
        formats.parse_galois((root / "closure.galois").read_text())

    @given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=5))
    def test_lincomb_roundtrip_property(self, coeffs):
        labels = tuple(f"b{i}" for i in range(len(coeffs)))
        text = formats.lincomb_to_text(coeffs, labels)
        out = [alg.frac(0)] * len(coeffs)
        for c, lab in formats.parse_lincomb(text):
            out[labels.index(lab)] += c
        assert out == [alg.frac(c) for c in coeffs]


def fixpoint_closure(elements, pairs):
    """The former quadratic-per-pass closure, kept as the test oracle."""
    le = {(a, a) for a in elements}
    le.update(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return le


class TestPosetClosure:
    NAMES = ["a", "b", "c", "d", "e", "f"]

    @given(
        st.lists(st.sampled_from(NAMES), unique=True, max_size=5),
        st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=10),
    )
    def test_warshall_matches_fixpoint(self, elements, pairs):
        got = formats._transitive_reflexive_closure(elements, pairs)
        assert got == fixpoint_closure(elements, pairs)

    def test_undeclared_element_rejected(self):
        text = "galois\nposet J: a b\nle J: a z\nposet I: a\nF: a -> a\nF: b -> a\nG: a -> a\n"
        with pytest.raises(ValidationError, match=r"undeclared element \(a, z\)"):
            formats.parse_galois(text)


def run_cli(args, stdin_text=""):
    """Invoke main() in-process, capturing stdout."""
    old_stdin, old_stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = main(args)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_stdin, old_stdout
    return code, out


QUIVER_TEXT = "quiver\nvertex 1\nvertex 2\narrow h: 1 -> 2\n"


class TestCLI:
    def test_quiver_info(self):
        code, out = run_cli(["quiver", "info"], QUIVER_TEXT)
        assert code == 0 and "acyclic: True" in out

    def test_quiver_paths(self):
        code, out = run_cli(["quiver", "paths"], QUIVER_TEXT)
        assert code == 0
        assert [l.split()[0] for l in out.splitlines()] == ["p_1", "p_2", "h"]

    def test_build_pipe_radical(self):
        code, built = run_cli(["algebra", "build", "upper-triangular", "2"])
        assert code == 0
        code, out = run_cli(["algebra", "radical"], built)
        assert code == 0 and "dim J = 1" in out

    def test_gallery_deterministic_and_green(self):
        code1, out1 = run_cli(["paper-gallery"])
        code2, out2 = run_cli(["paper-gallery"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert all(line.startswith("PASS") for line in out1.splitlines())

    def test_malformed_input_exits_2(self):
        code, _ = run_cli(["quiver", "info"], "bogus\n")
        assert code == 2

    def test_exponent_in_algebra_file_exits_2(self, tmp_path):
        path = tmp_path / "huge.alg"
        path.write_text(
            "algebra dim 1\nbasis: 1\nunit: 1*1\nmul 1 1 = 1e100000000*1\n"
        )
        code, _ = run_cli(["algebra", "info", str(path)])
        assert code == 2

    def test_validation_failure_exits_1(self):
        # cyclic quiver cannot have a finite path algebra
        cyclic = "quiver\nvertex 1\narrow a: 1 -> 1\n"
        code, _ = run_cli(["quiver", "path-algebra"], cyclic)
        assert code == 1

    def test_bound_check_and_construct(self, tmp_path):
        qf = tmp_path / "q.quiver"
        rf = tmp_path / "r.rel"
        qf.write_text("quiver\nvertex 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n")
        rf.write_text(
            "relations\nmaxlen: 3\nrelation: 1*a*a\nrelation: 1*b*b\nrelation: 1*a*b\n"
        )
        code, out = run_cli(["bound", "check", str(qf), str(rf)])
        assert code == 0 and "PASS admissible m = 3" in out
        code, out = run_cli(["bound", "construct", str(qf), str(rf)])
        assert code == 0 and "algebra dim 4" in out

    def test_truncation_over_budget_exits_2(self, tmp_path, capsys):
        samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
        rf = tmp_path / "two_loops.rel"
        rf.write_text((samples / "two_loops.rel").read_text().replace("maxlen: 3", "maxlen: 40"))
        start = time.perf_counter()
        code, out = run_cli(["bound", "check", str(samples / "two_loops.quiver"), str(rf)])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == (f"error (malformed input): truncation at maxlen 40 has over "
                       f"{quiver.MAX_TRUNCATION_PATHS} paths (MAX_TRUNCATION_PATHS); lower maxlen\n")

    def test_path_algebra_over_budget_exits_2(self, tmp_path, capsys):
        # the complete DAG on 22 vertices has 2^22 - 1 paths; none is built
        n = 22
        lines = ["quiver"] + [f"vertex v{i}" for i in range(n)] + [
            f"arrow a{i}_{j}: v{i} -> v{j}" for i in range(n) for j in range(i + 1, n)]
        qf = tmp_path / "dag22.quiver"
        qf.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out = run_cli(["quiver", "path-algebra", str(qf)])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (f"error (malformed input): path algebra has over "
                                           f"{quiver.MAX_TRUNCATION_PATHS} paths "
                                           "(MAX_TRUNCATION_PATHS)\n")

    def test_inadmissible_exits_1(self, tmp_path):
        qf = tmp_path / "q.quiver"
        rf = tmp_path / "r.rel"
        qf.write_text("quiver\nvertex 1\narrow a: 1 -> 1\n")
        rf.write_text("relations\nmaxlen: 3\n")
        code, out = run_cli(["bound", "check", str(qf), str(rf)])
        assert code == 1 and "FAIL" in out

    def test_adjunction_unit_counit(self, tmp_path):
        vf = tmp_path / "v.vq"
        vf.write_text("vquiver\nvertex e\nvertex f\nedges e f: dim 1 x\n")
        code, out = run_cli(["adjunction", "unit", str(vf)])
        assert code == 0 and "PASS unit-iso" in out
        code, built = run_cli(["algebra", "build", "upper-triangular", "3"])
        code, out = run_cli(["adjunction", "counit"], built)
        assert code == 0 and "PASS counit-surjective" in out

    def test_adjunction_triangles_on_files(self, tmp_path):
        vf = tmp_path / "v.vq"
        vf.write_text("vquiver\nvertex e\nvertex f\nedges e f: dim 1 x\n")
        af = tmp_path / "a.alg"
        _, built = run_cli(["algebra", "build", "upper-triangular", "2"])
        af.write_text(built)
        code, out = run_cli(
            ["adjunction", "triangles", "--vquiver", str(vf), "--algebra", str(af)]
        )
        assert code == 0
        assert "F-triangle" in out and "G-triangle" in out

    def test_algebra_gabriel_and_present(self):
        _, built = run_cli(["algebra", "build", "upper-triangular", "3"])
        code, out = run_cli(["algebra", "gabriel"], built)
        assert code == 0 and "vquiver" in out
        code, out = run_cli(["algebra", "present"], built)
        assert code == 0 and "PASS presentation" in out

    def test_algebra_idempotents(self):
        _, built = run_cli(["algebra", "build", "upper-triangular", "2"])
        code, out = run_cli(["algebra", "idempotents"], built)
        assert code == 0 and "e0 = 1*E11" in out

    def test_cat_validate_galois_adjunction(self, tmp_path):
        cat_text = (
            "objects: X Y\n"
            "mor idX: X -> X\nmor idY: Y -> Y\nmor f: X -> Y\n"
            "id X = idX\nid Y = idY\n"
        )
        cf_file = tmp_path / "c.cat"
        cf_file.write_text(cat_text)
        code, out = run_cli(["cat", "validate", str(cf_file)])
        assert code == 0 and "PASS category-valid" in out
        galois = tmp_path / "g.galois"
        galois.write_text(
            "galois\n"
            "poset J: e s1 s2 X\nle J: e s1\nle J: e s2\nle J: s1 X\nle J: s2 X\n"
            "poset I: e s2 X\nle I: e s2\nle I: s2 X\n"
            "F: e -> e\nF: s1 -> X\nF: s2 -> s2\nF: X -> X\n"
            "G: e -> e\nG: s2 -> s2\nG: X -> X\n"
        )
        code, out = run_cli(["cat", "adjunction", str(galois)])
        assert code == 0 and "PASS hom-bijection-adjunction" in out
        # corrupt one table entry: caught with nonzero exit
        bad = galois.read_text().replace("F: s1 -> X", "F: s1 -> s2")
        badf = tmp_path / "bad.galois"
        badf.write_text(bad)
        code, out = run_cli(["cat", "adjunction", str(badf)])
        assert code == 1 and "FAIL galois" in out

    def test_cat_equivalence_and_quotient(self, tmp_path):
        cat_text = (
            "objects: X Y\n"
            "mor idX: X -> X\nmor idY: Y -> Y\nmor f: X -> Y\nmor g: X -> Y\n"
            "id X = idX\nid Y = idY\n"
        )
        cfile = tmp_path / "c.cat"
        cfile.write_text(cat_text)
        fun = tmp_path / "f.fun"
        fun.write_text(
            "functor covariant\nob X -> X\nob Y -> Y\n"
            "mor idX -> idX\nmor idY -> idY\nmor f -> f\nmor g -> f\n"
        )
        code, out = run_cli(
            ["cat", "equivalence", "--source", str(cfile), "--target", str(cfile), str(fun)]
        )
        assert code == 1  # not faithful: f and g collapse
        assert "FAIL faithful" in out
        cong = tmp_path / "c.cong"
        cong.write_text("congruence\nglue f g\n")
        code, out = run_cli(["cat", "quotient", str(cfile), "--congruence", str(cong)])
        assert code == 0 and "PASS quotient-valid" in out

    def test_rep_validate_and_convert(self, tmp_path):
        qf = tmp_path / "q.quiver"
        qf.write_text(QUIVER_TEXT)
        rf = tmp_path / "r.rep"
        rf.write_text("rep\nspace 1: 1\nspace 2: 1\nmap h: 1\n")
        code, out = run_cli(["rep", "validate", str(rf), "--quiver", str(qf)])
        assert code == 0 and "PASS rep-valid" in out
        code, out = run_cli(
            ["rep", "convert", str(rf), "--quiver", str(qf), "--roundtrip"]
        )
        assert code == 0 and "PASS roundtrip" in out

    def test_vquiver_info_and_path_algebra(self, tmp_path):
        vf = tmp_path / "v.vq"
        vf.write_text("vquiver\nvertex e\nvertex f\nedges e f: dim 2 x y\n")
        code, out = run_cli(["vquiver", "info", str(vf)])
        assert code == 0 and "path algebra dimension: 4" in out
        code, out = run_cli(["vquiver", "path-algebra", str(vf)])
        assert code == 0 and "algebra dim 4" in out


ROOT = pathlib.Path(__file__).resolve().parent.parent


def console_script_command(name):
    """argv prefix running the ``[project.scripts]`` entry point ``name``.

    The installed script when one is on PATH; otherwise the target declared
    in pyproject.toml, called the way a generated console script calls it.
    """
    exe = shutil.which(name)
    if exe is not None:
        return [exe], None
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)
    assert match, f"no [project.scripts] entry for {name}"
    module, func = match.groups()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", code], env


SAMPLES = ROOT / "samples"

# each sample with the CLI call that reads it from stdin
SAMPLE_COMMANDS = {
    "arrow_category.cat": ["cat", "validate", "-"],
    "chain.vq": ["vquiver", "info", "-"],
    "closure.galois": ["cat", "adjunction", "-"],
    "one_arrow.quiver": ["quiver", "info", "-"],
    "one_arrow.rep": ["rep", "validate", "-", "--quiver", str(SAMPLES / "one_arrow.quiver")],
    "square.quiver": ["quiver", "info", "-"],
    "square.rel": ["bound", "check", str(SAMPLES / "square.quiver"), "-"],
    "two_loops.quiver": ["quiver", "info", "-"],
    "two_loops.rel": ["bound", "check", str(SAMPLES / "two_loops.quiver"), "-"],
}


@st.composite
def mutated_samples(draw):
    """A sample file with one line mutated: a character deleted or inserted,
    the line truncated, duplicated or dropped."""
    name = draw(st.sampled_from(sorted(SAMPLE_COMMANDS)))
    lines = (SAMPLES / name).read_text().splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    kind = draw(st.sampled_from(["delete", "insert", "truncate", "duplicate", "drop"]))
    if kind == "delete":
        i = draw(st.integers(0, len(line) - 1))
        lines[k] = line[:i] + line[i + 1:]
    elif kind == "insert":
        i = draw(st.integers(0, len(line)))
        lines[k] = line[:i] + draw(st.sampled_from(":->*/ 0123456789x")) + line[i:]
    elif kind == "truncate":
        lines[k] = line[:draw(st.integers(0, len(line)))]
    elif kind == "duplicate":
        lines.insert(k, line)
    else:
        del lines[k]
    return name, "\n".join(lines) + "\n"


def run_cli_with_stderr(args, stdin_text):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(args, stdin_text)
    return code, err.getvalue()


GALOIS = (SAMPLES / "closure.galois").read_text()
CATEGORY = str(SAMPLES / "arrow_category.cat")


class TestMalformedLines:
    def test_every_sample_has_a_command(self):
        assert sorted(p.name for p in SAMPLES.iterdir()) == sorted(SAMPLE_COMMANDS)
        for name, args in SAMPLE_COMMANDS.items():
            assert run_cli(args, (SAMPLES / name).read_text())[0] == 0, name

    @given(mutated_samples())
    @settings(max_examples=100, deadline=None)
    def test_one_mutated_line_exits_0_1_or_2(self, sample):
        name, text = sample
        code, err = run_cli_with_stderr(SAMPLE_COMMANDS[name], text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @pytest.mark.parametrize("args, text", [
        pytest.param(SAMPLE_COMMANDS["closure.galois"], GALOIS.replace("poset J:", "poset J"),
                     id="galois-poset"),
        pytest.param(SAMPLE_COMMANDS["closure.galois"], GALOIS.replace("le J: e s1", "le J e s1"),
                     id="galois-le"),
        pytest.param(SAMPLE_COMMANDS["closure.galois"], GALOIS.replace("F: e -> e", "F: e e"),
                     id="galois-F"),
        pytest.param(SAMPLE_COMMANDS["closure.galois"], GALOIS.replace("G: e -> e", "G: e e"),
                     id="galois-G"),
        pytest.param(SAMPLE_COMMANDS["closure.galois"], GALOIS.replace("le J: e s1", "le K: e s1"),
                     id="galois-le-undeclared-poset"),
        pytest.param(["cat", "equivalence", "--source", CATEGORY, "--target", CATEGORY, "-"],
                     "functor\nob X Y\n", id="functor-ob"),
        pytest.param(["cat", "equivalence", "--source", CATEGORY, "--target", CATEGORY, "-"],
                     "functor\nob X -> X\nmor f f\n", id="functor-mor"),
        pytest.param(["quiver", "info", "-"], "quiver\nvertex a\nvertex b\narrow a->b: 1\n",
                     id="quiver-arrow-separators-swapped"),
        pytest.param(["cat", "validate", "-"], "objects: i j\nmor i->j: X\n",
                     id="category-mor-separators-swapped"),
    ])
    def test_pinned_malformed_lines_exit_2(self, args, text):
        code, err = run_cli_with_stderr(args, text)
        assert code == 2
        assert err.startswith("error (malformed input): ") and err.count("\n") == 1


class TestBuilderParameters:
    @pytest.mark.parametrize("params, want", [
        (["upper-triangular", "3"], 0),
        (["matrix", "2"], 0),
        (["truncated_poly", "4"], 0),
        (["group-algebra", "Z3"], 0),
        (["group-algebra", "z/3"], 0),
        (["group-algebra", "S3"], 0),
        (["direct-sum", "matrix:2", "truncated-poly:3"], 0),
        (["mixed-demo"], 0),
        ([], 2),
        (["upper-triangular"], 2),
        (["upper-triangular", "x"], 2),
        (["upper-triangular", "0"], 2),
        (["upper-triangular", "-1"], 2),
        (["upper-triangular", "1.5"], 2),
        (["upper-triangular", " 3"], 2),
        (["upper-triangular", "3", "4"], 2),
        (["matrix", "9" * 5000], 2),
        (["truncated-poly", ""], 2),
        (["group-algebra"], 2),
        (["group-algebra", "Zq"], 2),
        (["group-algebra", "Z0"], 2),
        (["group-algebra", "S4"], 2),
        (["group-algebra", "Z3", "Z4"], 2),
        (["direct-sum"], 2),
        (["direct-sum", "matrix:x"], 2),
        (["direct-sum", "matrix"], 2),
        (["direct-sum", "nope:2"], 2),
        (["mixed-demo", "3"], 2),
        (["nope", "3"], 2),
    ])
    def test_build_forms_exit_0_or_2_without_traceback(self, params, want):
        code, err = run_cli_with_stderr(["algebra", "build", *params], "")
        assert code == want
        if want:
            assert err.startswith("error (malformed input): ") and err.count("\n") == 1
            assert len(err) < 200
        else:
            assert err == ""


class TestLargeScalarOutput:
    def test_unwritable_action_exits_2_without_traceback(self, tmp_path):
        # each map has 3001 digits, so the path a*b acts by a 6001-digit scalar
        big = "1" + "0" * 3000
        qf = tmp_path / "a3.quiver"
        qf.write_text("quiver\nvertex 1\nvertex 2\nvertex 3\n"
                      "arrow a: 1 -> 2\narrow b: 2 -> 3\n")
        rf = tmp_path / "big.rep"
        rf.write_text(f"rep\nspace 1: 1\nspace 2: 1\nspace 3: 1\nmap a: {big}\nmap b: {big}\n")
        command, env = console_script_command("quivalg")
        result = subprocess.run(
            command + ["rep", "convert", str(rf), "--quiver", str(qf)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        limit = sys.get_int_max_str_digits()
        assert result.stderr == (
            f"error (malformed input): scalar too large to write: over {limit} digits\n"
        )


class TestHashSeedIndependence:
    def test_poset_witness_does_not_depend_on_hash_seed(self, tmp_path):
        path = tmp_path / "cycle.galois"
        path.write_text(
            "galois\nposet J: a b c\nle J: a b\nle J: b c\nle J: c a\n"
            "poset I: a\nF: a -> a\nF: b -> a\nF: c -> a\nG: a -> a\n"
        )
        command, env = console_script_command("quivalg")
        errs = set()
        for seed in ("1", "2", "3"):
            run_env = dict(os.environ if env is None else env, PYTHONHASHSEED=seed)
            result = subprocess.run(
                command + ["cat", "galois", str(path)],
                capture_output=True, text=True, env=run_env,
            )
            assert result.returncode == 1
            errs.add(result.stderr)
        assert errs == {"error (validation): antisymmetry fails on (a, b)\n"}


class TestConsoleScript:
    def test_installed_entry_point(self):
        command, env = console_script_command("quivalg")
        result = subprocess.run(
            command + ["paper-gallery"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


class TestSharedParser:
    def test_consecutive_calls_match_calls_made_alone(self, monkeypatch):
        """One parser serves every in-process call: no default or state leaks."""
        calls = [
            ["adjunction", "triangles", "--vquiver", "samples/chain.vq"],
            ["adjunction", "triangles"],
            ["quiver", "no-such-action", "samples/one_arrow.quiver"],
            ["quiver", "info", "samples/one_arrow.quiver"],
        ]
        command, env = console_script_command("quivalg")
        alone = []
        for argv in calls:
            result = subprocess.run(command + argv, capture_output=True, text=True,
                                    env=env, cwd=ROOT)
            alone.append((result.returncode, result.stdout))
        monkeypatch.chdir(ROOT)
        consecutive = []
        for argv in calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            consecutive.append((code, out.getvalue()))
        assert consecutive == alone
        assert [code for code, _ in alone] == [0, 0, 2, 0]
        assert "samples/chain.vq" in alone[0][1] and "samples/chain.vq" not in alone[1][1]

    def test_argparse_exits_become_return_codes(self, capsys):
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: quivalg") and err == ""
        assert main(["quiver", "no-such-action", "samples/one_arrow.quiver"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: quivalg quiver")
        assert "invalid choice: 'no-such-action'" in err
