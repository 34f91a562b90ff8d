"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

CLI_CONTEXT = {cid: {"exit": 0, "stdout": ""} for cid, _ in gen.CLI_POOL}


def round_bytes(workload, seed, index=0):
    return repr([(j.kind, j.family, j.payload, j.expected)
                 for j in gen.make_round(workload, seed, index, CLI_CONTEXT)]).encode()


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert round_bytes(workload, 5) == round_bytes(workload, 5)
    assert round_bytes(workload, 5, 2) == round_bytes(workload, 5, 2)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    assert round_bytes(workload, 5) != round_bytes(workload, 6)
    assert round_bytes(workload, 5, 0) != round_bytes(workload, 5, 1)


@pytest.mark.parametrize("workload", ["present-sparse", "present-dense", "bound-cyclic"])
def test_round_composition_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted((j.family, j.props["dim"], j.props["maxlen"])
                      for j in gen.make_round(workload, seed, 0))
    assert mix(1) == mix(2)


def test_dense_transport_is_the_same_algebra():
    import random

    labels, table, unit = gen.upper_triangular_table(2)
    _, dense, dense_unit = gen.transport(table, unit, random.Random(3))
    assert gen.coeff_bits(dense, dense_unit) > 1
    answer = jobs.run_present((labels, dense, dense_unit))
    assert oracle.mismatches(answer, oracle.upper_triangular_expected(2)) == []


# -- oracles --------------------------------------------------------------------


def test_upper_triangular_closed_form_matches_path_counting():
    for n in range(2, 7):
        vertices = tuple(str(i) for i in range(n))
        arrows = tuple((f"x{i}", str(i), str(i + 1)) for i in range(n - 1))
        paths = oracle.enumerate_paths(vertices, arrows, n)
        assert (oracle.path_algebra_expected(vertices, arrows, paths, len(paths))
                == oracle.upper_triangular_expected(n))


def test_bound_oracle_on_the_two_loop_sample():
    _, vertices, arrows = gen.LOOPS2
    counts = oracle.word_counts(vertices, arrows, [("a", "a"), ("b", "b"), ("a", "b")], 3)
    assert counts == [1, 2, 1, 0]
    assert oracle.bound_expected(counts, 3)["dim"] == 4
    # commuting loops with x^2 = y^2 = 0: k[x,y]/(x^2, y^2) has dimension 4
    comm = oracle.commutative_counts(2, [(2, 0), (0, 2)], 3)
    assert comm == [1, 2, 1, 0]
    assert oracle.bound_expected(oracle.commutative_counts(2, [(2, 0)], 3), 3)["undetermined"]


def test_oracles_reject_a_wrong_present_answer():
    job = gen.make_round("present-sparse", 1, 0)
    job = min((j for j in job if j.family.startswith("mono")), key=lambda j: j.props["dim"])
    answer = jobs.run_present(job.payload)
    assert oracle.mismatches(answer, job.expected) == []
    wrong = dict(answer, kernel_dim=answer["kernel_dim"] + 1)
    assert oracle.mismatches(wrong, job.expected) == ["kernel_dim"]
    wrong = dict(answer, radical_chain=answer["radical_chain"][:-1])
    assert oracle.mismatches(wrong, job.expected) == ["radical_chain"]


def test_oracles_reject_a_wrong_bound_answer():
    job = next(j for j in gen.make_round("bound-cyclic", 1, 0) if j.props["maxlen"] == 3
               and "loops3" not in j.family)
    answer = jobs.run_bound(job.payload)
    assert oracle.mismatches(answer, job.expected) == []
    flipped = dict(answer, admissible=not answer["admissible"])
    assert oracle.mismatches(flipped, job.expected) == ["admissible"]


def test_oracles_reject_a_wrong_cli_answer():
    expected = {"exit": 0, "stdout": "PASS galois\n"}
    assert oracle.mismatches({"exit": 0, "stdout": "PASS galois\n"}, expected) == []
    assert oracle.mismatches({"exit": 0, "stdout": "PASS galois \n"}, expected) == ["stdout"]
    assert oracle.mismatches({"exit": 1, "stdout": "PASS galois\n"}, expected) == ["exit"]


# -- tracing --------------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        (-1, 0.0, 10.0),   # 0: root
        (0, 1.0, 4.0),     # 1: child of root
        (1, 2.0, 3.0),     # 2: grandchild
        (0, 3.5, 6.0),     # 3: overlaps child 1 on [3.5, 4]
        (0, 9.0, 12.0),    # 4: sticks out of the root; only [9, 10] is covered
        (-1, 20.0, 21.0),  # 5: second root, no children
    ]
    got = spans.self_times(tree)
    want = [10.0 - (5.0 + 1.0), 2.0, 1.0, 2.5, 3.0, 1.0]
    assert got == pytest.approx(want)


def snapshot():
    from quivalg.linalg import Matrix

    state = {(m.__name__, a): o for m in spans.quivalg_modules() for a, o in vars(m).items()}
    state.update({("Matrix", meth): Matrix.__dict__[meth] for meth in spans.MATRIX_METHODS})
    return state


def test_wrappers_cover_copied_bindings_and_are_removed():
    import quivalg
    from quivalg import adjunction, algebra, bound, linalg

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (linalg, algebra, bound, adjunction):
            assert hasattr(mod.canonicalize, spans.MARK)
        assert hasattr(quivalg.radical, spans.MARK)
        assert hasattr(linalg.Matrix.nullspace, spans.MARK)
        labels, table, unit = gen.upper_triangular_table(2)
        tracer.job = 0
        jobs.run_present((labels, table, unit))
    finally:
        tracer.remove()
    spans.assert_clean()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[2] for s in tracer.spans}
    assert {"algebra.make_algebra", "algebra.radical", "linalg.canonicalize",
            "adjunction.present_as_bound_quiver", "linalg.Matrix.nullspace"} <= names
    metrics = tracer.metrics(1)
    assert metrics["algebra.radical.repeat_share"][0] > 0
    assert metrics["linalg.canonicalize.rows_in"][0] > 0
    assert 0 < metrics["linalg.canonicalize.rank_yield"][0] <= 1


def test_assert_clean_detects_a_leftover_wrapper():
    from quivalg import linalg

    tracer = spans.Tracer()
    original = linalg.canonicalize
    linalg.canonicalize = tracer.wrap(original, "linalg.canonicalize")
    try:
        with pytest.raises(RuntimeError):
            spans.assert_clean()
    finally:
        linalg.canonicalize = original
    spans.assert_clean()
