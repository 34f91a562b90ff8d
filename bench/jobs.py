"""Job runners: the only benchmark code that calls into quivalg.

Each runner takes a job payload built by ``gen.py``, drives quivalg's public
functions the way a user would, and returns an answer dict for
``oracle.mismatches``.
"""

from __future__ import annotations

import contextlib
import io

import quivalg as qa
from quivalg import cli
from quivalg.errors import InadmissibleIdeal

from oracle import gabriel_shape


def run_present(payload):
    """make_algebra -> radical -> gabriel_vquiver -> counit -> present -> check."""
    labels, table, unit = payload
    a = qa.make_algebra(labels, table, unit)
    filt = qa.radical(a)
    ga = qa.gabriel_vquiver(a)
    eps = qa.counit(a).representative
    pres = qa.present_as_bound_quiver(a)
    adm = qa.check_admissible(pres.relations)
    vq = ga.vquiver
    n_vertices, edge_dims, degrees = gabriel_shape(
        vq.vertices, {pair: len(labs) for pair, labs in vq.edge_labels.items() if labs})
    return {
        "dim": a.dim,
        "radical_chain": [s.dim for s in filt.powers],
        "nilpotence_index": filt.nilpotence_index,
        "gabriel_vertices": n_vertices,
        "gabriel_edge_dims": edge_dims,
        "gabriel_degrees": degrees,
        "counit_surjective": bool(eps.surjective),
        "kernel_dim": pres.kernel.dim,
        "m": pres.admissible_m,
        "admissible": adm.admissible,
        "admissible_m": adm.m,
    }


def run_bound(payload):
    """check_admissible, then bound_algebra; a refused set is a verdict."""
    vertices, arrows, relations, max_len = payload
    q = qa.validate_quiver(vertices, arrows)
    r = qa.relation_set(q, relations, max_len=max_len)
    report = qa.check_admissible(r)
    try:
        dim = qa.bound_algebra(r)[0].dim
    except InadmissibleIdeal:
        dim = None
    return {"admissible": report.admissible, "m": report.m,
            "undetermined": report.undetermined,
            "inside_square": report.inside_square, "dim": dim}


def run_cli(payload):
    """quivalg.cli.main(argv) in process, with stdout and stderr captured."""
    (argv,) = payload
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


RUNNERS = {"present": run_present, "bound": run_bound, "cli": run_cli}
