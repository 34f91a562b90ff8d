"""Span tracing of quivalg's layers, installed from outside the package.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``quivalg`` module (``from .linalg import canonicalize`` copies the
binding into ``algebra``, ``bound`` and ``adjunction``, so patching only
``quivalg.linalg`` would miss most calls) and a few ``Matrix`` methods.
``Tracer.remove`` restores the originals and ``assert_clean`` checks by
identity that no wrapper is left, so untraced runs measure the plain code.

A span is ``[parent, job, name, start, end, failed]``; spans live in a list
and are written out when the run ends.  A span's self time is its duration
minus the union of the intervals its child spans cover.  Layers are module
names (``linalg``, ``algebra``, ...); a function's span is named
``<module>.<function>``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

# Hot scalar and vector helpers: wrapping them would multiply the run time
# by several and measure the wrapper rather than the code.  Their time counts
# as self time of the calling span.
UNTRACED = {
    "frac", "vec", "zero_vec", "unit_vec", "vec_add", "vec_sub", "vec_scale",
    "is_zero_vec", "path_from_arrows", "trivial_path", "parse_scalar",
    "check_label", "scalar_to_text", "lincomb_to_text", "mor_label",
}
MATRIX_METHODS = ("nullspace", "solve", "inverse", "rank")
MARK = "_bench_trace_span"

LAYERS = ("linalg", "quiver", "algebra", "bound", "repcat", "vquiver",
          "adjunction", "catfinite", "formats", "cli", "corpus", "gallery")


def quivalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quivalg" or name.startswith("quivalg."))]


def traced_functions():
    """{function: span name} for the public functions quivalg defines."""
    out = {}
    for mod in quivalg_modules():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__.startswith("quivalg.")
                    and not obj.__name__.startswith("_")
                    and obj.__name__ not in UNTRACED):
                out[obj] = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
    return out


def _bits(rows):
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for r in rows for x in r), default=0)


class Tracer:
    """Spans and counters of the quivalg calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.bits_max = 0
        self._seen = defaultdict(weakref.WeakSet)
        self._installed: list[tuple[object, str, object]] = []

    # -- hooks: counters measured where the work happens ---------------------

    def _repeat(self, name, obj):
        seen = self._seen[name]
        if obj in seen:
            self.counts[name + ".repeats"] += 1
        seen.add(obj)

    def _pre(self, name, args):
        if name == "linalg.canonicalize":
            args = (list(args[0]),) + args[1:]
        elif name in ("algebra.radical", "adjunction.gabriel_vquiver"):
            self._repeat(name, args[0])
        elif name == "algebra.validate_algebra":
            self.counts[name + ".table_nnz"] += sum(len(d) for d in args[0].mult.values())
        return args

    def _post(self, name, args, result):
        c = self.counts
        if name == "linalg.canonicalize":
            c["linalg.canonicalize.rows_in"] += len(args[0])
            c["linalg.canonicalize.rows_out"] += result.dim
            self.bits_max = max(self.bits_max, _bits(result.basis.entries))
        elif name == "linalg.bilinear_image":
            c["linalg.bilinear_image.products"] += args[1].dim * args[2].dim
        elif name == "linalg.Matrix.nullspace":
            self.bits_max = max(self.bits_max, _bits(result))
        elif name == "bound.truncated_path_algebra":
            c["bound.truncated_path_algebra.dim_out"] += result.dim
        elif name == "quiver.enumerate_paths":
            c["quiver.enumerate_paths.paths_out"] += len(result)

    HOOKED_PRE = {"linalg.canonicalize", "algebra.radical",
                  "adjunction.gabriel_vquiver", "algebra.validate_algebra"}
    HOOKED_POST = {"linalg.canonicalize", "linalg.bilinear_image",
                   "linalg.Matrix.nullspace", "bound.truncated_path_algebra",
                   "quiver.enumerate_paths"}

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        pre = self._pre if name in self.HOOKED_PRE else None
        post = self._post if name in self.HOOKED_POST else None
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [stack[-1] if stack else -1, tracer.job, name, 0.0, 0.0, False]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            rec[3] = clock()
            try:
                if pre is not None:
                    args = pre(name, args)
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = clock()
                rec[5] = True
                stack.pop()
                raise
            if post is not None:
                # hook work is a child span, so no layer's self time counts it
                h0 = clock()
                post(name, args, result)
                spans.append([sid, tracer.job, "trace.hook", h0, clock(), False])
            rec[4] = clock()
            stack.pop()
            return result

        setattr(wrapper, MARK, name)
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        from quivalg.linalg import Matrix

        assert_clean()
        wrappers = {fn: self.wrap(fn, name) for fn, name in traced_functions().items()}
        for mod in quivalg_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for meth in MATRIX_METHODS:
            original = Matrix.__dict__[meth]
            self._installed.append((Matrix, meth, original))
            setattr(Matrix, meth, self.wrap(original, f"linalg.Matrix.{meth}"))

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        assert_clean()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# parent job name start end failed (index = span id)\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self, n_jobs):
        """Per-layer metrics, as totals per traced job unless noted."""
        spans = self.spans
        selfs = self_times([(s[0], s[3], s[4]) for s in spans])
        by_name_self: Counter = Counter()
        by_name_calls: Counter = Counter()
        for s, st in zip(spans, selfs):
            by_name_self[s[2]] += st
            by_name_calls[s[2]] += 1
        layer_self: Counter = Counter()
        layer_calls: Counter = Counter()
        errors: Counter = Counter()
        closure_products = 0
        for s, st in zip(spans, selfs):
            layer = s[2].split(".", 1)[0]
            layer_self[layer] += st
            layer_calls[layer] += 1
            parent = spans[s[0]][2] if s[0] >= 0 else ""
            if s[5] and parent.split(".", 1)[0] != layer:
                errors[layer] += 1
            if s[2] == "linalg.bilinear_image" and parent == "bound.ideal_closure":
                closure_products += 1
        per = 1.0 / max(n_jobs, 1)
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] * per, "s/job")
        out["linalg.calls"] = (layer_calls["linalg"] * per, "count/job")
        for name in ("linalg.bilinear_image", "linalg.canonicalize",
                     "linalg.subspace_contains", "linalg.subspace_intersect",
                     "linalg.quotient_basis", "linalg.Matrix.nullspace",
                     "algebra.validate_algebra", "algebra.radical",
                     "algebra.lift_idempotents", "algebra.quotient_algebra",
                     "algebra.validate_hom", "bound.ideal_closure",
                     "bound.check_admissible", "bound.bound_algebra",
                     "adjunction.gabriel_vquiver", "adjunction.counit",
                     "adjunction.present_as_bound_quiver",
                     "adjunction.triangle_identities", "vquiver.path_algebra_vq"):
            out[f"{name}.self_s"] = (by_name_self[name] * per, "s/job")
        out["linalg.bilinear_image.products"] = (
            c["linalg.bilinear_image.products"] * per, "count/job")
        out["linalg.canonicalize.rows_in"] = (c["linalg.canonicalize.rows_in"] * per, "count/job")
        out["linalg.canonicalize.rank_yield"] = (
            c["linalg.canonicalize.rows_out"] / max(c["linalg.canonicalize.rows_in"], 1), "ratio")
        out["linalg.coeff_bits.max"] = (self.bits_max, "bits")
        out["algebra.validate_algebra.table_nnz"] = (
            c["algebra.validate_algebra.table_nnz"] * per, "count/job")
        for name in ("algebra.radical", "adjunction.gabriel_vquiver"):
            out[f"{name}.repeat_share"] = (
                c[name + ".repeats"] / max(by_name_calls[name], 1), "ratio")
        out["bound.errors"] = (errors["bound"] * per, "count/job")
        out["adjunction.errors"] = (errors["adjunction"] * per, "count/job")
        out["bound.ideal_closure.rounds"] = (closure_products / 2 * per, "count/job")
        out["bound.truncated_path_algebra.dim_out"] = (
            c["bound.truncated_path_algebra.dim_out"] * per, "count/job")
        out["quiver.enumerate_paths.paths_out"] = (
            c["quiver.enumerate_paths.paths_out"] * per, "count/job")
        out["trace.spans"] = (len(spans) * per, "count/job")
        return out


def self_times(spans):
    """Self time of each span given (parent index, start, end) triples.

    A span's self time is its duration minus the length of the union of its
    children's intervals, each clipped to the parent's interval.
    """
    children = defaultdict(list)
    for i, (parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def assert_clean():
    """Raise if any quivalg binding or Matrix method is still a trace wrapper."""
    from quivalg.linalg import Matrix

    for mod in quivalg_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                raise RuntimeError(f"trace wrapper left on {mod.__name__}.{attr}")
    for meth in MATRIX_METHODS:
        if hasattr(Matrix.__dict__[meth], MARK):
            raise RuntimeError(f"trace wrapper left on Matrix.{meth}")
