"""Outside-in tracing of unirep for the benchmark's traced run.

``Tracer.install`` replaces, from outside the package, every public function
(``__all__``) of each layer module with a timing wrapper, in every
``unirep.*`` namespace that bound it by ``from .x import f``.  It also times
``LieLayerData.validate``, ``SquareMatrix.__matmul__`` and the
``Polynomial``/``TensorElement`` ``__mul__``/``__add__`` operators, and only
counts ``Residue`` arithmetic and ``ExponentMatrix``/``Residue`` construction,
which run millions of times per run; their time stays in the caller's self
time.  Aliases such as ``Residue.__radd__ = __add__`` are re-pointed with
their target.  ``uninstall`` restores every original binding.

Spans (name, start, end, parent) are kept in memory in flat arrays and written
out as gzipped JSON lines by ``write_spans``.  A layer's self time is its spans'
durations minus the time covered by their wrapped child spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "io", "reps", "splittings", "bch", "linalg", "hopf", "arith")

# inclusive-time metrics: metric -> wrapped span names (outermost call only)
GROUPS = {
    "reps.validate_s": ("reps.validate",),
    "reps.audit_s": ("reps.verify_chi_relations", "reps.audit_structure_lemmas"),
    "reps.verify_comodule_s": ("reps.verify_comodule",),
    "reps.pointwise_s": ("reps.verify_group_law_pointwise",),
    "hopf.coproduct_s": ("hopf.coproduct",),
    "hopf.tensor_side_s": ("hopf.matrix_product_tensor_side",),
    "linalg.matmul_s": ("linalg.matmul",),
    "linalg.exp_log_s": ("linalg.exp_nilpotent", "linalg.log_unipotent"),
    "linalg.nilpotency_s": ("linalg.nilpotency_index",),
    "bch.series_s": ("bch.bch_components", "bch.log_product_series"),
    "bch.dynkin_s": ("bch.dynkin_projection",),
    "bch.evaluate_s": ("bch.bch_evaluate",),
    "splittings.split_coproduct_s": ("splittings.split_coproduct",),
    "splittings.brute_solve_s": ("splittings.brute_solve_yz",),
}
# call counters on timed spans: span name -> counter
CALL_COUNTS = {
    "reps.validate": "reps.validate_calls",
    "linalg.matmul": "linalg.matmul_calls",
    "hopf.poly_mul": "hopf.poly_mul_calls",
}
CONSTRUCTED_LAYERS = 3  # reps.layer0_s .. reps.layer2_s
RESIDUE_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__")


class Tracer:
    def __init__(self, u):
        self.u = u
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.layer_index = 0
        self._undo = []

    # --- installing ---------------------------------------------------------

    def install(self):
        u = self.u
        group_of = {span: metric for metric, spans in GROUPS.items() for span in spans}
        post = {
            "hopf.poly_mul": self._count_product,
            "hopf.tensor_mul": self._count_product,
            "reps.construct_from_layers": self._count_support,
            "reps.construct_single_layer": self._time_layer,
            "bch.log_product_series": self._count_series,
            "splittings.enumerate_splittings": self._count_splittings,
            "splittings.split_coproduct": self._count_keys,
            "io.write_rep_file": self._count_written,
            "io.write_layer_file": self._count_written,
            "io.parse_rep_file": self._count_read,
            "io.parse_layer_file": self._count_read,
        }
        pre = {
            "reps.construct_from_layers": self._reset_layer_index,
            "splittings.split_coproduct": self._splittings_so_far,
        }

        def timed(fn, name, layer):
            return self._timed(fn, name, layer, group_of.get(name), CALL_COUNTS.get(name),
                               pre.get(name), post.get(name))

        for layer in LAYERS:
            module = getattr(u, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._replace_function(fn, timed(fn, f"{layer}.{attr}", layer))
        methods = (
            (u.reps.LieLayerData, "validate", "reps.validate", "reps"),
            (u.linalg.SquareMatrix, "__matmul__", "linalg.matmul", "linalg"),
            (u.hopf.Polynomial, "__mul__", "hopf.poly_mul", "hopf"),
            (u.hopf.Polynomial, "__add__", "hopf.poly_add", "hopf"),
            (u.hopf.TensorElement, "__mul__", "hopf.tensor_mul", "hopf"),
            (u.hopf.TensorElement, "__add__", "hopf.tensor_add", "hopf"),
        )
        for cls, attr, name, layer in methods:
            fn = cls.__dict__[attr]
            self._replace_method(cls, fn, timed(fn, name, layer))
        residue = u.arith.Residue
        for fn in dict.fromkeys(residue.__dict__[attr] for attr in RESIDUE_OPS):
            self._replace_method(residue, fn, self._counted(fn, "arith.residue_ops"))
        for cls, key in ((residue, "arith.residue_new"), (u.hopf.ExponentMatrix, "hopf.exponent_matrix_new")):
            fn = cls.__dict__["__post_init__"]
            self._replace_method(cls, fn, self._counted(fn, key))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _replace_function(self, fn, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "unirep" or name.startswith("unirep."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def _replace_method(self, cls, fn, wrapper):
        for attr, value in list(vars(cls).items()):
            if value is fn:
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, wrapper)

    # --- wrappers -----------------------------------------------------------

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _timed(self, fn, name, layer, group, call_count, pre, post):
        name_id = len(self.names)
        self.names.append(name)
        stack, self_s, inclusive, depth, counts = (
            self.stack, self.self_s, self.inclusive, self.depth, self.counts)
        span_name, span_parent, span_start, span_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if call_count:
                counts[call_count] += 1
            state = pre(args) if pre else None
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            if group:
                outer = depth[group] == 0
                depth[group] += 1
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_end[sid] = t1
                elapsed = t1 - t0
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if group:
                    depth[group] -= 1
                    if outer:
                        inclusive[group] += elapsed
            if post:
                post(args, result, elapsed, state)
            return result

        timed.__wrapped__ = fn
        return timed

    # --- counters -----------------------------------------------------------

    def _count_product(self, args, result, elapsed, state):
        a, b = args
        if type(b) is type(a):
            self.counts["hopf.mul_pairs"] += len(a.terms) * len(b.terms)
            self.counts["hopf.mul_terms"] += len(result.terms)

    def _count_support(self, args, result, elapsed, state):
        self.counts["reps.support_size"] += len(result.chi.support)

    def _reset_layer_index(self, args):
        self.layer_index = 0

    def _time_layer(self, args, result, elapsed, state):
        self.inclusive[f"reps.layer{self.layer_index}_s"] += elapsed
        self.layer_index += 1

    def _count_series(self, args, result, elapsed, state):
        self.counts["bch.series_terms"] += len(result.terms)

    def _count_splittings(self, args, result, elapsed, state):
        self.counts["splittings.enumerated"] += len(result)

    def _splittings_so_far(self, args):
        return self.counts["splittings.enumerated"]

    def _count_keys(self, args, result, elapsed, before):
        keys = set()
        for row in result:
            for cell in row:
                keys.update(cell.terms)
        self.counts["splittings.keys"] += len(keys)
        self.counts["splittings.key_splittings"] += self.counts["splittings.enumerated"] - before

    def _count_written(self, args, result, elapsed, state):
        self.counts["io.bytes"] += len(result)

    def _count_read(self, args, result, elapsed, state):
        self.counts["io.bytes"] += len(args[0])

    # --- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metric name -> (value, unit)."""
        c = self.counts
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        for metric in GROUPS:
            out[metric] = (self.inclusive[metric], "s")
        for k in range(CONSTRUCTED_LAYERS):
            out[f"reps.layer{k}_s"] = (self.inclusive[f"reps.layer{k}_s"], "s")
        for key in ("reps.validate_calls", "linalg.matmul_calls", "hopf.poly_mul_calls",
                    "reps.support_size", "bch.series_terms", "splittings.enumerated",
                    "arith.residue_new", "arith.residue_ops", "hopf.exponent_matrix_new"):
            out[key] = (c[key], "count")
        out["io.bytes"] = (c["io.bytes"], "B")
        out["hopf.mul_term_yield"] = (_ratio(c["hopf.mul_terms"], c["hopf.mul_pairs"]), "ratio")
        out["splittings.key_yield"] = (_ratio(c["splittings.keys"], c["splittings.key_splittings"]), "ratio")
        return out

    def write_spans(self, path):
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, parent, start, end) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)):
                parent = "null" if parent < 0 else parent
                fh.write(f'{{"id": {sid}, "name": {names[name]}, "start": {start!r}, '
                         f'"end": {end!r}, "parent": {parent}}}\n')
        return len(self.span_start)


def _ratio(num, den):
    return num / den if den else 0.0
