"""The hook points that the benchmark's tracer (perfbench/tracing.py) wraps.

The tracer is loaded from its file, unchanged, and installed on a freshly
imported set of unirep modules, as the benchmark's traced run does.  If a
hook it needs is gone (``ExponentMatrix.__post_init__``,
``Residue.__post_init__``, the Polynomial/TensorElement operators, a list
from ``enumerate_splittings``, ``LieLayerData.validate``, the chi checks in
``reps.__all__``), installing raises or a counter stays at 0.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unirep_modules():
    return {k: v for k, v in sys.modules.items() if k == "unirep" or k.startswith("unirep.")}


def bindings(u):
    """Every attribute of the layer modules and of the classes the tracer patches."""
    owners = [getattr(u, layer) for layer in ("cli", "io", "reps", "splittings", "bch",
                                              "linalg", "hopf", "arith")]
    owners += [u.arith.Residue, u.hopf.ExponentMatrix, u.hopf.Polynomial,
               u.hopf.TensorElement, u.linalg.SquareMatrix, u.reps.LieLayerData]
    return {(id(o), attr): value for o in owners for attr, value in list(vars(o).items())}


def test_tracer_counts_and_uninstalls():
    tracing, workloads = load("tracing"), load("workloads")
    saved = unirep_modules()
    for name in saved:  # so the fresh session stays in sys.modules, as in a new process
        del sys.modules[name]
    try:
        u = workloads.Unirep()
        before = bindings(u)
        tracer = tracing.Tracer(u).install()
        try:
            assert bindings(u) != before
            n, p = 3, 7
            M = u.hopf.ExponentMatrix(n, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
            chi = u.reps.ChiTable(n, p, 1, {M: u.linalg.scalar_matrix([[3]], p)})
            grid = u.splittings.split_coproduct(chi)
            f = u.reps.Representation(chi).poly_matrix.entries[0][0]
            delta = u.hopf.coproduct(f)
            assert grid[0][0] == delta
            assert u.hopf.coproduct(f * f + f) == delta * delta + delta
            data = u.samples.random_layer_data(3, 2, 7, 2, seed=0)
            assert data.validate().ok
            rep = u.reps.construct_from_layers(data, validate=False)
            assert u.reps.verify_chi_relations(rep).ok and u.reps.audit_structure_lemmas(rep).ok
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        for key in ("splittings.enumerated", "hopf.exponent_matrix_new", "arith.residue_new",
                    "hopf.poly_mul_calls"):
            assert metrics[key][0] > 0, key
        assert metrics["hopf.coproduct_s"][0] > 0 and metrics["splittings.split_coproduct_s"][0] > 0
        assert metrics["reps.validate_calls"][0] > 0 and metrics["reps.audit_s"][0] > 0
        # Polynomial and TensorElement share one body but are wrapped apart
        recorded = {tracer.names[i] for i in tracer.span_name}
        assert {"hopf.poly_mul", "hopf.tensor_mul", "hopf.poly_add", "hopf.tensor_add"} <= recorded
        after = bindings(u)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
    finally:
        for name in unirep_modules():
            del sys.modules[name]
        sys.modules.update(saved)
