"""The three benchmark workloads: input generation from a seed, and one
closed-loop item runner that calls unirep and checks each output exactly.

A workload is a pass: its fixed requests (the bch series, the coproduct
audits) followed by seeded items on a fixed shape schedule, so every pass has
the same mix of shapes and only the seeded contents differ.  Shape tables are
closed lists; a shape outside them is refused, because shapes just outside
them cost from seconds to minutes per item.  A pass takes about four to seven
seconds, so a run can repeat it several times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "io", "reps", "splittings", "bch", "linalg", "hopf", "arith")

# roundtrip, dense family: random_layer_data(n, d, p, L).trimmed(), p in {11, 13}.
# Left out of the allowed table on purpose: (3,3,2), (4,3,2), (5,3,2) and
# (3,4,2) cost 0.02-1.9 s per item depending on the seed, and (4,4,1) costs
# 0.4 s; any of them would crowd the hundred items a pass needs for its 90th
# percentile out of a short pass.
DENSE_SHAPES = (
    (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1), (4, 2, 1), (4, 2, 2),
    (4, 2, 3), (4, 3, 1), (5, 2, 2), (5, 3, 1),
)
DENSE_PRIMES = (11, 13)
# roundtrip, wide family: (n, L, p), d = n L, p the smallest prime >= 2d.
# Only (3, 2) at 80 ms per item is kept: (3, 3) at 0.5 s, (4, 2) at 0.65 s
# and (5, 2) at 4 s would each stretch a pass by a large share, and a short
# pass is what lets a run repeat it.
WIDE_SHAPES = ((3, 2, 13),)
# 15 wide items in a pass of 105, so the 90th percentile falls among the wide
# items, whose cost the seed does not change, instead of in the
# seed-dependent tail of the dense items.
WIDE_ITEMS = 15
# Dense items before each wide item; see BENCHMARK.json and the README for
# each family's share of the traced time at this ratio.
DENSE_PER_WIDE = 6

# bch evaluation items: (d, p).  A pass runs BCH_CYCLE BCH_REPEATS times,
# each d = 6 slot alternating between p = 7 and p = 11, and (7, 7) at 0.2 s
# twice.  The median item then falls inside the d = 5 items and the 90th
# percentile inside the d = 6 items, not on the gap between two shapes.
BCH_SHAPES = ((4, 5), (5, 5), (5, 7), (6, 7), (6, 11), (7, 7))
BCH_CYCLE = ((4, 5), (5, 5), (5, 7), (6, None))
BCH_REPEATS = 22
BCH_LARGE = (7, 7)
BCH_LARGE_ITEMS = 2
BCH_MAX_DEGREE = 10  # degree 11 takes about 18 s, mostly the Dynkin check

# coproduct tables: (n, d, max_entry), p cycling through COPRODUCT_PRIMES and
# the support size through 1..5.  n = 4 with max_entry 3 is left out: those
# tables take 0.1-7 s each, which swamps a pass.  A table whose keys have more
# than COPRODUCT_MAX_SPLITTINGS splittings in all is drawn again: an item's
# cost grows with that count, and without the cap one n = 4 table costing up
# to 4 s moved a pass's total by 30% from seed to seed.  For each shape a
# pass draws COPRODUCT_POOL times the tables it keeps, sorts them by
# splitting count and keeps the middle one of each run of COPRODUCT_POOL: a
# table's time is close to proportional to its splitting count, so the
# spread of times is then much the same from seed to seed.
COPRODUCT_SHAPES = tuple(
    (n, d, e) for n, entries in ((3, (1, 2, 3)), (4, (1, 2))) for e in entries for d in (1, 2, 3)
)
COPRODUCT_PRIMES = (0, 5, 7, 11)
COPRODUCT_ITEMS = 300
COPRODUCT_MAX_SPLITTINGS = 100
COPRODUCT_POOL = 3
AUDIT_REQUESTS = ((4, 2), (5, 1))

WORKLOADS = ("roundtrip", "bch", "coproduct")


def _unirep_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "unirep" or name.startswith("unirep.")}


class Unirep:
    """The unirep modules, imported fresh from ``src``: a new session with
    empty caches, as in a new process.

    Workload code reaches every function through these module objects at call
    time, so the tracer's replacements take effect.  An import made while
    another session is loaded puts that session's modules back in
    ``sys.modules`` when it is done, so sessions do not disturb each other.
    """

    def __init__(self):
        earlier = _unirep_modules()
        for name in earlier:
            del sys.modules[name]
        importlib.import_module("unirep")
        for name in LAYERS + ("samples",):
            setattr(self, name, importlib.import_module(f"unirep.{name}"))
        if earlier:
            for name in _unirep_modules():
                del sys.modules[name]
            sys.modules.update(earlier)


# --- input generation -------------------------------------------------------


def is_prime(p):
    return p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))


def _check_roundtrip_prime(n, d, p):
    if not is_prime(p) or p < max(n, 2 * d):
        raise ValueError(f"roundtrip needs a prime p >= max(n, 2d) = {max(n, 2 * d)}, got {p}")


def dense_item(u, n, d, L, p, seed):
    if (n, d, L) not in DENSE_SHAPES or p not in DENSE_PRIMES:
        raise ValueError(f"dense shape (n={n}, d={d}, L={L}, p={p}) is outside the table")
    _check_roundtrip_prime(n, d, p)
    data = u.samples.random_layer_data(n, d, p, L, seed).trimmed()
    return ("dense", (n, d, L, p), u.io.write_layer_file(data))


def wide_item(u, n, L, p, rng):
    """Block-diagonal tautological layers: layer l sends eps_ij to
    (t_i / t_j) E_ij inside diagonal block l, a torus conjugate of the
    tautological action, so the images stay one-entry sparse."""
    if (n, L, p) not in WIDE_SHAPES:
        raise ValueError(f"wide shape (n={n}, L={L}, p={p}) is outside the table")
    d = n * L
    _check_roundtrip_prime(n, d, p)
    zero = u.arith.coerce_scalar(0, p)
    layers = []
    for l in range(L):
        t = [rng.randrange(1, p) for _ in range(n)]
        layer = {}
        for i, j in u.hopf.variable_pairs(n):
            rows = [[zero] * d for _ in range(d)]
            rows[l * n + i - 1][l * n + j - 1] = u.arith.coerce_scalar(t[i - 1] * pow(t[j - 1], -1, p), p)
            layer[(i, j)] = u.linalg.SquareMatrix(rows)
        layers.append(layer)
    data = u.reps.LieLayerData(n, p, d, layers)
    return ("wide", (n, d, L, p), u.io.write_layer_file(data))


def roundtrip_pass(u, rng):
    items = []
    for slot in range(WIDE_ITEMS):
        for k in range(slot * DENSE_PER_WIDE, (slot + 1) * DENSE_PER_WIDE):
            n, d, L = DENSE_SHAPES[k % len(DENSE_SHAPES)]
            p = DENSE_PRIMES[(k // len(DENSE_SHAPES)) % len(DENSE_PRIMES)]
            items.append(dense_item(u, n, d, L, p, rng.randrange(2**31)))
        items.append(wide_item(u, *WIDE_SHAPES[slot % len(WIDE_SHAPES)], rng))
    return items


def bch_pair(u, d, p, rng):
    if (d, p) not in BCH_SHAPES:
        raise ValueError(f"bch shape (d={d}, p={p}) is outside the table")
    x = u.samples.random_strict_upper(d, p, rng)
    y = u.samples.random_strict_upper(d, p, rng)
    return ("pair", (d, p), (x, y))


def bch_pass(u, rng):
    """The series requests for degrees 1..BCH_MAX_DEGREE in order, then the
    evaluation pairs."""
    items = [("series", (m,), m) for m in range(1, BCH_MAX_DEGREE + 1)]
    large_every = BCH_REPEATS // BCH_LARGE_ITEMS
    for k in range(BCH_REPEATS):
        for d, p in BCH_CYCLE:
            items.append(bch_pair(u, d, p or (7, 11)[k % 2], rng))
        if k % large_every == large_every - 1:
            items.append(bch_pair(u, *BCH_LARGE, rng))
    return items


def chi_table(u, n, d, p, count, max_entry, seed):
    if (n, d, max_entry) not in COPRODUCT_SHAPES or p not in COPRODUCT_PRIMES or not 1 <= count <= 5:
        raise ValueError(f"coproduct shape (n={n}, d={d}, p={p}, count={count}, "
                         f"max_entry={max_entry}) is outside the table")
    support = u.samples.random_chi_support(n, d, p, count, seed, max_entry)
    return ("chi", (n, d, p, count, max_entry), u.reps.ChiTable(n, p, d, support))


def splitting_count(support):
    """How many splittings the closed coproduct formula enumerates for these
    keys: entry m_ij of a key splits into j - i + 1 ordered parts."""
    return sum(math.prod(math.comb(m + j - i, j - i) for (i, j), m in M.positions()) for M in support)


def coproduct_pass(u, rng):
    """The audit requests, then the chi tables in a seeded order."""
    tables = []
    per_shape = COPRODUCT_ITEMS // len(COPRODUCT_SHAPES)
    for n, d, e in COPRODUCT_SHAPES:
        pool = []
        for j in range(COPRODUCT_POOL * per_shape):
            p = COPRODUCT_PRIMES[j % len(COPRODUCT_PRIMES)]
            count = 1 + (j // len(COPRODUCT_PRIMES)) % 5
            while True:
                item = chi_table(u, n, d, p, count, e, rng.randrange(2**31))
                splittings = splitting_count(item[2].support)
                if splittings <= COPRODUCT_MAX_SPLITTINGS:
                    break
            pool.append((splittings, j, item))
        pool.sort(key=lambda entry: entry[:2])
        tables += [item for _, _, item in pool[COPRODUCT_POOL // 2::COPRODUCT_POOL]]
    rng.shuffle(tables)
    return [("audit", req, req) for req in AUDIT_REQUESTS] + tables


PASS_MAKERS = {"roundtrip": roundtrip_pass, "bch": bch_pass, "coproduct": coproduct_pass}


def make_pass(u, workload, seed):
    """The seeded items (kind, shape, payload) of one pass."""
    if workload not in PASS_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    return PASS_MAKERS[workload](u, random.Random(f"{workload}:{seed}"))


# --- running and checking items ---------------------------------------------


def _golden_series(u):
    fe = u.bch.FreeElement
    return {
        1: str(fe({("x",): 1, ("y",): 1})),
        2: str(fe({("x", "y"): Fraction(1, 2), ("y", "x"): Fraction(-1, 2)})),
        3: str(fe({
            ("x", "x", "y"): Fraction(1, 12), ("x", "y", "x"): Fraction(-1, 6),
            ("x", "y", "y"): Fraction(1, 12), ("y", "x", "x"): Fraction(1, 12),
            ("y", "x", "y"): Fraction(-1, 6), ("y", "y", "x"): Fraction(1, 12),
        })),
    }


class Runner:
    """Runs items one at a time against one set of unirep modules.

    ``run(item)`` returns (ok, output); output is what the program produced,
    for comparing two runs.  A raised exception is a failed item, not a
    crashed run.

    The series requests run in ``series_session``, which starts as ``u``;
    ``new_session()`` gives them a freshly imported one, so that every pass
    meets the series cache cold, as the first request of a process does.
    """

    def __init__(self, u, workdir):
        self.u = u
        self.series_session = u
        self.workdir = workdir
        self.golden = _golden_series(u)
        self.failures = []

    def new_session(self):
        self.series_session = Unirep()

    def _cli(self, argv, session=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = (session or self.u).cli.main(argv)
        return code, out.getvalue()

    def run(self, item):
        kind, shape, payload = item
        try:
            ok, output = getattr(self, f"_run_{kind}")(payload)
        except Exception as exc:  # one bad item must not end the run
            ok, output = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append((kind, shape, str(output)[:200]))
        return ok, output

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _run_dense(self, text):
        layer_in, rep, layer_out = self._path("in.txt"), self._path("rep.txt"), self._path("out.txt")
        with open(layer_in, "w") as fh:
            fh.write(text)
        codes = (
            self._cli(["construct", layer_in, "-o", rep])[0],
            self._cli(["verify", rep, "--comodule", "--pointwise", "sampled:20",
                       "--chi-relations", "--lemmas"])[0],
            self._cli(["decompose", rep, "-o", layer_out])[0],
        )
        if codes != (0, 0, 0):
            return False, f"exit codes {codes}"
        with open(rep) as fh:
            rep_text = fh.read()
        with open(layer_out) as fh:
            back = fh.read()
        return back == text, rep_text + back

    _run_wide = _run_dense

    def _run_series(self, m):
        code, out = self._cli(["bch", "--max-degree", str(m)], self.series_session)
        lines = [json.loads(line) for line in out.splitlines()]
        ok = code == 0 and [f["location"] for f in lines] == [f"P_{k}" for k in range(1, m + 1)]
        for k in range(1, min(m, 3) + 1):
            ok = ok and lines[k - 1]["actual"] == self.golden[k]
        return ok, out

    def _run_pair(self, pair):
        x, y = pair
        bch, linalg = self.u.bch, self.u.linalg
        p = x.entries[0][0].p
        lhs = bch.bch_evaluate(bch.bch_components(x.size - 1), x, y)
        rhs = linalg.log_unipotent(linalg.exp_nilpotent(x, p) @ linalg.exp_nilpotent(y, p), p)
        return lhs == rhs, lhs

    def _run_chi(self, chi):
        grid = self.u.splittings.split_coproduct(chi)
        entries = self.u.reps.Representation(chi).poly_matrix.entries
        coproduct = self.u.hopf.coproduct
        ok = all(grid[a][b] == coproduct(entries[a][b]) for a in range(chi.d) for b in range(chi.d))
        return ok, grid

    def _run_audit(self, req):
        n, bound = req
        code, out = self._cli(["audit-splittings", "--n", str(n), "--bound", str(bound)])
        return code == 0 and out == "", out


def run_items(runner, items, keep_output=False):
    """Closed loop with one client: each item starts after the previous one
    ends.  Returns [(seconds, ok, output or None)]."""
    clock = time.perf_counter
    out = []
    for item in items:
        t0 = clock()
        ok, output = runner.run(item)
        out.append((clock() - t0, ok, output if keep_output else None))
    return out
