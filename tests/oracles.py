"""The slow paths the library replaced, kept in the tests as their oracles.

The library computes with the chi table only.  These are the slow paths it
used before, on polynomial matrices and SquareMatrix operators: the one-pass
exp/log series, the generic element and the per-layer construction, the
tensor side of the comodule axioms, and the poly-format writer, reader and
Frobenius twist through ``assemble`` and ``extract_chi``.  The BCH series
and the Dynkin projection's left-nested sum are kept here as they were on
dicts keyed by tuple words, before they moved to dense word-indexed lists.
The closed-form Y/Z solve is kept as it read ``ExponentMatrix.entry``, before
it read the flat entries.  The direct and the closed-form coproduct are kept as
they were before each monomial's expansion was shared and Q was summed on ints:
every term expanded anew and, over Q, summed as Fractions.  The construct walk
is kept as it was before it skipped the products that can only be zero: every
product by the identity and by a factor of disjoint support is formed, and the
comodule certificate compares a rebuilt Representation with the table.
The ExponentMatrix check is kept as the per-entry loop it was before valid
rows passed whole-matrix tests, and Polynomial's text as it was rendered on
ExponentMatrix keys, before its terms were keyed by flat tuples.  The
structure-lemma audits are kept as they were before the factorization read
one dict of chi(r eps_ij): an epsilon key built for every pair of every M.  The kernel outputs are kept as they were
before the shared residues, with a
new Residue (or Fraction) per term, and the symbolic comodule check as it was
before both its sides were summed on ints: over Q, as Fractions.  The
power ``**`` is kept as it was before one square-and-multiply loop served
every characteristic: at p > 0, one product by base**(p^l) per unit of
digit l.  The two morphism criteria are kept as they were before they read T
into the field: T and the tables' matrices multiplied with the entries' own
arithmetic, a zero SquareMatrix per missing key or image; and
``nilpotency_index`` as its SquareMatrix power loop.  The rep and layer file
writers are kept as they were before they filled cached per-size texts:
json.dumps(..., sort_keys=True) over each line's dict, every scalar through
scalar_to_str.  The term algebra's sums, scalings, negation, ``one``,
``scale_exponents`` and empty products are kept as they were built before
``_Terms._from_flat`` was their one exit: on the field elements themselves,
wrapped unchecked.  Splitting enumeration is kept as it ran ``_compositions``
for every entry of every key, and the Y/Z search's propagation as it was
before it worked on bitmasks: each target's open variables listed anew, the
targets waiting on a stack that holds each at most once.  BCH evaluation
is kept as it summed each head's tails on list rows, one product per head,
before the halves were planned once and the right operands packed.  The
pointwise group-law check is kept as it summed the table cell by cell, with
the constant, one-variable and other keys apart and the cells zero in every
chi(M) skipped, before Phi became one packed product over each key's nonzero
exponents.  Each is defined here once and imported by the tests that compare
against it.
"""

import contextlib
import functools
import itertools
import json
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from unirep import arith, io, reps
from unirep.bch import FreeElement, denominator_audit
from unirep.errors import (CostBoundError, HypothesisError, NotNilpotentError, ParseError,
                           SeriesTerminationError, ShapeError, UnirepError)
from unirep.arith import Residue, coerce_scalar, gamma_factor, p_ary_digits, scalar_to_str, sum_carries
from unirep.hopf import (ExponentMatrix, Polynomial, TensorElement, _compositions, _convolve, _generator_power,
                         _index, _key, _monomial_coproduct, tensor_of, variable_pairs)
from unirep.linalg import (SquareMatrix, _divided, _field_rows, _identity_rows, _is_nilpotent, _matmul,
                           _series_rows, _series_walk, _wrap, _zip_rows)
from unirep.reps import (MAX_EXHAUSTIVE_PAIRS, ChiTable, Report, Representation, _pointwise_pairs, _regime,
                         assemble, extract_chi)
from unirep.splittings import Splitting, SplitVarId, _entry_vars, _feeds, all_split_vars


# --- the one-pass exp/log series over SquareMatrix operators -----------------

def reference_walk(x, char_bound):
    """x, x^2, ... through SquareMatrix operators, stopping at the first zero
    power or raising at the cap before that power is yielded."""
    cap = x.size if char_bound is None else min(char_bound, x.size)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    power = x
    for k in range(1, cap + 1):
        if power.is_zero():
            return
        if k == cap:
            break
        yield power
        power = power @ x
    if char_bound is not None and char_bound < x.size:
        raise SeriesTerminationError(f"nilpotency index exceeds the characteristic bound {char_bound}")
    raise NotNilpotentError(f"matrix is not nilpotent within {cap} powers")


def reference_walk_exp(x, char_bound=None):
    """The one-pass series over SquareMatrix operators: it divides as it
    walks, so p | k! raises before a later nonzero power at the cap does."""
    result = x.identity_like()
    kfact = 1
    for k, power in enumerate(reference_walk(x, char_bound), start=1):
        kfact *= k
        result = result + power / kfact
    return result


def reference_walk_log(g, char_bound=None):
    u = g - g.identity_like()
    result = u.zero_like()
    for k, power in enumerate(reference_walk(u, char_bound), start=1):
        term = power / k
        result = result + (term if k % 2 == 1 else -term)
    return result


# --- the per-layer construction on polynomial matrices -----------------------

def generic_element(n, p) -> SquareMatrix:
    """The generic group element: 1 on the diagonal, the variable x_ij above."""
    return SquareMatrix([
        [Polynomial.one(n, p) if i == j
         else Polynomial.variable(n, p, i + 1, j + 1) if j > i
         else Polynomial.zero(n, p)
         for j in range(n)]
        for i in range(n)
    ])


def construct_single_layer(layer, n, p, d) -> SquareMatrix:
    """The polynomial matrix e^{phi(log g)} for one layer phi.

    Requires p >= max(n, d) in positive characteristic; the symbolic exponent
    phi(log g) must be nilpotent of index <= min(d, p) as a polynomial matrix,
    which is verified, not assumed.
    """
    if _regime(n, p, d) is None:
        raise HypothesisError(f"construction needs p >= max(n, d) = {max(n, d)}, got p = {p}")
    log_g = reference_walk_log(generic_element(n, p), p or None)
    exponent = [[Polynomial.zero(n, p) for _ in range(d)] for _ in range(d)]
    for (i, j), img in layer.items():
        f = log_g.entries[i - 1][j - 1]
        for a, b in itertools.product(range(d), repeat=2):
            c = img.entries[a][b]
            if f and c:
                exponent[a][b] = exponent[a][b] + f * c
    return reference_walk_exp(SquareMatrix(exponent), p or None)


# --- the comodule axioms on the polynomial matrix ----------------------------

def matrix_product_tensor_side(a):
    """The d x d grid with (i, j) entry sum_k a_ik (x) a_kj, as TensorElements,
    for a square matrix ``a`` with polynomial entries."""
    d, sample = a.size, a.entries[0][0]
    return [[sum((tensor_of(a.entries[i][k], a.entries[k][j]) for k in range(d)),
                 TensorElement.zero(sample.n, sample.p))
             for j in range(d)] for i in range(d)]


# --- the poly format and the twist through the polynomial matrix -------------

def reference_write_poly(rep):
    """write_rep_file(rep, "poly") from the assembled polynomial matrix."""
    pm = assemble(rep.chi)
    lines = [json.dumps({"format": "poly", "version": io.FORMAT_VERSION,
                         "n": rep.n, "p": rep.p, "d": rep.d}, sort_keys=True)]
    for a in range(rep.d):
        for b in range(rep.d):
            items = [(_key(rep.n, k), c) for k, c in pm.entries[a][b].terms.items()]
            terms = [{"M": [list(r) for r in M.rows], "c": scalar_to_str(c)}
                     for M, c in sorted(items, key=lambda kv: kv[0].sort_key())]
            lines.append(json.dumps({"row": a + 1, "col": b + 1, "terms": terms}, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_write_rep_file(rep, body="chi"):
    """write_rep_file as it wrote each line: a dict of the line's fields
    through json.dumps(..., sort_keys=True), each key as a list of its rows
    and each scalar through scalar_to_str."""
    if body not in ("chi", "poly"):
        raise ValueError(f"unknown body format {body!r}")
    lines = [json.dumps({"format": body, "version": io.FORMAT_VERSION, "n": rep.n, "p": rep.p,
                         "d": rep.d}, sort_keys=True)]
    if body == "chi":
        for M, mat in rep.chi.items():
            lines.append(json.dumps({"M": [list(r) for r in M.rows],
                                     "matrix": [[scalar_to_str(v) for v in row] for row in mat.entries]},
                                    sort_keys=True))
    else:
        items = rep.chi.items()
        for a in range(rep.d):
            for b in range(rep.d):
                terms = [{"M": [list(r) for r in M.rows], "c": scalar_to_str(mat.entries[a][b])}
                         for M, mat in items if mat.entries[a][b]]
                lines.append(json.dumps({"row": a + 1, "col": b + 1, "terms": terms}, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_write_layer_file(data, zeros=False):
    """write_layer_file as it wrote each line: through json.dumps(...,
    sort_keys=True), one line for each image present.  With zeros=True, the
    older writer that listed every pair of every layer, with LieLayerData.image's
    zero matrix for each absent pair: the files the reader must still read."""
    lines = [json.dumps({"format": "layers", "version": io.FORMAT_VERSION, "n": data.n, "p": data.p,
                         "d": data.d, "layers": len(data.layers)}, sort_keys=True)]
    for l in range(len(data.layers)):
        for i, j in variable_pairs(data.n):
            if not (zeros or (i, j) in data.layers[l]):
                continue
            lines.append(json.dumps({"layer": l, "i": i, "j": j,
                                     "matrix": [[scalar_to_str(v) for v in row]
                                                for row in data.image(l, i, j).entries]},
                                    sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_parse_rep_file(text):
    """parse_rep_file as it read a poly body: each line's terms into a
    Polynomial, the d x d matrix of them through extract_chi.  Any other file,
    and every error up to a poly body, is parse_rep_file's own."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or io._load_line(lines[0], 1).get("format") != "poly":
        return io.parse_rep_file(text)
    n, p, d = io._header_ints(io._load_line(lines[0], 1))
    parsed = io._Scalars(p)
    entries = {}
    for lineno, line in enumerate(lines[1:], start=2):
        obj = io._load_line(line, lineno)
        a, b = obj.get("row"), obj.get("col")
        if not (type(a) is int and type(b) is int and 1 <= a <= d and 1 <= b <= d):
            raise ParseError(f"line {lineno}: row/col out of range")
        if (a, b) in entries:
            raise ParseError(f"line {lineno}: duplicate entry ({a}, {b})")
        terms = {}
        listed = obj.get("terms", [])
        if not (isinstance(listed, list) and all(isinstance(t, dict) for t in listed)):
            raise ParseError(f"line {lineno}: terms must be a list of objects")
        for t in listed:
            M = io._exponent_from_rows(t.get("M"), n, lineno)
            if M in terms:
                raise ParseError(f"line {lineno}: duplicate exponent matrix in entry ({a}, {b})")
            terms[M] = io._scalar(t.get("c"), lineno, parsed)
        entries[(a, b)] = Polynomial(n, p, terms)
    if len(entries) != d * d:
        pairs = itertools.product(range(1, d + 1), repeat=2)
        missing = list(itertools.islice((ab for ab in pairs if ab not in entries), io.MISSING_SHOWN))
        more = d * d - len(entries) - len(missing)
        raise ParseError(f"line {len(lines)}: missing matrix entries {missing}"
                         + (f" and {more} more" if more else ""))
    pm = SquareMatrix([[entries[(a, b)] for b in range(1, d + 1)] for a in range(1, d + 1)])
    return Representation(extract_chi(pm, n, p))


def reference_twist(rep):
    """frobenius_twist_rep as x -> x^p on every entry of the assembled matrix."""
    if rep.p == 0:
        raise HypothesisError("the twist needs a positive characteristic")
    pm = assemble(rep.chi).map_entries(lambda f: f.scale_exponents(rep.p))
    return Representation(extract_chi(pm))


# --- the dict-keyed BCH series and left-nested sum ----------------------------

def reference_log_product_series(max_degree):
    """log_product_series with one dict per word length: the same packed
    vectors over k, updated word by word."""
    width = (factorial(max_degree) << max_degree).bit_length()
    mask = (1 << width) - 1
    levels = [{(): 1}] + [{} for _ in range(max_degree)]
    out = {}
    for length, level in enumerate(levels):
        if length:
            denom = lcm(*range(1, length + 1))
            for w, vec in level.items():
                num = sum((-1) ** (k - 1) * (denom // k) * (vec >> (k * width) & mask)
                          for k in range(1, length + 1))
                if num:
                    out[w] = Fraction(num, denom * factorial(length))
        for total in range(1, max_degree - length + 1):
            target = levels[length + total]
            for a in range(total + 1):
                block = ("x",) * a + ("y",) * (total - a)
                weight = comb(length + total, total) * comb(total, a)
                for w, vec in level.items():
                    target[w + block] = target.get(w + block, 0) + (weight * vec << width)
    return FreeElement(out)


def reference_left_nested_sum(terms):
    """sum of c * (left-nested bracket of w) over {w: c} with words of one
    length, grouped by last letter: the bracket of u a is [bracket of u, a]."""
    if len(next(iter(terms))) == 1:
        return terms
    groups = {}
    for w, c in terms.items():
        groups.setdefault(w[-1], {})[w[:-1]] = c
    out = {}
    for a, group in groups.items():
        for u, c in reference_left_nested_sum(group).items():
            if c:
                out[u + (a,)] = out.get(u + (a,), 0) + c
                out[(a,) + u] = out.get((a,) + u, 0) - c
    return out


def reference_dynkin_projection(e):
    """dynkin_projection through the dict-keyed left-nested sum."""
    by_length = {}
    for w, c in e.terms.items():
        if len(w) == 0:
            raise ValueError("the projection is undefined on degree-0 terms")
        by_length.setdefault(len(w), {})[w] = c
    out = {}
    for length, terms in by_length.items():
        denom = lcm(*(c.denominator for c in terms.values()))
        scaled = {w: c.numerator * (denom // c.denominator) for w, c in terms.items()}
        for w, v in reference_left_nested_sum(scaled).items():
            if v:
                out[w] = Fraction(v, denom * length)
    return FreeElement(out)


# --- BCH evaluation with each head's tails summed on list rows -----------------

def reference_halves_evaluate(components, X, Y):
    """bch.bch_evaluate as it was: the audit, each word cut into a head and a
    tail no longer than the head, and sum_head X_head @ (sum_tail c_w X_tail)
    with the inner sums on list rows and one product per head.  Operands of
    two sizes were not refused."""
    p, one, x, y = _series_rows(X, Y)
    if p:
        for i, comp in enumerate(components):
            if not denominator_audit(comp, p):
                raise SeriesTerminationError(
                    f"component {i + 1} has a denominator divisible by {p}"
                )
    halves = {}
    for comp in components:
        for w, c in comp.terms.items():
            cut = (len(w) + 1) // 2
            tails, tail = halves.setdefault(w[:cut], {}), w[cut:]
            tails[tail] = tails[tail] + c if tail in tails else c
    gens = {"x": x, "y": y}
    products = {(): _identity_rows(len(x), one)}

    def product(w):
        if w not in products:
            products[w] = gens[w[0]] if len(w) == 1 else _matmul(product(w[:-1]), gens[w[-1]], p)
        return products[w]

    result = zero = _zip_rows(sub, products[()], products[()])
    for head, tails in halves.items():
        inner = zero
        for tail, c in tails.items():
            if p:
                c = c.numerator * arith._inverse(c.denominator, p) % p
            if c:
                inner = [[s + c * t for s, t in zip(srow, trow)] for srow, trow in zip(inner, product(tail))]
        result = _zip_rows(add, result, _matmul(product(head), inner, p) if head else inner)
    return _wrap(result, p)


# --- the closed-form Y/Z solve through ExponentMatrix.entry -------------------

def reference_solve_yz(Y, Z):
    """s_1j^1 = z_1j, s_ij^{j-i+1} = y_ij, entry by entry, through the checked
    Splitting constructor."""
    n = Y.n
    if Z.n != n:
        raise ShapeError("size mismatch")
    if any(Y.entry(1, j) for j in range(2, n + 1)):
        raise ShapeError("Y must have a zero top row")
    if any(Z.entry(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)):
        raise ShapeError("Z must be zero outside the top row")
    assignment = {}
    for j in range(2, n + 1):
        if Z.entry(1, j):
            assignment[SplitVarId(1, j, 1)] = Z.entry(1, j)
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            if Y.entry(i, j):
                assignment[SplitVarId(i, j, j - i + 1)] = Y.entry(i, j)
    return Splitting(n, assignment)


# --- the Y/Z search's propagation on listed open variables ---------------------

def reference_propagate(Y, Z, bound):
    """The values the targets force, None for a variable left open, or None in
    place of the list when a target cannot be met: a target with goal 0 zeroes
    its open variables, one with a single open variable sets it, each value
    checked against ``bound``."""
    n = Y.n
    variables = all_split_vars(n)
    feeds = [tuple(t for t in _feeds(n)[v] if t < n * (n - 1)) for v in variables]
    members = [tuple(x for x, targets in enumerate(feeds) if t in targets) for t in range(n * (n - 1))]
    remaining = list(Y.flat + Z.flat)
    values = [None] * len(variables)
    queue = dict.fromkeys(range(len(members)))
    while queue:
        t, _ = queue.popitem()
        goal, open_vars = remaining[t], [x for x in members[t] if values[x] is None]
        if goal < 0 or goal and not open_vars:
            return None
        if len(open_vars) == 1 or not goal:
            for x in open_vars:
                if goal > bound:
                    return None
                values[x] = goal
                for u in feeds[x]:
                    remaining[u] -= goal
                    queue[u] = None
    return values


# --- splitting enumeration, each entry's compositions run anew ----------------

def reference_enumerate_splittings(M):
    """The per-entry product of every entry's compositions into its slots,
    zero entries included, each split built afresh."""
    n = M.n
    per_entry = [
        [tuple((v, m) for v, m in zip(slots, parts) if m) for parts in _compositions(total, len(slots))]
        for slots, total in zip(_entry_vars(n), M.flat)
    ]
    return [Splitting._trusted(n, dict(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*per_entry)]


# --- the coproduct, each term expanded anew, Q summed as Fractions ------------

def reference_coproduct(poly):
    """Delta of each term's monomial multiplied out afresh and summed times
    its coefficient: ints mod p, Fractions over Q."""
    n, p = poly.n, poly.p
    sums = {}
    for flat, c in poly._flat_items():
        image = None
        for ij, m in enumerate(flat):
            if m:
                power = _generator_power(n, p, ij, m)
                image = power if image is None else _convolve(image, power).items()
        for k, w in image or (((0,) * (n * (n - 1)), 1),):
            sums[k] = sums.get(k, 0) + w * c
    return TensorElement._from_flat(n, p, sums)


def reference_split_coproduct_sums(chi):
    """The closed formula on the reference enumeration, with the weights of
    one M summed per L/R key, each entry coerced where its cell is touched, Q
    summed as Fractions."""
    n, p, d = chi.n, chi.p, chi.d
    feeds = _feeds(n)
    width = n * (n - 1)
    grid = [[{} for _ in range(d)] for _ in range(d)]
    for M, mat in chi.items():
        whole = prod(map(factorial, M.flat))
        weights = {}
        for s in reference_enumerate_splittings(M):
            key = [0] * (width + 1)
            parts = 1
            for v, m in s.assignment.items():
                left, right = feeds[v]
                key[left] += m
                key[right] += m
                parts *= factorial(m)
            key = tuple(key[:width])
            weights[key] = weights.get(key, 0) + whole // parts
        for a in range(d):
            for b in range(d):
                c = mat.entries[a][b]
                if c:
                    c = coerce_scalar(c, p)
                    c = c.value if p else c
                    cell = grid[a][b]
                    for key, w in weights.items():
                        cell[key] = cell.get(key, 0) + c * w
    return [[TensorElement._from_flat(n, p, cell) for cell in row] for row in grid]


# --- the construct walk forming every product, and its certificate ------------

def reference_construct_from_layers(data, validate=True):
    """construct_from_layers as it was before it skipped products by the
    identity and products zero by their factors' support; the node bound is
    read from reps.MAX_CONSTRUCT_NODES at call time."""
    n, p, d = data.n, data.p, data.d
    if _regime(n, p, d) is None:
        raise HypothesisError(f"construction needs p >= max(n, d) = {max(n, d)}, got p = {p}")
    if p == 0 and len(data.layers) > 1:
        raise HypothesisError("characteristic zero admits a single layer only")
    if validate:
        report = data.validate()
        if not report.ok:
            raise HypothesisError(f"layer data invariants fail: {report.findings}")
    nodes = 0

    def charge(count):
        nonlocal nodes
        nodes += count * max(d * d, 9)
        if nodes > 9 * reps.MAX_CONSTRUCT_NODES:
            raise CostBoundError(f"constructing chi takes over {reps.MAX_CONSTRUCT_NODES} nodes")

    one = [[int(a == b) for b in range(d)] for a in range(d)]
    branches = []
    for i in range(n - 1, 0, -1):
        for j in range(i + 1, n + 1):
            options = reference_root_subgroup(data, i, j, one, charge)
            if options:
                branches.append((_index(n, i, j), options))
    size = n * (n - 1) // 2
    support = {}
    stack = [(0, one, None)]
    while stack:
        k, partial, chosen = stack.pop()
        if k == len(branches):
            flat = [0] * size
            while chosen:
                index, r, chosen = chosen
                flat[index] = r
            support[_key(n, tuple(flat))] = partial
            continue
        index, options = branches[k]
        charge(1 + len(options))
        stack.append((k + 1, partial, chosen))
        for r, rows in options:
            product = _matmul(partial, rows, p)
            if any(map(any, product)):
                stack.append((k + 1, product, (index, r, chosen)))
    scalar = functools.cache(functools.partial(Residue, p=p) if p else Fraction)
    return Representation(ChiTable(n, p, d, {
        M: SquareMatrix([list(map(scalar, row)) for row in rows]) for M, rows in support.items()
    }))


def reference_root_subgroup(data, i, j, one, charge):
    """reps._root_subgroup as it was, forming the products with ``one`` too."""
    p = data.p
    out = [(0, one)]
    for l, layer in enumerate(data.layers):
        image = layer.get((i, j))
        if image is None:
            continue
        terms = [(0, one)]
        kfact = 1
        for k, power in enumerate(_series_walk(_field_rows(image, p), p or None, p), start=1):
            kfact *= k
            terms.append((k * p**l, _divided(power, kfact, p)))
        charge(len(out) * len(terms))
        out = [(r + s, _matmul(a, b, p)) for r, a in out for s, b in terms]
        out = [(r, a) for r, a in out if any(map(any, a))]
    return out[1:]


def reference_certificate(rep):
    """reps._certificate as it was: the layers, if they validate and the
    Representation construct_from_layers rebuilds from them equals rep."""
    with contextlib.suppress(UnirepError):
        data = reps.decompose_to_layers(rep, check=False)
        if data.validate().ok and reps.construct_from_layers(data, validate=False).chi == rep.chi:
            return data


# --- the per-entry ExponentMatrix check ---------------------------------------

def reference_exponent_flat(n, rows):
    """ExponentMatrix.__post_init__ as it was: every entry read one by one;
    the flat upper triangle, or the ShapeError of the first bad entry."""
    rows = tuple(tuple(r) for r in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeError(f"expected a {n}x{n} matrix")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ShapeError(f"exponents must be integers, got {v!r}")
            if v < 0:
                raise ShapeError("exponents must be non-negative")
            if j <= i and v != 0:
                raise ShapeError("exponent matrix must be strictly upper triangular")
    return tuple(v for i, row in enumerate(rows) for v in row[i + 1:])


def reference_poly_str(f):
    """Polynomial.__str__ as it was: each term keyed by its ExponentMatrix,
    sorted by ``sort_key``, the constant term bare."""
    if not f.terms:
        return "0"
    terms = {_key(f.n, k): c for k, c in f.terms.items()}
    bits = []
    for key in sorted(terms, key=ExponentMatrix.sort_key):
        c = terms[key]
        bits.append(f"{c}" if key.is_zero() else f"{c}*{key}")
    return " + ".join(bits)


# --- the structure-lemma audits with an epsilon key per pair --------------------

def reference_audit_structure_lemmas(rep):
    """reps.audit_structure_lemmas as it was: chi(m_ij eps_ij) looked up by an
    ExponentMatrix.epsilon key at every pair of every supported M."""
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if _regime(1, p, d) != "layers":
        raise HypothesisError(f"structure audits need p >= 2d = {2 * d}, got p = {p}")
    report = Report()
    rows = {M: _field_rows(mat, p) for M, mat in chi.support.items()}
    zero = [[0] * d for _ in range(d)]
    one = [[int(a == b) for b in range(d)] for a in range(d)]
    if rows.get(ExponentMatrix.zero(n)) == one:
        rows[ExponentMatrix.zero(n)] = one  # so that products skip chi(0)

    def chi_at(i, j, r):
        return rows.get(ExponentMatrix.epsilon(n, i, j, r), zero)

    def product(factors):
        out = one
        for f in factors:
            if f is not one:
                out = f if out is one else _matmul(out, f, p)
        return out

    for M, _ in chi.items():
        factors = [chi_at(i, j, M.entry(i, j)) for i in range(n - 1, 0, -1)
                   for j in range(i + 1, n + 1)]
        if product(factors) != rows[M]:
            report.add("factorization", f"chi({M})",
                       "product of chi(m_ij eps_ij), rows reversed", "mismatch")

    singles = chi.single_position_items()
    for r, (i, j), _ in singles:
        digits = p_ary_digits(r, p).digits
        factors = [chi_at(i, j, p**t) for t in range(len(digits))]
        for (ta, fa), (tb, fb) in itertools.combinations(enumerate(factors), 2):
            if _matmul(fa, fb, p) != _matmul(fb, fa, p):
                report.add("gamma-formula", f"chi(p^{ta} eps_{i}{j}) vs chi(p^{tb} eps_{i}{j})",
                           "commuting factors", "nonzero commutator")
        for t, f in enumerate(factors):
            if not _is_nilpotent(f, min(p, d), p):
                report.add("gamma-formula", f"chi(p^{t} eps_{i}{j})",
                           "nilpotent of order <= p", "not nilpotent")
        inverse = pow(gamma_factor(r, p), -1, p)
        prod = product(f for f, digit in zip(factors, digits) for _ in range(digit))
        if [[x * inverse % p for x in row] for row in prod] != chi_at(i, j, r):
            report.add("gamma-formula", f"chi({r} eps_{i}{j})",
                       "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")

    carries = functools.cache(sum_carries)
    for (r, ij, _), (s, uv, _) in itertools.product(singles, singles):
        if carries(r, s, p):
            report.add("carrying", f"chi({r} eps_{ij}) and chi({s} eps_{uv})",
                       "at least one zero when r + s carries mod p", "both nonzero")
    return report



# --- the pointwise group law summed cell by cell --------------------------------

def reference_verify_group_law_pointwise(rep, mode="exhaustive", count=None, seed=0):
    """reps.verify_group_law_pointwise as it was: the constant, one-variable
    and other keys valued apart (every variable raised to its power for the
    last), and each cell of Phi its own sum over the keys, None where chi(M)
    is zero at that cell for every M."""
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    stream = _pointwise_pairs(chi, mode, count, seed)
    pairs = variable_pairs(n)
    plan = ([], [], [])  # the constant keys, the one-variable keys, the rest
    for M, mat in chi.support.items():
        plan[min(len(M.flat) - M.flat.count(0), 2)].append((M.flat, _field_rows(mat, p)))
    cells = [[rows[a][b] for _, rows in itertools.chain(*plan)] for a in range(d) for b in range(d)]
    cells = [cell if any(cell) else None for cell in cells]  # None: zero in every chi(M)
    singles = [next((k, e) for k, e in enumerate(flat) if e) for flat, _ in plan[1]]
    index = {ij: k for k, ij in enumerate(pairs)}
    inner = [[(index[i, m], index[m, j]) for m in range(i + 1, j)] for i, j in pairs]

    def phi(point):
        values = [1] * len(plan[0]) + [pow(point[k], e, p) for k, e in singles]
        values += [prod(map(pow, point, M, itertools.repeat(p))) % p for M, _ in plan[2]]
        flat = [0 if cell is None else sum(map(mul, values, cell)) % p for cell in cells]
        return [flat[a * d:(a + 1) * d] for a in range(d)]

    if p ** (2 * len(pairs)) <= MAX_EXHAUSTIVE_PAIRS:
        phi = functools.cache(phi)

    def product(g, h):
        return tuple((g[k] + h[k] + sum(g[a] * h[b] for a, b in terms)) % p
                     for k, terms in enumerate(inner))

    identity = phi((0,) * len(pairs))
    if identity != [[int(a == b) for b in range(d)] for a in range(d)]:
        report.add("group-law", "Phi(1)", "identity", tuple(map(tuple, identity)))
    for g, h in stream:
        if _matmul(phi(g), phi(h), p) != phi(product(g, h)):
            report.add("group-law", f"g={dict(zip(pairs, g))}, h={dict(zip(pairs, h))}",
                       "Phi(g)Phi(h) = Phi(gh)", "mismatch")
    return report

# --- kernel outputs with a new scalar per term; the comodule check on Fractions

def reference_field_sums(sums, p, den=None):
    """hopf._field_sums as it was: a new Residue, or Fraction over den, per term."""
    if not p:
        return [(k, Fraction(c, den) if den else c) for k, c in sums.items() if c]
    return [(k, Residue(v, p)) for k, v in sums.items() if v % p]


def reference_wrap(rows, p):
    """linalg._wrap as it was: a new Residue per entry when p > 0."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.size = len(rows)
    m.entries = [[Residue(v, p) for v in row] for row in rows] if p else rows
    return m


def reference_comodule_findings(rep):
    """reps._comodule_findings as it was, without its cost bound: over Q both
    sides summed as Fractions, one per contribution, and the tensor side run
    over every k, empty cells included."""
    report = Report()
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    cells = [[[] for _ in range(d)] for _ in range(d)]
    for M, mat in chi.support.items():
        for a, row in enumerate(mat.entries):
            for b, c in enumerate(row):
                c = coerce_scalar(c, p)
                if c:
                    cells[a][b].append((M.flat, c.value if p else c))
    unit = chi.get(ExponentMatrix.zero(n))
    if unit != chi.identity_matrix():
        report.add("chi-at-zero", "chi(0)", "identity matrix", unit)
    for a in range(d):
        for b in range(d):
            sums = {}
            for flat, c in cells[a][b]:
                for key, w in _monomial_coproduct(n, p, flat):
                    sums[key] = sums.get(key, 0) + w * c
            for k in range(d):
                for f, c in cells[a][k]:
                    for g, e in cells[k][b]:
                        sums[f + g] = sums.get(f + g, 0) - c * e
            if reference_field_sums(sums, p):
                report.add("coproduct", f"entry ({a + 1}, {b + 1})",
                           "Delta(a_ij) = sum_k a_ik (x) a_kj", "mismatch")
            delta, counit = coerce_scalar(int(a == b), p), coerce_scalar(unit.entries[a][b], p)
            if counit != delta:
                report.add("counit", f"entry ({a + 1}, {b + 1})", delta, counit)
    return report


def reference_power(base, m):
    """hopf._power as it was: square-and-multiply at p = 0; at p > 0 the
    digit of p^l counted out in products by base rescaled by p^l."""
    one = type(base).one(base.n, base.p)
    if m < 0:
        raise ValueError("negative power")
    if m == 0:
        return one
    if base.p == 0:
        result = one
        square = base
        while m:
            if m & 1:
                result = result * square
            m >>= 1
            if m:
                square = square * square
        return result
    result = one
    block = base  # base**(p^l), by key rescaling
    for l, digit in enumerate(p_ary_digits(m, base.p).digits):
        if l > 0:
            block = base.scale_exponents(base.p**l)
        for _ in range(digit):
            result = result * block
    return result


# --- the morphism criteria on the entries' own arithmetic; the index loop -----

def reference_check_morphism(T, src, dst):
    """reps.check_morphism as it was: T's entries and the tables' matrices
    multiplied by _matmul's ring branch, key by key in sort order."""
    if (src.n, src.p) != (dst.n, dst.p):
        raise ShapeError("representations live over different groups or fields")
    rows = T.entries if isinstance(T, SquareMatrix) else [list(r) for r in T]
    if len(rows) != dst.d or any(len(r) != src.d for r in rows):
        raise ShapeError(f"morphism candidate must be {dst.d} x {src.d}")
    for M in sorted(set(src.chi.support) | set(dst.chi.support), key=ExponentMatrix.sort_key):
        if _matmul(rows, src.chi.get(M).entries) != _matmul(dst.chi.get(M).entries, rows):
            return False
    return True


def reference_layer_morphism_equivalence(T, src, dst):
    """reps.layer_morphism_equivalence as it was: a zero SquareMatrix for
    each missing image, every basis pair of every layer compared."""
    for rep in (src, dst):
        if _regime(rep.n, rep.p, rep.d) not in ("Q", "layers"):
            raise HypothesisError(f"layer criterion needs p >= max(n, 2d) = "
                                  f"{max(rep.n, 2 * rep.d)}, got p = {rep.p}")
    rows = T.entries if isinstance(T, SquareMatrix) else [list(r) for r in T]
    full = reference_check_morphism(T, src, dst)
    src_layers = reps.decompose_to_layers(src)
    dst_layers = reps.decompose_to_layers(dst)
    count = max(len(src_layers.layers), len(dst_layers.layers))
    per_layer = True
    for l in range(count):
        for i, j in variable_pairs(src.n):
            a = src_layers.image(l, i, j) if l < len(src_layers.layers) else src.chi.zero_matrix()
            b = dst_layers.image(l, i, j) if l < len(dst_layers.layers) else dst.chi.zero_matrix()
            if _matmul(rows, a.entries) != _matmul(b.entries, rows):
                per_layer = False
    report = Report(data={"full": full, "per_layer": per_layer, "agree": full == per_layer})
    if full != per_layer:
        report.add("layer-morphism", "full vs per-layer",
                   "the two criteria agree", f"full={full}, per_layer={per_layer}")
    return report


def reference_nilpotency_index(m, cap):
    """linalg.nilpotency_index as it was: one SquareMatrix per power."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    power = m
    for k in range(1, cap + 1):
        if power.is_zero():
            return k
        if k < cap:
            power = power @ m
    raise NotNilpotentError(f"matrix is not nilpotent within {cap} powers")


# --- the term algebra's results as they were built before _from_flat was their one exit

def reference_trusted(cls, n, p, terms):
    """hopf._Terms._trusted as it was: {key: nonzero field element} wrapped unchecked."""
    f = cls.__new__(cls)
    f.n, f.p, f.terms = n, p, terms
    return f


def reference_sum_terms(a, b, p):
    """hopf._sum_terms as it was: the terms of a + b; a key whose coefficients
    cancel is dropped."""
    terms = dict(a)
    table = p and arith._residues(p)
    for k, c in b.items():
        old = terms.get(k)
        if old is None:
            terms[k] = c
            continue
        c = table[(old.value + c.value) % p] if p else old + c
        if c:
            terms[k] = c
        else:
            del terms[k]
    return terms


def reference_scaled_terms(terms, c, p):
    """hopf._scaled_terms as it was: the terms times the field element c."""
    if not c:
        return {}
    if p:
        v, table = c.value, arith._residues(p)
        return {k: table[x.value * v % p] for k, x in terms.items()}
    return {k: x * c for k, x in terms.items()}


def reference_one(cls, n, p):
    return reference_trusted(cls, n, p, {(0,) * (cls._factors * n * (n - 1) // 2): coerce_scalar(1, p)})


def reference_neg(x):
    return reference_trusted(type(x), x.n, x.p, {k: -c for k, c in x.terms.items()})


def reference_add(x, y):
    x._check(y)
    return reference_trusted(type(x), x.n, x.p, reference_sum_terms(x.terms, y.terms, x.p))


def reference_scale(x, c):
    return reference_trusted(type(x), x.n, x.p, reference_scaled_terms(x.terms, coerce_scalar(c, x.p), x.p))


def reference_scale_exponents(x, e):
    return reference_trusted(type(x), x.n, x.p, {tuple(e * v for v in k): c for k, c in x.terms.items()})


def reference_product(x, y):
    """The product with its empty shortcut; nonempty operands were already
    multiplied by the kernel that still does it."""
    if not (x.terms and y.terms):
        return reference_trusted(type(x), x.n, x.p, {})
    return x * y


def reference_route_power(base, m):
    """hopf._power on the routes above: its square-and-multiply loop, with
    one, scale_exponents and the products built as they were."""
    if m < 0:
        raise ValueError("negative power")
    result = reference_one(type(base), base.n, base.p)
    for l, digit in enumerate(p_ary_digits(m, base.p).digits if base.p else (m,)):
        square = reference_scale_exponents(base, base.p**l) if l else base
        while digit:
            if digit & 1:
                result = reference_product(result, square)
            digit >>= 1
            if digit:
                square = reference_product(square, square)
    return result
