"""The slow paths the library replaced, kept in the tests as their oracles.

The library computes with the chi table only.  These are the slow paths it
used before, on polynomial matrices and SquareMatrix operators: the one-pass
exp/log series, the generic element and the per-layer construction, the
tensor side of the comodule axioms, and the poly-format writer, reader and
Frobenius twist through ``assemble`` and ``extract_chi``.  The BCH series
and the Dynkin projection's left-nested sum are kept here as they were on
dicts keyed by tuple words, before they moved to dense word-indexed lists.
The closed-form Y/Z solve is kept as it read ``ExponentMatrix.entry``, before
it read the flat entries.
Each is defined here once and imported by the tests that compare against it.
"""

import itertools
import json
from fractions import Fraction
from math import comb, factorial, lcm

from unirep import io
from unirep.bch import FreeElement
from unirep.errors import HypothesisError, NotNilpotentError, ParseError, SeriesTerminationError, ShapeError
from unirep.hopf import Polynomial, TensorElement, tensor_of
from unirep.linalg import SquareMatrix
from unirep.reps import Representation, _regime, assemble, extract_chi
from unirep.splittings import Splitting, SplitVarId


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
            terms = [{"M": [list(r) for r in M.rows], "c": io.scalar_to_str(c)}
                     for M, c in sorted(pm.entries[a][b].terms.items(), key=lambda kv: kv[0].sort_key())]
            lines.append(json.dumps({"row": a + 1, "col": b + 1, "terms": terms}, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_parse_rep_file(text):
    """parse_rep_file as it read a poly body: each line's terms into a
    Polynomial, the d x d matrix of them through extract_chi.  Any other file,
    and every error up to a poly body, is parse_rep_file's own."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or io._load_line(lines[0], 1).get("format") != "poly":
        return io.parse_rep_file(text)
    n, p, d = io._header_ints(io._load_line(lines[0], 1))
    parsed = {}
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
            terms[M] = io._scalar(t.get("c"), p, lineno, parsed)
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
