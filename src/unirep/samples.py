"""Seeded random generators for layer data, coefficient tables, and matrices.

Layer data is built valid by construction.  Two shapes are mixed:

* block-diagonal: each layer acts on its own diagonal block, so distinct
  layers commute for free; a block at least n wide carries a conjugate of the
  tautological action, a narrower one an abelianized action by polynomials in
  a single nilpotent.
* shared-nilpotent: every image across every layer is a polynomial in one
  fixed nilpotent matrix, so the whole family is commutative.
"""

from __future__ import annotations

import random

from .arith import coerce_scalar
from .hopf import ExponentMatrix, variable_pairs
from .linalg import SquareMatrix, scalar_matrix
from .reps import LieLayerData, tautological_layer

__all__ = [
    "random_strict_upper",
    "random_invertible",
    "random_layer_data",
    "random_chi_support",
]


def random_strict_upper(d, p, rng, nonzero=False):
    """Random strictly upper-triangular d x d matrix over F_p (or Q)."""
    modulus = p if p else 7
    while True:
        rows = [[rng.randrange(modulus) if j > i else 0 for j in range(d)] for i in range(d)]
        if not nonzero or any(v for row in rows for v in row):
            return scalar_matrix(rows, p)


def random_invertible(d, p, rng):
    """Product L U of random unitriangular matrices, with its inverse.

    The inverse of a unitriangular 1 + K is the finite sum of (-K)^t, so no
    general elimination is needed.
    """
    one = coerce_scalar(1, p)
    ident = SquareMatrix.identity(d, one)

    def unitriangular(upper):
        k = random_strict_upper(d, p, rng)
        if not upper:
            k = k.transpose()
        inv = ident
        power = ident
        for _ in range(1, d):
            power = power @ (-k)
            inv = inv + power
        return ident + k, inv

    lo, lo_inv = unitriangular(upper=False)
    up, up_inv = unitriangular(upper=True)
    return lo @ up, up_inv @ lo_inv


def _abelian_layer(n, p, rng, nilpotent, offset, d):
    """Superdiagonal generators go to random polynomials (without constant
    term) in one shared nilpotent; everything else to zero.  All brackets
    vanish on both sides, so this is a homomorphism through the
    abelianization."""
    layer = {}
    for i in range(1, n):
        poly = nilpotent.zero_like()
        power = nilpotent
        for _ in range(1, nilpotent.size):
            poly = poly + power.scale(coerce_scalar(rng.randrange(p if p else 5), p))
            power = power @ nilpotent
        if not poly.is_zero():
            layer[(i, i + 1)] = _embed(poly, offset, d, p)
    return layer


def _embed(block, offset, d, p):
    zero = coerce_scalar(0, p)
    rows = [[zero] * d for _ in range(d)]
    for a in range(block.size):
        for b in range(block.size):
            rows[offset + a][offset + b] = block.entries[a][b]
    return SquareMatrix(rows)


def _block_layer(n, b, p, rng, offset, d):
    if b < 2:
        return {}
    if b >= n:
        base = tautological_layer(n, p)
        s, s_inv = random_invertible(n, p, rng)
        pad = b - n
        layer = {}
        for ij, mat in base.items():
            conj = s @ mat @ s_inv
            if pad:
                conj = _embed(conj, 0, b, p)
            layer[ij] = _embed(conj, offset, d, p)
        return layer
    nilpotent = random_strict_upper(b, p, rng, nonzero=True)
    return _abelian_layer(n, p, rng, nilpotent, offset, d)


def random_layer_data(n, d, p, num_layers, seed) -> LieLayerData:
    """A valid random layer family for the given parameters."""
    rng = random.Random(seed)
    if num_layers < 1:
        raise ValueError("need at least one layer")
    mode = rng.choice(("blocks", "shared")) if num_layers > 1 else "blocks"
    if mode == "shared" or (mode == "blocks" and d < 2):
        s, s_inv = random_invertible(d, p, rng)
        shared = s @ random_strict_upper(d, p, rng, nonzero=d >= 2) @ s_inv
        layers = [
            _abelian_layer(n, p, rng, shared, 0, d) if d >= 2 else {}
            for _ in range(num_layers)
        ]
    else:
        sizes = [0] * num_layers
        for _ in range(d):
            sizes[rng.randrange(num_layers)] += 1
        layers = []
        offset = 0
        for b in sizes:
            layers.append(_block_layer(n, b, p, rng, offset, d))
            offset += b
    if all(not layer for layer in layers):
        # guarantee at least one nonzero image so the data is not trivial
        if d >= 2:
            nilpotent = random_strict_upper(d, p, rng, nonzero=True)
            layers[0] = _abelian_layer(n, p, rng, nilpotent, 0, d)
    return LieLayerData(n, p, d, layers)


def random_chi_support(n, d, p, count, seed, max_entry=3):
    """Random sparse exponent-matrix keys with random coefficient matrices,
    for stress-testing combinatorial routines (not valid representations).

    A count above the (max_entry + 1)^N distinct keys, N = n(n-1)/2, is
    refused with ValueError before anything is drawn."""
    keys = (max_entry + 1) ** (n * (n - 1) // 2)
    if count > keys:
        raise ValueError(f"count {count} is over the {keys} distinct keys with entries <= {max_entry}")
    rng = random.Random(seed)
    modulus = p if p else 9
    support = {}
    while len(support) < count:
        m = ExponentMatrix.zero(n)
        for i, j in variable_pairs(n):
            if rng.random() < 0.5:
                m = m + ExponentMatrix.epsilon(n, i, j, rng.randint(1, max_entry))
        rows = [[rng.randrange(modulus) for _ in range(d)] for _ in range(d)]
        support[m] = scalar_matrix(rows, p)
    return support
