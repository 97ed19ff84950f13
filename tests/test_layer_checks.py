"""The layer and chi checks on int rows, against the SquareMatrix bodies they
replaced: LieLayerData.validate, verify_chi_relations, audit_structure_lemmas."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from unirep.arith import coerce_scalar, gamma_factor, p_ary_digits, sum_carries
from unirep.errors import HypothesisError, ModulusMismatchError, NotNilpotentError
from unirep.hopf import ExponentMatrix, variable_pairs
from unirep.linalg import SquareMatrix, commutator, nilpotency_index, scalar_matrix
from unirep.reps import (
    ChiTable,
    LieLayerData,
    Report,
    Representation,
    _chi_power_items,
    audit_structure_lemmas,
    construct_from_layers,
    decompose_to_layers,
    lie_bracket_pairs,
    verify_chi_relations,
    verify_group_law_pointwise,
)
from unirep.samples import random_layer_data

from oracles import reference_audit_structure_lemmas


# --- the SquareMatrix bodies, kept as the oracle ------------------------------

def reference_validate(data):
    report = Report()
    pairs = variable_pairs(data.n)
    for l in range(len(data.layers)):
        for i, j in pairs:
            img = data.image(l, i, j)
            try:
                nilpotency_index(img, data.d)
            except NotNilpotentError:
                report.add("layer-nilpotency", f"layer {l}, eps_{i}{j}",
                           "nilpotent image", "not nilpotent")
        for rs, tu in itertools.combinations(pairs, 2):
            lhs = commutator(data.image(l, *rs), data.image(l, *tu))
            rhs = data.image(l, *rs).zero_like()
            for (i, j), sign in lie_bracket_pairs(rs, tu):
                img = data.image(l, i, j)
                rhs = rhs + (img if sign > 0 else -img)
            if lhs != rhs:
                report.add("layer-homomorphism", f"layer {l}, [{rs}, {tu}]",
                           "bracket-compatible", "bracket mismatch")
    for la, lb in itertools.combinations(range(len(data.layers)), 2):
        for rs, tu in itertools.product(pairs, pairs):
            if not commutator(data.image(la, *rs), data.image(lb, *tu)).is_zero():
                report.add("cross-layer-commutation",
                           f"layers {la}/{lb}, eps_{rs} vs eps_{tu}",
                           "commuting images", "nonzero commutator")
    return report


def reference_chi_relations(rep):
    chi = rep.chi
    if chi.p == 0:
        raise HypothesisError("chi relations are a positive-characteristic statement")
    report = Report()
    powers = _chi_power_items(chi)
    for l, (i, j), mat in powers:
        try:
            nilpotency_index(mat, chi.d)
        except NotNilpotentError:
            report.add("chi-nilpotency", f"chi(p^{l} eps_{i}{j})", "nilpotent", "not nilpotent")
    for (l, rs, a), (m, tu, b) in itertools.combinations(powers, 2):
        bracket = commutator(a, b)
        expected = chi.zero_matrix()
        if l == m:
            for (i, j), sign in lie_bracket_pairs(rs, tu):
                img = chi.get(ExponentMatrix.epsilon(chi.n, i, j, chi.p**l))
                expected = expected + (img if sign > 0 else -img)
        if bracket != expected:
            report.add("chi-bracket", f"[chi(p^{l} eps_{rs}), chi(p^{m} eps_{tu})]",
                       expected, bracket)
    for l, (i, j), mat in powers:
        for k in range(i + 1, j):
            sides = [chi.get(ExponentMatrix.epsilon(chi.n, a, b, chi.p**l)) for a, b in ((i, k), (k, j))]
            if any(side.is_zero() for side in sides):
                report.add("chi-bracket", f"[chi(p^{l} eps_{(i, k)}), chi(p^{l} eps_{(k, j)})]",
                           mat, chi.zero_matrix())
    return report


def reference_audits(rep):
    chi = rep.chi
    n, p, d = chi.n, chi.p, chi.d
    if p == 0 or p < 2 * d:
        raise HypothesisError(f"structure audits need p >= 2d = {2 * d}, got p = {p}")
    report = Report()
    for M, mat in chi.items():
        prod = chi.identity_matrix()
        for i in range(n - 1, 0, -1):
            for j in range(i + 1, n + 1):
                prod = prod @ chi.get(ExponentMatrix.epsilon(n, i, j, M.entry(i, j)))
        if prod != mat:
            report.add("factorization", f"chi({M})",
                       "product of chi(m_ij eps_ij), rows reversed", "mismatch")
    for r, (i, j), mat in chi.single_position_items():
        digits = p_ary_digits(r, p).digits
        factors = [chi.get(ExponentMatrix.epsilon(n, i, j, p**t)) for t in range(len(digits))]
        for (ta, fa), (tb, fb) in itertools.combinations(enumerate(factors), 2):
            if not commutator(fa, fb).is_zero():
                report.add("gamma-formula", f"chi(p^{ta} eps_{i}{j}) vs chi(p^{tb} eps_{i}{j})",
                           "commuting factors", "nonzero commutator")
        for t, f in enumerate(factors):
            try:
                nilpotency_index(f, min(p, d))
            except NotNilpotentError:
                report.add("gamma-formula", f"chi(p^{t} eps_{i}{j})",
                           "nilpotent of order <= p", "not nilpotent")
        prod = chi.identity_matrix()
        for t, digit in enumerate(digits):
            for _ in range(digit):
                prod = prod @ factors[t]
        expected = prod.scale(coerce_scalar(Fraction(1, gamma_factor(r, p)), p))
        if expected != mat:
            report.add("gamma-formula", f"chi({r} eps_{i}{j})",
                       "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")
    singles = chi.single_position_items()
    for (r, ij, mat_r), (s, uv, mat_s) in itertools.product(singles, singles):
        if sum_carries(r, s, p) and not (mat_r.is_zero() or mat_s.is_zero()):
            report.add("carrying", f"chi({r} eps_{ij}) and chi({s} eps_{uv})",
                       "at least one zero when r + s carries mod p", "both nonzero")
    return report


# --- seeded inputs: valid, one entry corrupted, corrupted across layers -------

# the dense (n, d, L) shapes of the benchmark's roundtrip workload
DENSE_SHAPES = (
    (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1), (4, 2, 1), (4, 2, 2),
    (4, 2, 3), (4, 3, 1), (5, 2, 2), (5, 3, 1),
)


def random_scalar(p, rng):
    return coerce_scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) if p == 0
                         else rng.randrange(p), p)


def with_entry(mat, a, b, value):
    rows = [list(row) for row in mat.entries]
    rows[a][b] = value
    return SquareMatrix(rows)


def corrupted_layers(data, rng, across):
    """data with one image entry redrawn, or (across) the transpose of an
    image copied into another layer at a random pair."""
    layers = [dict(layer) for layer in data.layers]
    pairs = variable_pairs(data.n)
    present = [(l, ij) for l, layer in enumerate(layers) for ij in layer]
    if across:
        l, ij = rng.choice(present)
        target = (l + 1) % len(layers) if len(layers) > 1 else 1
        if target == len(layers):
            layers.append({})
        layers[target][rng.choice(pairs)] = layers[l][ij].transpose()
    else:
        l, ij = rng.choice(present) if rng.random() < 0.7 else (rng.randrange(len(layers)),
                                                                 rng.choice(pairs))
        mat = data.image(l, *ij)
        a, b = rng.randrange(data.d), rng.randrange(data.d)
        layers[l][ij] = with_entry(mat, a, b, mat.entries[a][b] + random_scalar(data.p, rng) + 1)
    return LieLayerData(data.n, data.p, data.d, layers)


def corrupted_rep(rep, rng, how):
    """rep with one chi entry redrawn ("entry"), the transpose of a layer-0
    image placed at chi(p eps_ij) ("across"), or a layer-0 image copied to
    chi(r eps_ij) with r + r carrying mod p ("carrying")."""
    chi = rep.chi
    support = dict(chi.support)
    if how == "entry":
        M = rng.choice(sorted(support, key=ExponentMatrix.sort_key))
        mat = support[M]
        a, b = rng.randrange(chi.d), rng.randrange(chi.d)
        support[M] = with_entry(mat, a, b, mat.entries[a][b] + 1 + rng.randrange(chi.p - 1))
    else:
        images = [mat for l, _, mat in _chi_power_items(chi) if l == 0]
        if not images:
            return None
        i, j = rng.choice(variable_pairs(chi.n))
        image = rng.choice(images)
        if how == "across":
            support[ExponentMatrix.epsilon(chi.n, i, j, chi.p)] = image.transpose()
        else:
            r = rng.randrange((chi.p + 1) // 2, chi.p)
            support[ExponentMatrix.epsilon(chi.n, i, j, r)] = image
    return Representation(ChiTable(chi.n, chi.p, chi.d, support))


def outcome(check, arg):
    try:
        return check(arg).findings
    except HypothesisError as exc:
        return ("HypothesisError", str(exc))


def test_checks_match_the_squarematrix_bodies():
    compared = with_findings = 0
    for (n, d, L), p, seed in itertools.product(DENSE_SHAPES, (0, 5, 11, 13), range(3)):
        rng = random.Random(seed * 1000 + p)
        data = random_layer_data(n, d, p, L, seed).trimmed()
        datas = [data, corrupted_layers(data, rng, False), corrupted_layers(data, rng, True)]
        for candidate in datas:
            got = candidate.validate().findings
            assert got == reference_validate(candidate).findings, (n, d, L, p, seed)
            compared += 1
            with_findings += bool(got)
        if p == 0:
            continue
        rep = construct_from_layers(data)
        reps = [rep] + [corrupted_rep(rep, rng, how) for how in ("entry", "across", "carrying")]
        for candidate in filter(None, reps):
            for check, reference in ((verify_chi_relations, reference_chi_relations),
                                     (audit_structure_lemmas, reference_audits)):
                got = outcome(check, candidate)
                assert got == outcome(reference, candidate), (check.__name__, n, d, L, p, seed)
                compared += 1
                with_findings += bool(got)
    assert compared > 1000 and with_findings > compared // 3


def test_validate_on_sparse_images_matches_the_full_walk():
    """Images at a random few pairs, so that brackets often have one side or
    the target missing, or both sides present and the target missing."""
    compared = with_findings = 0
    for seed in range(150):
        rng = random.Random(seed)
        n, d, p = rng.choice([(3, 2, 5), (4, 2, 0), (4, 3, 7), (5, 2, 11)])
        pairs = variable_pairs(n)
        layers = [{ij: SquareMatrix([[random_scalar(p, rng) if b > a or rng.random() < 0.1
                                      else coerce_scalar(0, p) for b in range(d)] for a in range(d)])
                   for ij in rng.sample(pairs, rng.randrange(len(pairs) + 1))}
                  for _ in range(rng.randrange(1, 4))]
        if seed % 3 == 0:  # empty layers before and between the image layers
            layers = [layer for image in layers for layer in [{}] * rng.randrange(3) + [image]]
        data = LieLayerData(n, p, d, layers)
        got = data.validate().findings
        assert got == reference_validate(data).findings, seed
        compared += 1
        with_findings += bool(got)
    assert with_findings > compared // 2


def test_validate_cost_follows_the_images():
    # the walk over every pair of basis elements took about 15 s on this input
    data = LieLayerData(60, 61, 3, [{} for _ in range(8)])
    start = time.perf_counter()
    assert data.validate().ok
    assert construct_from_layers(data) == construct_from_layers(data, validate=False)
    # one image, at layer 6000: the pairs of layer indices took about 5 s
    data = LieLayerData(2, 5, 2, [{}] * 6000 + [{(1, 2): scalar_matrix(E12, 5)}])
    assert data.validate().ok
    rep = chi_rep(2, 5, {(): I2, ((1, 2, 5**6000),): E12})
    assert decompose_to_layers(rep) == data
    assert verify_chi_relations(rep).ok
    assert time.perf_counter() - start < 1.0


# --- each finding kind, pinned ------------------------------------------------

E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
IDEMPOTENT = [[1, 0], [0, 0]]
I2 = [[1, 0], [0, 1]]


def finding(check, location, expected, actual):
    return {"check": check, "location": location, "expected": expected, "actual": actual}


def layer_data(n, p, layers):
    return LieLayerData(n, p, 2, [{ij: scalar_matrix(rows, p) for ij, rows in layer.items()}
                                  for layer in layers])


def chi_rep(n, p, entries, d=2):
    """Representation from {((i, j, mult), ...): rows}; () is chi(0)."""
    support = {}
    for key, rows in entries.items():
        M = ExponentMatrix.zero(n)
        for i, j, mult in key:
            M = M + ExponentMatrix.epsilon(n, i, j, mult)
        support[M] = scalar_matrix(rows, p)
    return Representation(ChiTable(n, p, d, support))


@pytest.mark.parametrize("p", [0, 7])
def test_layer_nilpotency_finding(p):
    data = layer_data(2, p, [{(1, 2): IDEMPOTENT}])
    assert data.validate().findings == [
        finding("layer-nilpotency", "layer 0, eps_12", "nilpotent image", "not nilpotent")]


@pytest.mark.parametrize("p", [0, 7])
def test_layer_homomorphism_finding(p):
    # [E12, E21] = diag(1, -1), but eps_13 goes to 0
    data = layer_data(3, p, [{(1, 2): E12, (2, 3): E21}])
    assert data.validate().findings == [
        finding("layer-homomorphism", "layer 0, [(1, 2), (2, 3)]",
                "bracket-compatible", "bracket mismatch")]


@pytest.mark.parametrize("p", [0, 7])
def test_cross_layer_commutation_finding(p):
    data = layer_data(2, p, [{(1, 2): E12}, {(1, 2): E21}])
    assert data.validate().findings == [
        finding("cross-layer-commutation", "layers 0/1, eps_(1, 2) vs eps_(1, 2)",
                "commuting images", "nonzero commutator")]


def test_chi_nilpotency_finding():
    rep = chi_rep(2, 11, {(): I2, ((1, 2, 1),): IDEMPOTENT})
    assert verify_chi_relations(rep).findings == [
        finding("chi-nilpotency", "chi(p^0 eps_12)", "nilpotent", "not nilpotent")]


def test_chi_bracket_finding_against_zero():
    rep = chi_rep(3, 11, {(): I2, ((1, 2, 1),): E12, ((2, 3, 1),): E21})
    assert verify_chi_relations(rep).findings == [
        finding("chi-bracket", "[chi(p^0 eps_(2, 3)), chi(p^0 eps_(1, 2))]",
                "[0, 0; 0, 0]", "[10, 0; 0, 1]")]


def test_chi_bracket_finding_against_a_negated_image():
    # the keys sort eps_23 < eps_13 < eps_12, so the pair is (eps_23, eps_12),
    # whose bracket is -eps_13: expected -chi(eps_13) = -2 E13, actual -E13
    def unit(i, j, c=1):
        return [[c * ((a, b) == (i, j)) for b in range(1, 4)] for a in range(1, 4)]

    identity = [[int(a == b) for b in range(3)] for a in range(3)]
    rep = chi_rep(3, 11, {(): identity, ((1, 2, 1),): unit(1, 2), ((2, 3, 1),): unit(2, 3),
                          ((1, 3, 1),): unit(1, 3, 2)}, d=3)
    assert verify_chi_relations(rep).findings == [
        finding("chi-bracket", "[chi(p^0 eps_(2, 3)), chi(p^0 eps_(1, 2))]",
                "[0, 0, 9; 0, 0, 0; 0, 0, 0]", "[0, 0, 10; 0, 0, 0; 0, 0, 0]")]


E12_3 = [[int((a, b) == (0, 1)) for b in range(3)] for a in range(3)]
I3 = [[int(a == b) for b in range(3)] for a in range(3)]


def test_chi_bracket_finding_with_a_zero_side():
    # chi(eps_12) is absent, so [chi(eps_12), chi(eps_23)] = 0, but chi(eps_13) = E12;
    # no pair of supported powers has that bracket.  validate fails the same layer there.
    rep = chi_rep(3, 7, {(): I3, ((2, 3, 1),): E12_3, ((1, 3, 1),): E12_3}, d=3)
    assert verify_chi_relations(rep).findings == [
        finding("chi-bracket", "[chi(p^0 eps_(1, 2)), chi(p^0 eps_(2, 3))]",
                "[0, 1, 0; 0, 0, 0; 0, 0, 0]", "[0, 0, 0; 0, 0, 0; 0, 0, 0]")]
    layer = {ij: scalar_matrix(E12_3, 7) for ij in ((2, 3), (1, 3))}
    assert LieLayerData(3, 7, 3, [layer]).validate().findings == [
        finding("layer-homomorphism", "layer 0, [(1, 2), (2, 3)]",
                "bracket-compatible", "bracket mismatch")]


def test_chi_bracket_finding_with_two_zero_sides_at_a_higher_layer():
    # chi(p eps_13) alone: both sides of its one bracket are absent, one finding
    rep = chi_rep(3, 5, {(): I3, ((1, 3, 5),): E12_3}, d=3)
    assert verify_chi_relations(rep).findings == [
        finding("chi-bracket", "[chi(p^1 eps_(1, 2)), chi(p^1 eps_(2, 3))]",
                "[0, 1, 0; 0, 0, 0; 0, 0, 0]", "[0, 0, 0; 0, 0, 0; 0, 0, 0]")]


def test_factorization_finding():
    # chi(eps_23) is absent, so the product for eps_12 + eps_23 is zero
    rep = chi_rep(3, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 1), (2, 3, 1)): E12})
    assert audit_structure_lemmas(rep).findings == [
        finding("factorization", "chi(x12*x23)",
                "product of chi(m_ij eps_ij), rows reversed", "mismatch")]


def test_gamma_formula_mismatch_finding():
    rep = chi_rep(2, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 2),): E12})
    assert audit_structure_lemmas(rep).findings == [
        finding("gamma-formula", "chi(2 eps_12)",
                "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch")]


def test_gamma_formula_commuting_finding():
    rep = chi_rep(2, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 5),): E21})
    assert audit_structure_lemmas(rep).findings == [
        finding("gamma-formula", "chi(p^0 eps_12) vs chi(p^1 eps_12)",
                "commuting factors", "nonzero commutator")]


def test_gamma_formula_nilpotency_finding():
    rep = chi_rep(2, 5, {(): I2, ((1, 2, 1),): IDEMPOTENT})
    assert audit_structure_lemmas(rep).findings == [
        finding("gamma-formula", "chi(p^0 eps_12)", "nilpotent of order <= p", "not nilpotent")]


def test_carrying_finding():
    # 3 + 3 carries mod 5; chi(3 eps_12) also breaks the Gamma formula
    rep = chi_rep(2, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 3),): E12})
    assert audit_structure_lemmas(rep).findings == [
        finding("gamma-formula", "chi(3 eps_12)",
                "Gamma(r)^-1 prod chi(p^t eps_ij)^{r_t}", "mismatch"),
        finding("carrying", "chi(3 eps_(1, 2)) and chi(3 eps_(1, 2))",
                "at least one zero when r + s carries mod p", "both nonzero")]


def test_pinned_cases_match_the_oracle():
    cases = [
        chi_rep(3, 11, {(): I2, ((1, 2, 1),): E12, ((2, 3, 1),): E21}),
        chi_rep(3, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 1), (2, 3, 1)): E12}),
        chi_rep(2, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 5),): E21}),
        chi_rep(2, 5, {(): I2, ((1, 2, 1),): E12, ((1, 2, 3),): E12}),
        chi_rep(2, 5, {((1, 2, 1),): E12}),  # chi(0) absent
        chi_rep(3, 7, {(): I3, ((2, 3, 1),): E12_3, ((1, 3, 1),): E12_3}, d=3),
        chi_rep(3, 7, {(): I3, ((1, 2, 7),): E12_3, ((1, 3, 7),): E12_3}, d=3),
        chi_rep(3, 5, {(): I2, ((1, 2, 1),): E12, ((2, 3, 25),): E21, ((1, 3, 25),): E12}),  # p^0 and p^2
    ]
    for rep in cases:
        assert verify_chi_relations(rep).findings == reference_chi_relations(rep).findings
        assert audit_structure_lemmas(rep).findings == reference_audits(rep).findings


# --- the field of every entry is checked where the table is built ------------

def refusal(build):
    """The message of the ModulusMismatchError that build() raises."""
    with pytest.raises(ModulusMismatchError) as exc:
        build()
    return str(exc.value)


def test_validate_refuses_images_mod_another_prime():
    # the constructor reads every image into the field, so validate sees none outside it
    all_mod_q = layer_data(3, 11, [{(1, 2): E12, (2, 3): E21}])
    mixed = [{(1, 2): scalar_matrix(E12, 7), (2, 3): scalar_matrix(E21, 11)}]
    for n, p, layers, entry in [(3, 7, all_mod_q.layers, "Residue(value=0, p=11)"),
                                (3, 7, mixed, "Residue(value=0, p=11)"),
                                (2, 0, [{(1, 2): scalar_matrix(E12, 7)}], "Residue(value=0, p=7)"),  # p = 0 means Q
                                (2, 7, [{(1, 2): scalar_matrix(E12, 0)}], "Fraction(0, 1)"),
                                (2, 7, [{(1, 2): SquareMatrix(E12)}], "0")]:
        message = refusal(lambda: LieLayerData(n, p, 2, layers))
        assert message == f"entry {entry} is not in the field of characteristic {p}"
    ints = LieLayerData(2, 0, 2, [{(1, 2): SquareMatrix(E12)}])  # read as their Fractions
    assert ints == layer_data(2, 0, [{(1, 2): E12}]) and ints.validate().ok


# Supports over F_7 with an entry outside it, and the first such entry.
OUTSIDE_F7 = [
    ({ExponentMatrix.zero(2): scalar_matrix(I2, 11), ExponentMatrix.epsilon(2, 1, 2): scalar_matrix(E12, 11)},
     "Residue(value=1, p=11)"),
    ({ExponentMatrix.zero(2): scalar_matrix(I2, 7), ExponentMatrix.epsilon(2, 1, 2): scalar_matrix(E12, 11)},
     "Residue(value=0, p=11)"),
    ({ExponentMatrix.zero(2): scalar_matrix(I2, 0), ExponentMatrix.epsilon(2, 1, 2): scalar_matrix(E12, 0)},
     "Fraction(1, 1)"),
]


def assert_refused_at_construction():
    for support, entry in OUTSIDE_F7:
        message = refusal(lambda: ChiTable(2, 7, 2, support))
        assert message == f"entry {entry} is not in the field of characteristic 7"


@pytest.mark.parametrize("check", [verify_chi_relations, audit_structure_lemmas])
def test_chi_checks_refuse_entries_mod_another_prime(check):
    # the table's constructor refuses them, so no check reads them; over F_7 the table passes
    assert_refused_at_construction()
    assert check(chi_rep(2, 7, {(): I2, ((1, 2, 1),): E12})).ok


def test_pointwise_check_refuses_entries_outside_the_field():
    """An entry outside F_p is refused when the table is built, so the
    pointwise check never evaluates one."""
    assert_refused_at_construction()
    for mode in ("exhaustive", "sampled"):
        assert verify_group_law_pointwise(chi_rep(2, 7, {(): I2, ((1, 2, 1),): E12}), mode=mode).ok



# --- the audits on one dict of chi(r eps_ij), against the epsilon-key body -----

def audit_cases(p, seed):
    """(name, rep): a constructed rep, and copies with chi(0) not the identity,
    chi(0) dropped, one chi(r eps_ij) entry wrong, an extra key and a dropped
    key, drawn from seed."""
    rng = random.Random(seed * 100 + p)
    n, d, L = rng.choice([(2, 2, 1), (3, 2, 2), (4, 3, 1), (4, 3, 2), (5, 3, 1), (5, 4, 2)])
    d = min(d, p // 2)
    rep = construct_from_layers(random_layer_data(n, d, p, L, seed))
    chi = rep.chi
    zero_key = ExponentMatrix.zero(n)

    def table(support):
        return Representation(ChiTable(n, p, d, support))

    def random_matrix():
        return scalar_matrix([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)

    unit = [[int(a == b) for b in range(d)] for a in range(d)]
    unit[0][d - 1] += 1 + rng.randrange(p - 1)
    cases = [("valid", rep),
             ("unit", table({**chi.support, zero_key: scalar_matrix(unit, p)})),
             ("no-unit", table({M: m for M, m in chi.support.items() if M != zero_key}))]
    singles = chi.single_position_items()
    if singles:
        r, (i, j), mat = rng.choice(singles)
        a, b = rng.randrange(d), rng.randrange(d)
        cases.append(("single", table({**chi.support, ExponentMatrix.epsilon(n, i, j, r):
                                       with_entry(mat, a, b, mat.entries[a][b] + 1 + rng.randrange(p - 1))})))
    extra = zero_key
    for i, j in rng.sample(variable_pairs(n), min(n - 1, rng.randint(1, 2))):
        extra = extra + ExponentMatrix.epsilon(n, i, j, rng.randint(1, 2 * p))
    cases.append(("extra", table({**chi.support, extra: random_matrix()})))
    if singles:  # a factor of other keys, unless it is a leaf of the walk
        r, (i, j), _ = rng.choice(singles)
        dropped = ExponentMatrix.epsilon(n, i, j, r)
        cases.append(("dropped", table({M: m for M, m in chi.support.items() if M != dropped})))
    return cases


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_audits_match_the_epsilon_key_oracle(p):
    compared = with_findings = 0
    for seed in range(16):
        for name, rep in audit_cases(p, seed):
            got = outcome(audit_structure_lemmas, rep)
            assert got == outcome(reference_audit_structure_lemmas, rep), (p, seed, name)
            compared += 1
            with_findings += bool(got)
    assert with_findings > compared // 3
