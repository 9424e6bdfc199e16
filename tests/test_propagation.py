"""Back-propagation engines against the dense oracle and each other."""

import gzip
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulipatch import (
    AllPlus,
    AllZero,
    Circuit,
    CliffordGate,
    ConfigError,
    DimensionError,
    ObservableSpec,
    ParamRef,
    PathMonomial,
    PauliString,
    PolicyOverflowError,
    RampSpec,
    Rotation,
    SurrogateEvaluator,
    TruncationPolicy,
    ValidationError,
    backpropagate,
    build_tfi_trotter,
    chain,
    exact_expectation_batch,
    grid,
    heavyhex127,
    load_artifact,
    path_stats,
    pauli_mean_squares,
    restrict_sine_order,
    save_artifact,
    worst_case_coeff_bounds,
)
from paulipatch import propagation
from paulipatch.propagation import (
    ARTIFACT_FORMAT,
    NUMERIC,
    SYMBOLIC,
    PropagationStats,
    _masks_to_words,
    _NumericFrontier,
)

from conftest import patch_around_fixed_x, random_mixed_circuit, random_observable


# --- one-rotation circuits ------------------------------------------------------------


def test_rotation_commuting_passthrough():
    c = Circuit(1, 0, (Rotation("Z", (0,), ParamRef.fixed(0.3)),))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Z"), 0.5),
                       mode=NUMERIC)
    assert [(p.to_text(), t.coefficient, t.min_sine_count)
            for p, t in po.terms.items()] == [("Z", 0.5, 0)]
    assert po.stats.paths_expanded == 0


def test_rotation_splits_to_cos_and_minus_sin():
    # back-propagating X through exp(-i a Z / 2) gives cos(a) X - sin(a) Y,
    # frozen from the dense conjugation oracle exp(i a Z/2) X exp(-i a Z/2)
    alpha = 0.81
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("X")),
                       mode=NUMERIC, alphas=[alpha])
    by_pauli = {p.to_text(): t for p, t in po.terms.items()}
    assert by_pauli["X"].coefficient == pytest.approx(math.cos(alpha))
    assert by_pauli["Y"].coefficient == pytest.approx(-math.sin(alpha))
    assert by_pauli["Y"].min_sine_count == 1


def test_rotation_kappa_zero_keeps_cos_only():
    c = Circuit(1, 0, (Rotation("Z", (0,), ParamRef.fixed(0.4)),))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("X")),
                       TruncationPolicy(kappa=0), mode=NUMERIC)
    assert [(p.to_text(), t.coefficient) for p, t in po.terms.items()] == [
        ("X", math.cos(0.4))]
    assert po.stats.truncated_sine == 1


# --- backpropagate basics ----------------------------------------------------------------


def test_empty_circuit_returns_observable():
    obs = ObservableSpec(((PauliString.from_text("ZZ"), 0.25),
                          (PauliString.from_text("XI"), -1.0)))
    po = backpropagate(Circuit(2, 0, ()), obs, mode=NUMERIC)
    assert {p.to_text(): t.coefficient for p, t in po.terms.items()} == {
        "XI": -1.0, "ZZ": 0.25}


def test_single_rz_symbolic_structure():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("X")),
                       mode=SYMBOLIC)
    terms = {p.to_text(): t for p, t in po.terms.items()}
    assert terms["X"].monomials == ((PathMonomial(((0, 1, 0),)), 1.0),)
    assert terms["Y"].monomials == ((PathMonomial(((0, 0, 1),)), -1.0),)


def test_maximally_splitting_path_count():
    # m anticommuting rotations on one qubit: survivors = sum_{i<=kappa} C(m, i)
    m = 4
    gates = tuple(Rotation("X", (0,), ParamRef.free(i)) for i in range(m))
    c = Circuit(1, m, gates)
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    po = backpropagate(c, obs, TruncationPolicy(kappa=1), mode=SYMBOLIC)
    assert po.stats.monomials_final == 5
    stats = path_stats(po)
    assert stats["bound_binomial_per_pauli"] == 5


def test_path_stats_arithmetic():
    gates = tuple(Rotation("X", (0,), ParamRef.free(i)) for i in range(10))
    c = Circuit(1, 10, gates)
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Z")),
                       TruncationPolicy(kappa=2), mode=SYMBOLIC)
    stats = path_stats(po)
    assert stats["bound_binomial_per_pauli"] == 56
    assert stats["bound_exp_per_pauli"] == pytest.approx((math.e * 10 / 2) ** 2)
    assert stats["bound_exp_per_pauli"] == pytest.approx(184.8, abs=0.2)


def test_clifford_only_kappa_zero():
    from paulipatch import CliffordGate

    c = Circuit(2, 0, (CliffordGate("h", (0,)), CliffordGate("cnot", (0, 1))))
    obs = ObservableSpec(((PauliString.from_text("ZI"), 1.0),
                          (PauliString.from_text("IX"), 0.5)))
    po = backpropagate(c, obs, TruncationPolicy(kappa=0), mode=NUMERIC)
    assert po.stats.terms_final == obs.n_paulis
    assert path_stats(po)["bound_binomial_per_pauli"] == 1


# --- oracle equivalence and invariants ------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_untruncated_numeric_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    c = random_mixed_circuit(rng, n=n, n_rot=int(rng.integers(3, 10)),
                             shared=bool(seed % 3 == 0))
    obs = random_observable(rng, n, terms=2)
    alphas = rng.uniform(-np.pi, np.pi, size=(5, c.m))
    exact = exact_expectation_batch(c, alphas, obs, AllZero(n))
    for row, expected in zip(alphas, exact):
        po = backpropagate(c, obs, mode=NUMERIC, alphas=row)
        assert po.expectation(AllZero(n)) == pytest.approx(
            expected, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_norm_conserved_without_truncation(seed):
    rng = np.random.default_rng(100 + seed)
    n = 5
    c = random_mixed_circuit(rng, n=n, n_rot=8)
    obs = random_observable(rng, n, terms=2)
    alphas = rng.uniform(-np.pi, np.pi, size=c.m)
    full = backpropagate(c, obs, mode=NUMERIC, alphas=alphas)
    target = sum(coeff**2 for _, coeff in obs.terms)
    assert full.norm2_sq() == pytest.approx(target, abs=1e-10)


def test_patch_mean_norm_monotone_in_kappa():
    """Averaged over the patch, truncation only removes coefficient mass.

    Pointwise at a single alpha, interference between kept and cut paths can
    push sum(c_P^2) above sum(a_P^2); the monotone statement is the
    patch-averaged one, which path orthogonality makes exact for
    free-parameter circuits.
    """
    from paulipatch import pauli_mean_squares

    rng = np.random.default_rng(31)
    c = random_mixed_circuit(rng, n=4, n_rot=9)
    obs = random_observable(rng, 4, terms=2)
    target = sum(coeff**2 for _, coeff in obs.terms)
    means = []
    for kappa in (0, 1, 2, 3, None):
        po = backpropagate(c, obs, TruncationPolicy(kappa=kappa), mode=SYMBOLIC)
        squares = pauli_mean_squares(po, 0.3)
        means.append(sum(squares.values()))
    for a, b in zip(means, means[1:]):
        assert a <= b + 1e-12
    assert means[-1] <= target + 1e-10


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("policy", [TruncationPolicy(), TruncationPolicy(max_weight=2)])
def test_symbolic_matches_numeric_exactly_without_sine_cut(seed, policy):
    # weight cuts are merge-invariant, so agreement is exact without a kappa
    rng = np.random.default_rng(200 + seed)
    n = 4
    c = random_mixed_circuit(rng, n=n, n_rot=8, shared=bool(seed % 2))
    obs = random_observable(rng, n, terms=2)
    sym = backpropagate(c, obs, policy, mode=SYMBOLIC)
    for _ in range(5):
        alphas = rng.uniform(-0.4, 0.4, size=c.m)
        num = backpropagate(c, obs, policy, mode=NUMERIC, alphas=alphas)
        cs = sym.coefficients_at(alphas)
        cn = num.coefficients_at()
        for key in set(cs) | set(cn):
            assert cs.get(key, 0.0) == pytest.approx(cn.get(key, 0.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_symbolic_matches_numeric_at_truncation_scale(seed):
    # a numeric term's sine cut uses the min count of its merged paths, so the
    # engines may differ, but only by paths the per-path rule would cut: the
    # gap is bounded by the truncated tail sum_{i>kappa} C(m,i) r^i
    rng = np.random.default_rng(300 + seed)
    n = 4
    kappa, r = 3, 0.05
    c = random_mixed_circuit(rng, n=n, n_rot=10)
    obs = random_observable(rng, n, terms=2)
    m = len(c.rotations)
    tail = obs.norm1 * sum(math.comb(m, i) * r**i for i in range(kappa + 1, m + 1))
    policy = TruncationPolicy(kappa=kappa)
    sym = backpropagate(c, obs, policy, mode=SYMBOLIC)
    for _ in range(5):
        alphas = rng.uniform(-r, r, size=c.m)
        num = backpropagate(c, obs, policy, mode=NUMERIC, alphas=alphas)
        cs = sym.coefficients_at(alphas)
        cn = num.coefficients_at()
        for key in set(cs) | set(cn):
            gap = abs(cs.get(key, 0.0) - cn.get(key, 0.0))
            assert gap <= tail + 1e-12


def test_path_orthogonality_monte_carlo():
    """Distinct monomials from one initial Pauli are uncorrelated over the patch."""
    rng = np.random.default_rng(7)
    c = random_mixed_circuit(rng, n=4, n_rot=7)
    obs = ObservableSpec.single(PauliString.from_letters("Z", [0], 4))
    po = backpropagate(c, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
    monos = [m for t in po.terms.values() for m, _ in t.monomials]
    pairs = [(a, b) for i, a in enumerate(monos) for b in monos[i + 1:]
             if a != b][:40]
    assert pairs
    r = 0.4
    draws = rng.uniform(-r, r, size=(4000, c.m))
    cos_v, sin_v = np.cos(draws), np.sin(draws)

    def mono_values(mono):
        out = np.ones(len(draws))
        for param, cos_e, sin_e in mono.factors:
            out *= cos_v[:, param] ** cos_e * sin_v[:, param] ** sin_e
        return out

    for a, b in pairs:
        values = mono_values(a) * mono_values(b)
        stderr = values.std() / math.sqrt(len(values))
        assert abs(values.mean()) <= 4 * max(stderr, 1e-15)


def test_truncation_error_shrinks_with_kappa():
    rng = np.random.default_rng(11)
    n = 5
    c = random_mixed_circuit(rng, n=n, n_rot=12)
    obs = random_observable(rng, n, terms=1)
    r = 0.15
    alphas = rng.uniform(-r, r, size=(100, c.m))
    exact = exact_expectation_batch(c, alphas, obs, AllZero(n))
    mean_errors = []
    for kappa in (0, 1, 2, 3):
        po = backpropagate(c, obs, TruncationPolicy(kappa=kappa), mode=SYMBOLIC)
        from paulipatch import SurrogateEvaluator

        ev = SurrogateEvaluator(po, AllZero(n))
        approx = ev.values(alphas)
        mean_errors.append(np.abs(approx - exact).mean())
    tolerance = 1e-3
    for a, b in zip(mean_errors, mean_errors[1:]):
        assert b <= a + tolerance


# --- policy behavior --------------------------------------------------------------------------


def test_path_cap_overflow_carries_stats():
    gates = tuple(Rotation("X", (0,), ParamRef.free(i)) for i in range(6))
    c = Circuit(1, 6, gates)
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    with pytest.raises(PolicyOverflowError) as err:
        backpropagate(c, obs, TruncationPolicy(path_cap=1), mode=SYMBOLIC)
    assert err.value.stats is not None
    assert err.value.stats.truncated_cap == 1
    with pytest.raises(PolicyOverflowError):
        backpropagate(c, obs, TruncationPolicy(path_cap=1), mode=NUMERIC,
                      alphas=np.full(6, 0.5))


def test_coeff_floor_rejected_in_symbolic_mode():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    with pytest.raises(ConfigError):
        backpropagate(c, obs, TruncationPolicy(coeff_floor=0.1), mode=SYMBOLIC)


def test_coeff_floor_prunes_and_counts():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    po = backpropagate(c, obs, TruncationPolicy(coeff_floor=0.2), mode=NUMERIC,
                       alphas=[0.1])  # sin(0.1) ~ 0.0998 < 0.2 < cos(0.1)
    assert [p.to_text() for p in po.terms] == ["X"]
    assert po.stats.truncated_coeff == 1


def test_symbolic_mode_rejects_alphas():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    with pytest.raises(ConfigError):
        backpropagate(c, obs, mode=SYMBOLIC, alphas=[0.1])


@pytest.mark.parametrize("field,value", [
    ("kappa", math.nan), ("kappa", True), ("kappa", 1.5), ("kappa", 2.0), ("kappa", "2"),
    ("max_weight", 2.5), ("max_weight", False), ("max_weight", math.inf),
    ("path_cap", math.inf), ("path_cap", True), ("path_cap", 10.0),
    ("coeff_floor", math.nan), ("coeff_floor", math.inf),
])
def test_policy_refuses_values_that_disable_a_cut(field, value):
    with pytest.raises(ValidationError):
        TruncationPolicy(**{field: value})


def test_policy_stores_numpy_integer_cuts_as_ints():
    policy = TruncationPolicy(kappa=np.int64(3), max_weight=np.uint8(2), path_cap=np.int32(9))
    assert policy == TruncationPolicy(kappa=3, max_weight=2, path_cap=9)
    assert all(type(v) is int for v in (policy.kappa, policy.max_weight, policy.path_cap))
    json.dumps(asdict(policy))


def test_restriction_refuses_a_kappa_that_is_not_an_integer():
    c = Circuit(1, 2, (Rotation("Z", (0,), ParamRef.free(0)),
                       Rotation("X", (0,), ParamRef.free(1))))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Y")), mode=SYMBOLIC)
    for kappa in (1.5, math.nan, True):
        with pytest.raises(ValidationError):
            restrict_sine_order(po, kappa)
    assert restrict_sine_order(po, np.int64(1)).policy.kappa == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_numeric_mode_refuses_non_finite_parameters(bad):
    c = Circuit(1, 2, (Rotation("Z", (0,), ParamRef.free(0)),
                       Rotation("X", (0,), ParamRef.free(1))))
    obs = ObservableSpec.single(PauliString.from_text("Y"))
    with pytest.raises(ValidationError):
        backpropagate(c, obs, mode=NUMERIC, alphas=[0.1, bad])
    with pytest.raises(DimensionError):
        backpropagate(c, obs, mode=NUMERIC, alphas=[bad])


def test_fixed_angles_do_not_consume_monomial_slots():
    c = Circuit(1, 1, (Rotation("X", (0,), ParamRef.fixed(0.3)),
                       Rotation("Z", (0,), ParamRef.free(0))))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    po = backpropagate(c, obs, mode=SYMBOLIC)
    for term in po.terms.values():
        for mono, _ in term.monomials:
            assert all(param == 0 for param, _, _ in mono.factors)
    # only the free parameter's sines count toward kappa: kappa=0 cuts Z's sine child Y
    po0 = backpropagate(c, obs, TruncationPolicy(kappa=0), mode=SYMBOLIC)
    assert all(t.min_sine_count == 0 for t in po0.terms.values())


def test_fixed_sine_counts_gate_kappa():
    # Z -> sine branch through fixed Rx carries one sine; kappa=0 kills it
    c = Circuit(1, 0, (Rotation("X", (0,), ParamRef.fixed(0.4)),))
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    po = backpropagate(c, obs, TruncationPolicy(kappa=0), mode=NUMERIC, alphas=[])
    assert [p.to_text() for p in po.terms] == ["Z"]
    assert po.stats.truncated_sine == 1
    full = backpropagate(c, obs, mode=NUMERIC, alphas=[])
    assert {p.to_text() for p in full.terms} == {"Y", "Z"}


def test_min_sine_count_keeps_minimum_on_merge():
    # two routes to the same Pauli with different sine counts: min is stored
    c = Circuit(1, 0, (Rotation("X", (0,), ParamRef.fixed(0.5)),
                       Rotation("X", (0,), ParamRef.fixed(-0.2))))
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    po = backpropagate(c, obs, mode=NUMERIC, alphas=[])
    z_term = po.terms[PauliString.from_text("Z")]
    assert z_term.min_sine_count == 0  # cos*cos route dominates sin*sin route


# --- golden output ---------------------------------------------------------------------------
# Exact output of both engines on one small circuit with 1- and 2-qubit Cliffords, a seq
# gate and fixed and free rotations. A change to the engines' arithmetic or summation
# order shows here as a changed float.


def _golden_circuit() -> Circuit:
    return Circuit(3, 4, (
        CliffordGate("h", (0,)),
        Rotation("ZZ", (0, 1), ParamRef.free(0)),
        CliffordGate("cnot", (1, 2)),
        Rotation("X", (2,), ParamRef.fixed(0.37)),
        Rotation("X", (2,), ParamRef.fixed(-0.52)),  # merges with the gate above
        CliffordGate("seq", (0, 1, 2), (CliffordGate("s", (0,)), CliffordGate("cz", (0, 2)),
                                        CliffordGate("h", (1,)))),
        Rotation("Y", (1,), ParamRef.free(1)),
        Rotation("XZ", (0, 2), ParamRef.free(2)),
        CliffordGate("sdg", (2,)),
        Rotation("Z", (0,), ParamRef.fixed(-0.21)),
        CliffordGate("swap", (0, 1)),
        Rotation("X", (1,), ParamRef.free(3)),
    ))


_GOLDEN_ALPHAS = [0.1501145599256004, 0.47665656116349064, 0.33082282829423215,
                  -0.32975137201128973]  # np.random.default_rng(7).uniform(-0.6, 0.6, 4)

_GOLDEN = {
    (NUMERIC, None): [
        ("IXY", -0.009461124396319603, 3),
        ("IXZ", -0.0014299090987144186, 4),
        ("IYX", -0.08323348731384365, 1),
        ("XIY", 0.004937166149881322, 4),
        ("XIZ", -0.032667211608991, 3),
        ("XXX", 0.5502953281329798, 0),
        ("XYY", -0.06255189734569357, 2),
        ("XYZ", -0.009453794645301486, 3),
        ("XZI", -0.2873871887883957, 1),
        ("XZY", -0.12564722295648525, 1),
        ("XZZ", -0.01898972043994763, 2),
        ("YII", -0.014760955047812005, 3),
        ("YIY", 0.057915788621522676, 1),
        ("YIZ", -0.01292563107206648, 2),
        ("YYY", -0.041512379839397005, 2),
        ("YYZ", -0.0062739825791460375, 3),
        ("YZY", -0.08367030518047118, 1),
        ("YZZ", 0.0019041855766810233, 2),
        ("ZIY", -0.0018836128403087356, 2),
        ("ZIZ", 0.09591026083747049, 2),
        ("ZXX", 0.19114553134938242, 1),
        ("ZYY", 0.18420257593282438, 1),
        ("ZYZ", 0.027839496480507077, 2),
        ("ZZI", -0.09759154474644784, 2),
        ("ZZY", 0.3612455353968091, 0),
        ("ZZZ", 0.05787588511902353, 1),
    ],
    (NUMERIC, 2): [
        ("IYX", -0.08323348731384365, 1),
        ("XXX", 0.5502953281329798, 0),
        ("XYY", -0.051184963688013674, 2),
        ("XZI", -0.2873871887883957, 1),
        ("XZY", -0.10281460383184077, 1),
        ("XZZ", -0.01898972043994763, 2),
        ("YIY", 0.054712534811251774, 1),
        ("YIZ", 0.008268990879220598, 2),
        ("YYY", -0.03396874826897398, 2),
        ("YZY", -0.06670654004296647, 1),
        ("YZZ", -0.01232060913256962, 2),
        ("ZIY", 0.010089524062023203, 2),
        ("ZIZ", 0.07695656141522396, 2),
        ("ZXX", 0.19114553134938242, 1),
        ("ZYY", 0.15072927537679723, 1),
        ("ZYZ", 0.027839496480507077, 2),
        ("ZZI", -0.09759154474644784, 2),
        ("ZZY", 0.36173003521308916, 0),
        ("ZZZ", 0.05467014775016499, 1),
    ],
    (SYMBOLIC, None): [
        ("IXY", ((((0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.6769340772645986),)),
        ("IXZ", ((((0, 0, 1), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.1023085793784759),)),
        ("IYX", ((((0, 0, 1), (1, 1, 0), (2, 1, 0), (3, 1, 0)), -0.7),)),
        ("XIY", ((((1, 0, 1), (2, 0, 1), (3, 0, 1)), -0.1023085793784759),)),
        ("XIZ", ((((1, 0, 1), (2, 0, 1), (3, 0, 1)), 0.6769340772645986),)),
        ("XXX", ((((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)), 0.7),)),
        ("XYY", ((((0, 1, 0), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.6769340772645986),)),
        ("XYZ", ((((0, 1, 0), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.1023085793784759),)),
        ("XZI", ((((1, 0, 1), (2, 1, 0), (3, 1, 0)), -0.7),)),
        ("XZY", ((((2, 0, 1),), -0.38681947272262784),)),
        ("XZZ", ((((2, 0, 1),), -0.058462045359129106),)),
        ("YII", ((((0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 0)), -0.7),)),
        ("YIY", (
            (((0, 0, 1), (2, 1, 0)), 0.38681947272262784),
            (((0, 1, 0), (1, 0, 1), (3, 0, 1)), -0.02180630069004425),
        )),
        ("YIZ", (
            (((0, 0, 1), (2, 1, 0)), 0.058462045359129106),
            (((0, 1, 0), (1, 0, 1), (3, 0, 1)), 0.1442833839140871),
        )),
        ("YYY", ((((1, 1, 0), (3, 0, 1)), 0.1442833839140871),)),
        ("YYZ", ((((1, 1, 0), (3, 0, 1)), 0.02180630069004425),)),
        ("YZY", (
            (((0, 0, 1), (1, 0, 1), (2, 1, 0), (3, 0, 1)), 0.1023085793784759),
            (((0, 1, 0),), -0.08244764795090692),
        )),
        ("YZZ", (
            (((0, 0, 1), (1, 0, 1), (2, 1, 0), (3, 0, 1)), -0.6769340772645986),
            (((0, 1, 0),), -0.012460743251453864),
        )),
        ("ZIY", (
            (((0, 0, 1),), 0.08244764795090692),
            (((0, 1, 0), (1, 0, 1), (2, 1, 0), (3, 0, 1)), 0.1023085793784759),
        )),
        ("ZIZ", (
            (((0, 0, 1),), 0.012460743251453864),
            (((0, 1, 0), (1, 0, 1), (2, 1, 0), (3, 0, 1)), -0.6769340772645986),
        )),
        ("ZXX", ((((1, 1, 0), (2, 0, 1), (3, 1, 0)), 0.7),)),
        ("ZYY", ((((1, 1, 0), (2, 1, 0), (3, 0, 1)), -0.6769340772645986),)),
        ("ZYZ", ((((1, 1, 0), (2, 1, 0), (3, 0, 1)), -0.1023085793784759),)),
        ("ZZI", ((((0, 1, 0), (1, 0, 1), (2, 0, 1), (3, 1, 0)), -0.7),)),
        ("ZZY", (
            (((0, 0, 1), (1, 0, 1), (3, 0, 1)), 0.02180630069004425),
            (((0, 1, 0), (2, 1, 0)), 0.38681947272262784),
        )),
        ("ZZZ", (
            (((0, 0, 1), (1, 0, 1), (3, 0, 1)), -0.1442833839140871),
            (((0, 1, 0), (2, 1, 0)), 0.058462045359129106),
        )),
    ],
    (SYMBOLIC, 2): [
        ("IYX", ((((0, 0, 1), (1, 1, 0), (2, 1, 0), (3, 1, 0)), -0.7),)),
        ("XXX", ((((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)), 0.7),)),
        ("XYY", ((((0, 1, 0), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.6769340772645986),)),
        ("XYZ", ((((0, 1, 0), (1, 1, 0), (2, 0, 1), (3, 0, 1)), 0.1023085793784759),)),
        ("XZI", ((((1, 0, 1), (2, 1, 0), (3, 1, 0)), -0.7),)),
        ("XZY", ((((2, 0, 1),), -0.38681947272262784),)),
        ("XZZ", ((((2, 0, 1),), -0.058462045359129106),)),
        ("YIY", (
            (((0, 0, 1), (2, 1, 0)), 0.38681947272262784),
            (((0, 1, 0), (1, 0, 1), (3, 0, 1)), -0.02180630069004425),
        )),
        ("YIZ", (
            (((0, 0, 1), (2, 1, 0)), 0.058462045359129106),
            (((0, 1, 0), (1, 0, 1), (3, 0, 1)), 0.1442833839140871),
        )),
        ("YYY", ((((1, 1, 0), (3, 0, 1)), 0.1442833839140871),)),
        ("YYZ", ((((1, 1, 0), (3, 0, 1)), 0.02180630069004425),)),
        ("YZY", ((((0, 1, 0),), -0.08244764795090692),)),
        ("YZZ", ((((0, 1, 0),), -0.012460743251453864),)),
        ("ZIY", (
            (((0, 0, 1),), 0.08244764795090692),
            (((0, 1, 0), (1, 0, 1), (2, 1, 0), (3, 0, 1)), 0.1023085793784759),
        )),
        ("ZIZ", (
            (((0, 0, 1),), 0.012460743251453864),
            (((0, 1, 0), (1, 0, 1), (2, 1, 0), (3, 0, 1)), -0.6769340772645986),
        )),
        ("ZXX", ((((1, 1, 0), (2, 0, 1), (3, 1, 0)), 0.7),)),
        ("ZYY", ((((1, 1, 0), (2, 1, 0), (3, 0, 1)), -0.6769340772645986),)),
        ("ZYZ", ((((1, 1, 0), (2, 1, 0), (3, 0, 1)), -0.1023085793784759),)),
        ("ZZI", ((((0, 1, 0), (1, 0, 1), (2, 0, 1), (3, 1, 0)), -0.7),)),
        ("ZZY", ((((0, 1, 0), (2, 1, 0)), 0.38681947272262784),)),
        ("ZZZ", ((((0, 1, 0), (2, 1, 0)), 0.058462045359129106),)),
    ],
}


def test_backpropagate_golden_output():
    c = _golden_circuit()
    obs = ObservableSpec(((PauliString.from_text("ZZI"), 0.7),
                          (PauliString.from_text("IXY"), -0.4)))
    for kappa in (None, 2):
        policy = TruncationPolicy(kappa=kappa)
        po = backpropagate(c, obs, policy, mode=NUMERIC, alphas=_GOLDEN_ALPHAS)
        assert [(p.to_text(), t.coefficient, t.min_sine_count)
                for p, t in po.terms.items()] == _GOLDEN[(NUMERIC, kappa)]
        po = backpropagate(c, obs, policy, mode=SYMBOLIC)
        assert [(p.to_text(), tuple((m.factors, w) for m, w in t.monomials))
                for p, t in po.terms.items()] == _GOLDEN[(SYMBOLIC, kappa)]


# --- reference: the full-frontier merge ------------------------------------------------------
# The numeric engine's earlier rotation step: after every rotation that keeps a sine child it
# lexsorted and merged the whole frontier, and the output was ordered by a Python tuple key.
# The engine must reproduce it bit for bit.


def _popcount(arr):
    return np.bitwise_count(arr).sum(axis=1, dtype=np.int64)


class _FullMergeFrontier(_NumericFrontier):
    def apply_rotation(self, gen, theta, policy, stats):
        gxw, gzw = _masks_to_words([gen.x, gen.z], gen.n)
        anti = (_popcount((self.xw & gzw) ^ (self.zw & gxw)) & 1).astype(bool)
        n_anti = int(anti.sum())
        if n_anti == 0:
            return
        stats.paths_expanded += n_anti
        cos_f, sin_f = math.cos(theta), math.sin(theta)
        ax, az = self.xw[anti], self.zw[anti]
        sx, sz = ax ^ gxw, az ^ gzw
        new_sines = self.sines[anti] + 1
        exponent = (
            int((gen.x & gen.z).bit_count())
            + _popcount(ax & az)
            - _popcount(sx & sz)
            + 2 * _popcount(gzw & ax)
        ) % 4
        sign = np.where(exponent == 3, 1.0, -1.0)
        sin_coeff = self.coeff[anti] * sin_f * sign
        keep = np.ones(n_anti, dtype=bool)
        if policy.kappa is not None:
            over = new_sines > policy.kappa
            stats.truncated_sine += int(over.sum())
            keep &= ~over
        if policy.max_weight is not None:
            over = keep & (_popcount(sx | sz) > policy.max_weight)
            stats.truncated_weight += int(over.sum())
            keep &= ~over
        if policy.coeff_floor > 0.0:
            below = keep & (np.abs(sin_coeff) < policy.coeff_floor)
            stats.truncated_coeff += int(below.sum())
            keep &= ~below
        self.coeff[anti] *= cos_f
        keep_rows = np.ones(len(self), dtype=bool)
        if policy.coeff_floor > 0.0:
            drop = anti & (np.abs(self.coeff) < policy.coeff_floor)
            stats.truncated_coeff += int(drop.sum())
            keep_rows = ~drop
        self.xw = np.concatenate([self.xw[keep_rows], sx[keep]])
        self.zw = np.concatenate([self.zw[keep_rows], sz[keep]])
        self.coeff = np.concatenate([self.coeff[keep_rows], sin_coeff[keep]])
        self.sines = np.concatenate([self.sines[keep_rows], new_sines[keep]])
        if keep.any() and len(self) > 1:
            n_words = self.xw.shape[1]
            keys = [self.zw[:, w] for w in range(n_words - 1, -1, -1)]
            keys += [self.xw[:, w] for w in range(n_words - 1, -1, -1)]
            order = np.lexsort(keys)
            xw, zw = self.xw[order], self.zw[order]
            coeff, sines = self.coeff[order], self.sines[order]
            boundary = np.ones(len(coeff), dtype=bool)
            boundary[1:] = (np.any(xw[1:] != xw[:-1], axis=1)
                            | np.any(zw[1:] != zw[:-1], axis=1))
            starts = np.flatnonzero(boundary)
            coeff = np.add.reduceat(coeff, starts)
            sines = np.minimum.reduceat(sines, starts)
            nonzero = coeff != 0.0
            self.xw, self.zw = xw[starts][nonzero], zw[starts][nonzero]
            self.coeff, self.sines = coeff[nonzero], sines[nonzero]


def _words_to_mask(row):
    out = 0
    for w, val in enumerate(row):
        out |= int(val) << (64 * w)
    return out


def _full_merge_reference(circuit, obs, policy, alphas):
    stats = PropagationStats()
    frontier = _FullMergeFrontier(circuit.n, obs.terms)
    for gate in reversed(circuit.gates):
        if isinstance(gate, CliffordGate):
            frontier.apply_clifford(gate)
        else:
            theta = gate.param.value if gate.param.is_fixed else float(alphas[gate.param.index])
            frontier.apply_rotation(gate.generator(circuit.n), theta, policy, stats)
    rows = {
        (_words_to_mask(xw), _words_to_mask(zw)): (float(coeff), int(sines))
        for xw, zw, coeff, sines in zip(frontier.xw, frontier.zw, frontier.coeff,
                                        frontier.sines)
        if coeff != 0.0
    }
    rank = (0, 1, 3, 2)  # I < X < Y < Z, indexed by x_bit + 2 * z_bit

    def text_key(key):
        x, z = key
        return tuple(rank[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(circuit.n))

    ordered = [(PauliString(circuit.n, x, z).to_text(), *rows[(x, z)])
               for x, z in sorted(rows, key=text_key)]
    stats.terms_final = stats.monomials_final = len(ordered)
    return ordered, stats.as_dict()


def _shifted(circuit, offset, first_param):
    """``circuit``'s gates moved onto qubits ``offset + q``, params renumbered from ``first_param``."""
    gates = []
    for gate in circuit.gates:
        qubits = tuple(offset + q for q in gate.qubits)
        if isinstance(gate, CliffordGate):
            gates.append(CliffordGate(gate.kind, qubits))
        else:
            gates.append(Rotation(gate.letters, qubits,
                                  ParamRef.free(first_param + gate.param.index)))
    return gates


def _two_word_case(seed):
    # a dense 8-qubit block on qubits 58-65 inside a sparse 70-qubit circuit, with ZZ, XY
    # and YX generators on (63, 64), which straddle the boundary of the two 64-bit words
    rng = np.random.default_rng(seed)
    sparse = random_mixed_circuit(rng, n=70, n_rot=10)
    block = random_mixed_circuit(rng, n=8, n_rot=14)
    m = sparse.m
    gates = list(sparse.gates[:6])
    for letters in ("ZZ", "XY", "YX"):
        gates += _shifted(block, 58, m)[:7]
        gates.append(Rotation(letters, (63, 64), ParamRef.free(m + block.m)))
        gates += _shifted(block, 58, m)[7:]
        m += block.m + 1
    gates += sparse.gates[6:]
    c = Circuit(70, m, tuple(gates))
    obs = ObservableSpec(((PauliString.from_letters("XZY", (62, 63, 64), 70), 0.8),
                          (PauliString.from_letters("YX", (60, 65), 70), -0.5),
                          *random_observable(rng, 70, terms=1).terms))
    return c, obs, rng


def _one_word_case(seed):
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng, n=5, n_rot=14)
    return c, random_observable(rng, 5, terms=3), rng


def _clifford_widening_case(seed):
    # Back-propagation meets the two CNOTs first. They carry the observable, which acts on
    # qubit 0 alone, onto qubits 1 and 2, where no row acted before, and the next rotations
    # act there; the X rotation on qubit 4 still misses every row. A random circuit follows.
    rng = np.random.default_rng(seed)
    block = random_mixed_circuit(rng, n=5, n_rot=8)
    m = block.m
    gates = (*block.gates,
             Rotation("X", (4,), ParamRef.free(m)),
             Rotation("ZZ", (1, 2), ParamRef.free(m + 1)),
             Rotation("Y", (1,), ParamRef.free(m + 2)),
             Rotation("Z", (2,), ParamRef.free(m + 3)),
             CliffordGate("cnot", (1, 2)),
             CliffordGate("cnot", (0, 1)))
    obs = ObservableSpec(((PauliString.from_letters("X", (0,), 5), 0.9),
                          (PauliString.from_letters("Y", (0,), 5), -0.4)))
    return Circuit(5, m + 4, gates), obs, rng


@pytest.mark.parametrize("case", [(_one_word_case, 41), (_one_word_case, 42),
                                  (_two_word_case, 43), (_clifford_widening_case, 45)],
                         ids=["n5-a", "n5-b", "n70", "clifford-widens"])
@pytest.mark.parametrize("policy", [
    TruncationPolicy(),
    TruncationPolicy(kappa=3),
    TruncationPolicy(max_weight=3),
    TruncationPolicy(coeff_floor=0.02),
    TruncationPolicy(kappa=4, max_weight=4, coeff_floor=1e-3),
], ids=["exact", "kappa", "max_weight", "coeff_floor", "combined"])
def test_numeric_matches_full_merge_reference(case, policy):
    make, seed = case
    c, obs, rng = make(seed)
    for _ in range(3):
        alphas = rng.uniform(-1.2, 1.2, size=c.m)
        alphas[rng.random(c.m) < 0.3] = 0.0  # sine children with zero coefficients
        po = backpropagate(c, obs, policy, mode=NUMERIC, alphas=alphas)
        ordered, stats = _full_merge_reference(c, obs, policy, alphas)
        assert [(p.to_text(), t.coefficient, t.min_sine_count)
                for p, t in po.terms.items()] == ordered
        assert po.stats.as_dict() == stats


def test_heavyhex_matches_full_merge_reference():
    # The 127-qubit heavy-hex Kibble-Zurek ramp at 6 layers: most rotations act where no
    # row does, and the observed pair's neighbour edge (63, 64) straddles two 64-bit words.
    circuit = build_tfi_trotter(heavyhex127(), layers=6, dt=0.18,
                                ramp=RampSpec("linear", 1.08), binding="fixed")
    obs = ObservableSpec.single(PauliString.from_sparse("Z62 Z63", 127))
    policy = TruncationPolicy(kappa=21, max_weight=5)
    po = backpropagate(circuit, obs, policy, mode=NUMERIC)
    ordered, stats = _full_merge_reference(circuit, obs, policy, [])
    assert len(ordered) == 10_817
    assert [(p.to_text(), t.coefficient, t.min_sine_count)
            for p, t in po.terms.items()] == ordered
    assert po.stats.as_dict() == stats


def test_merge_drops_zero_rows_that_skip_it():
    # Z0 starts at 1e-300; two XXXXX rotations at pi/2 (sine children cut by the weight
    # limit, so no merge runs) shrink it by cos(pi/2) ~ 6e-17 twice, to an exact zero. The
    # Z1 rotation then keeps a child of X1, and its merge drops the zero Z0 row although
    # Z0 commutes with Z1; so the last rotation, Y0, finds no Z0 row to expand.
    c = Circuit(5, 0, (
        Rotation("Y", (0,), ParamRef.fixed(0.3)),
        Rotation("Z", (1,), ParamRef.fixed(0.3)),
        Rotation("XXXXX", (0, 1, 2, 3, 4), ParamRef.fixed(math.pi / 2)),
        Rotation("XXXXX", (0, 1, 2, 3, 4), ParamRef.fixed(math.pi / 2)),
    ))
    obs = ObservableSpec(((PauliString.from_letters("Z", (0,), 5), 1e-300),
                          (PauliString.from_letters("X", (1,), 5), 1.0)))
    policy = TruncationPolicy(max_weight=3)
    po = backpropagate(c, obs, policy, mode=NUMERIC, alphas=[])
    ordered, stats = _full_merge_reference(c, obs, policy, [])
    assert [(p.to_text(), t.coefficient, t.min_sine_count)
            for p, t in po.terms.items()] == ordered
    assert po.stats.as_dict() == stats
    assert stats["paths_expanded"] == 3  # Z0 twice, X1 once


# --- reference: the dict-based symbolic engine -----------------------------------------------
# Symbolic mode once ran on its own engine: a dict from Pauli to a dict from monomial to
# [weight, minimum sine count]. Only a free or shared parameter's sine raises the count, so it
# is the monomial's sine order. The array engine must reproduce it bit for bit.


def _ref_raised(mono, param, which):
    out, placed = [], False
    for p, c, s in mono:
        if p == param:
            out.append((p, c + 1, s) if which == "cos" else (p, c, s + 1))
            placed = True
        else:
            out.append((p, c, s))
    if not placed:
        out.append((param, 1, 0) if which == "cos" else (param, 0, 1))
        out.sort()
    return tuple(out)


def _ref_insert(frontier, key, mono, weight, sines):
    monos = frontier.setdefault(key, {})
    entry = monos.get(mono)
    if entry is None:
        monos[mono] = [weight, sines]
        return
    entry[0] += weight
    entry[1] = min(entry[1], sines)
    if entry[0] == 0.0:
        del monos[mono]
        if not monos:
            del frontier[key]


def _ref_overflow(frontier, policy, stats):
    size = sum(len(monos) for monos in frontier.values())
    if policy.path_cap is not None and size > policy.path_cap:
        stats.truncated_cap += 1
        stats.terms_final = len(frontier)
        stats.monomials_final = size
        return True
    return False


def _dict_engine_reference(circuit, obs, policy):
    """Ordered (Pauli text, monomials, min sine count) list and stats; ``None`` on overflow."""
    from paulipatch.pauli import conjugate_masks, phase_exponent

    kappa = math.inf if policy.kappa is None else policy.kappa
    max_w = math.inf if policy.max_weight is None else policy.max_weight
    stats = PropagationStats()
    frontier = {}
    for p, coeff in obs.terms:
        _ref_insert(frontier, (p.x, p.z), (), float(coeff), 0)
    for gate in reversed(circuit.gates):
        new = {}
        if isinstance(gate, CliffordGate):
            for (x, z), monos in frontier.items():
                nx, nz, sign = conjugate_masks(x, z, gate)
                for mono, (w, s) in monos.items():
                    _ref_insert(new, (nx, nz), mono, w * sign, s)
        else:
            gen = gate.generator(circuit.n)
            param = gate.param
            if param.is_fixed:
                cos_f, sin_f = math.cos(param.value), math.sin(param.value)
            for (x, z), monos in frontier.items():
                if (((x & gen.z).bit_count() ^ (z & gen.x).bit_count()) & 1) == 0:
                    for mono, (w, s) in monos.items():
                        _ref_insert(new, (x, z), mono, w, s)
                    continue
                sx, sz = x ^ gen.x, z ^ gen.z
                sign = 1 if phase_exponent(gen.x, gen.z, x, z) == 3 else -1
                for mono, (w, s) in monos.items():
                    stats.paths_expanded += 1
                    if param.is_fixed:
                        _ref_insert(new, (x, z), mono, w * cos_f, s)
                    else:
                        _ref_insert(new, (x, z), _ref_raised(mono, param.index, "cos"), w, s)
                    # only a free or shared parameter's sine raises the sine count
                    if s + (not param.is_fixed) > kappa:
                        stats.truncated_sine += 1
                    elif (sx | sz).bit_count() > max_w:
                        stats.truncated_weight += 1
                    elif param.is_fixed:
                        _ref_insert(new, (sx, sz), mono, w * sin_f * sign, s)
                    else:
                        _ref_insert(new, (sx, sz), _ref_raised(mono, param.index, "sin"),
                                    w * sign, s + 1)
        frontier = new
        if _ref_overflow(frontier, policy, stats):
            return None, stats.as_dict()
    rank = (0, 1, 3, 2)  # I < X < Y < Z, indexed by x_bit + 2 * z_bit

    def text_key(key):
        x, z = key
        return tuple(rank[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(circuit.n))

    ordered = []
    for x, z in sorted(frontier, key=text_key):
        entries = sorted(item for item in frontier[(x, z)].items() if item[1][0] != 0.0)
        if entries:
            ordered.append((PauliString(circuit.n, x, z).to_text(),
                            tuple((mono, w) for mono, (w, _) in entries),
                            min(s for _, (_, s) in entries)))
    stats.terms_final = len(ordered)
    stats.monomials_final = sum(len(monos) for _, monos, _ in ordered)
    return ordered, stats.as_dict()


def _symbolic_rows(po):
    return [(p.to_text(), tuple((m.factors, w) for m, w in t.monomials), t.min_sine_count)
            for p, t in po.terms.items()]


def _assert_matches_dict_engine(circuit, obs, policy):
    ordered, stats = _dict_engine_reference(circuit, obs, policy)
    if ordered is None:
        with pytest.raises(PolicyOverflowError) as err:
            backpropagate(circuit, obs, policy, mode=SYMBOLIC)
        assert err.value.stats.as_dict() == stats
        return
    po = backpropagate(circuit, obs, policy, mode=SYMBOLIC)
    assert _symbolic_rows(po) == ordered
    assert po.stats.as_dict() == stats


def _mixed_angle_case(seed, n=4, n_rot=12):
    """Rotations bound to fixed nonzero angles, free parameters or a shared pool of two."""
    rng = np.random.default_rng(seed)
    base = random_mixed_circuit(rng, n=n, n_rot=n_rot)
    slots = {}
    gates = []
    for gate in base.gates:
        if isinstance(gate, Rotation):
            roll = int(rng.integers(3))
            if roll == 0:
                ref = ParamRef.fixed(float(rng.choice((-1, 1)) * rng.uniform(0.1, 1.4)))
            else:
                key = ("shared", int(rng.integers(2))) if roll == 1 else ("free", len(slots))
                ref = ParamRef.free(slots.setdefault(key, len(slots)))
            gate = Rotation(gate.letters, gate.qubits, ref)
        gates.append(gate)
    return Circuit(n, len(slots), tuple(gates)), random_observable(rng, n, terms=3)


_REFERENCE_POLICIES = [
    TruncationPolicy(),
    TruncationPolicy(kappa=0),
    TruncationPolicy(kappa=1),
    TruncationPolicy(kappa=3),
    TruncationPolicy(kappa=3, max_weight=2),
    TruncationPolicy(max_weight=3),
]
_POLICY_IDS = ["exact", "kappa0", "kappa1", "kappa3", "kappa3-w2", "w3"]


@pytest.mark.parametrize("policy", _REFERENCE_POLICIES, ids=_POLICY_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_symbolic_matches_dict_engine_reference(seed, policy):
    c, obs = _mixed_angle_case(500 + seed)
    _assert_matches_dict_engine(c, obs, policy)
    c, obs, _ = _clifford_widening_case(700 + seed)
    _assert_matches_dict_engine(c, obs, policy)
    rng = np.random.default_rng(600 + seed)
    for shared in (False, True):
        c = random_mixed_circuit(rng, n=4, n_rot=10, shared=shared)
        _assert_matches_dict_engine(c, random_observable(rng, 4, terms=2), policy)


@pytest.mark.parametrize("policy", [TruncationPolicy(kappa=2), TruncationPolicy(kappa=3),
                                    TruncationPolicy(kappa=4, max_weight=4)],
                         ids=["kappa2", "kappa3", "kappa4-w4"])
def test_symbolic_two_word_case_matches_dict_engine_reference(policy):
    c, obs, _ = _two_word_case(44)
    _assert_matches_dict_engine(c, obs, policy)


@pytest.mark.parametrize("cap", [1, 5, 12])
def test_symbolic_path_cap_stats_match_dict_engine_reference(cap):
    c, obs = _mixed_angle_case(77, n=3, n_rot=10)
    policy = TruncationPolicy(kappa=3, path_cap=cap)
    assert _dict_engine_reference(c, obs, policy)[0] is None  # every cap overflows
    _assert_matches_dict_engine(c, obs, policy)


def _shared300_case():
    # one parameter raises a cos exponent to 300, past what one byte holds
    gates = []
    for i in range(300):
        gates.append(Rotation("XY", (0, 1), ParamRef.shared(0)))
        if i % 50 == 0:
            gates.append(CliffordGate("s", (1,)))
    return Circuit(2, 1, tuple(gates)), ObservableSpec(((PauliString.from_text("ZI"), 0.6),
                                                        (PauliString.from_text("XY"), -0.3)))


def test_shared_parameter_driving_300_rotations():
    c, obs = _shared300_case()
    _assert_matches_dict_engine(c, obs, TruncationPolicy(kappa=0))
    po = backpropagate(c, obs, TruncationPolicy(kappa=0), mode=SYMBOLIC)
    assert max(cos_e for t in po.terms.values() for m, _ in t.monomials
               for _, cos_e, _ in m.factors) > 255


def test_symbolic_zero_weight_rows_follow_numeric_rule():
    # Back-propagating Z: the fixed X rotation at angle 0 leaves a sine child Y of weight
    # exactly 0 (sine count 0, as a fixed angle's sine does not count). Like a numeric
    # merge, the rotation's merge drops it, so it is not expanded by the free Z rotation
    # and does not lower Y's minimum sine count.
    c = Circuit(1, 2, (Rotation("Z", (0,), ParamRef.free(1)),
                       Rotation("Y", (0,), ParamRef.free(0)),
                       Rotation("X", (0,), ParamRef.fixed(0.0))))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Z")), mode=SYMBOLIC)
    assert [(p.to_text(), t.min_sine_count) for p, t in po.terms.items()] == [
        ("X", 1), ("Y", 2), ("Z", 0)]
    assert po.stats.paths_expanded == 3  # Z at X and Y, X at Z


# --- the pair join under colliding hashes ------------------------------------------------------
# A sine child finds the one row it can merge with through a 64-bit hash of its key. With the
# hash replaced by a constant, every key collides with every other, and the join must still pair
# exactly: the full-merge reference test runs again unchanged under it, and circuits of fixed,
# free and shared angles are checked against the dict-engine reference.


@pytest.fixture
def every_hash_collides(monkeypatch):
    hashed = []

    def constant(parts):
        hashed.append(parts[0].shape[0])
        return np.zeros(parts[0].shape[0], dtype=np.uint64)

    monkeypatch.setattr(propagation, "_row_hash", constant)
    yield
    assert max(hashed, default=0) >= 2  # some join saw two different keys of one hash


@pytest.mark.usefixtures("every_hash_collides")
class TestEveryHashCollides:
    test_numeric_matches_full_merge_reference = staticmethod(
        test_numeric_matches_full_merge_reference)

    @staticmethod
    @pytest.mark.parametrize("policy", [TruncationPolicy(), TruncationPolicy(kappa=1),
                                        TruncationPolicy(kappa=3, max_weight=2)],
                             ids=["exact", "kappa1", "kappa3-w2"])
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_angles_match_dict_engine_reference(seed, policy):
        # fixed angles, free parameters and a shared pool of two
        _assert_matches_dict_engine(*_mixed_angle_case(500 + seed), policy)


# --- the symbolic table -----------------------------------------------------------------------
# ``backpropagate`` builds the table from the frontier's rows. It must equal, column by column,
# the table that the earlier tuple walk built from the dict engine's (monomial, weight) lists.


def _tuple_table(ordered):
    """Table columns by the tuple walk over (Pauli text, monomials, min sine count) rows."""
    term_starts, mono_term, mono_weight, fac_starts, fac_dist = [0], [], [], [], []
    distinct = {}
    for t_idx, (_, monos, _) in enumerate(ordered):
        for factors, weight in monos:
            mono_term.append(t_idx)
            mono_weight.append(weight)
            fac_starts.append(len(fac_dist))
            for factor in factors or ((0, 0, 0),):
                fac_dist.append(distinct.setdefault(factor, len(distinct)))
        term_starts.append(len(mono_term))
    dist_param, dist_cos, dist_sin = np.array(list(distinct), dtype=np.intp).reshape(-1, 3).T
    return dict(term_starts=term_starts, mono_term=mono_term, mono_weight=mono_weight,
                fac_starts=fac_starts, fac_dist=fac_dist, dist_param=dist_param,
                dist_cos=dist_cos, dist_sin=dist_sin)


def _table_cases():
    golden_obs = ObservableSpec(((PauliString.from_text("ZZI"), 0.7),
                                 (PauliString.from_text("IXY"), -0.4)))
    # fixed angles only: m = 0 and every monomial constant
    fixed = Circuit(3, 0, (Rotation("XY", (0, 1), ParamRef.fixed(0.3)), CliffordGate("h", (2,)),
                           Rotation("Z", (1,), ParamRef.fixed(-0.7)),
                           Rotation("YZ", (1, 2), ParamRef.fixed(1.1))))
    mixed, mixed_obs = _mixed_angle_case(503)
    return [
        (_golden_circuit(), golden_obs, TruncationPolicy()),
        (_golden_circuit(), golden_obs, TruncationPolicy(kappa=2)),
        (*_shared300_case(), TruncationPolicy(kappa=0)),
        (fixed, ObservableSpec(((PauliString.from_text("ZZI"), 0.5),
                                (PauliString.from_text("IXX"), 0.25))), TruncationPolicy()),
        (mixed, mixed_obs, TruncationPolicy(kappa=3)),
    ]


def test_frontier_table_matches_tuple_walk():
    seen = {"m=0": False, "constant monomial": False, "exponent > 255": False}
    for circuit, obs, policy in _table_cases():
        ordered, _ = _dict_engine_reference(circuit, obs, policy)
        table = backpropagate(circuit, obs, policy, mode=SYMBOLIC).table
        for column, want in _tuple_table(ordered).items():
            assert np.array_equal(getattr(table, column), want), column
        seen["m=0"] |= circuit.m == 0
        seen["constant monomial"] |= any(f == () for _, monos, _ in ordered for f, _ in monos)
        seen["exponent > 255"] |= int(table.dist_cos.max(initial=0)) > 255
    assert all(seen.values()), seen


def test_table_consumers_build_no_path_monomial(tmp_path, rng, monkeypatch):
    c, obs = _mixed_angle_case(504)
    policy = TruncationPolicy(kappa=3)
    v1_doc = _v1_doc(backpropagate(c, obs, policy, mode=SYMBOLIC))  # reads the view
    built = []
    init = PathMonomial.__init__
    monkeypatch.setattr(PathMonomial, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    po = backpropagate(c, obs, policy, mode=SYMBOLIC)
    alphas = rng.uniform(-0.3, 0.3, size=(5, c.m))
    save_artifact(po, tmp_path / "v2.json.gz")
    (tmp_path / "v1.json").write_text(json.dumps(v1_doc))
    for name in ("v2.json.gz", "v1.json"):
        loaded = load_artifact(tmp_path / name)
        SurrogateEvaluator(loaded, AllZero(c.n)).values(alphas)
        restricted = restrict_sine_order(loaded, 2)
        worst_case_coeff_bounds(restricted, 0.1)
        pauli_mean_squares(restricted, 0.1)
        loaded.coefficients_at(alphas[0])
        loaded.norm2_sq(alphas[0])
    assert built == []
    assert [mono for t in po.terms.values() for mono, _ in t.monomials] == built
    assert len(built) == po.table.n_monomials > 0


# --- final counts ----------------------------------------------------------------------------


def _tfi_patch():
    """A 16-rotation Trotter circuit on a 2x2 grid, observed on Z1."""
    circuit = build_tfi_trotter(grid(2, 2), layers=2, dt=0.1, binding="free")
    return circuit, ObservableSpec.single(PauliString.from_sparse("Z1", 4))


def test_final_counts_are_read_off_the_terms(tmp_path, rng):
    circuit, obs = _tfi_patch()
    policy = TruncationPolicy(kappa=3)
    full = backpropagate(circuit, obs, policy, mode=SYMBOLIC)
    numeric = backpropagate(circuit, obs, policy, mode=NUMERIC,
                            alphas=rng.uniform(-0.1, 0.1, circuit.m))
    observables = [full, numeric, *(restrict_sine_order(full, k) for k in range(4))]
    path = tmp_path / "artifact.json"
    for po in (full, numeric, restrict_sine_order(full, 1)):
        save_artifact(po, path)
        observables.append(load_artifact(path))
        path.write_text(json.dumps(_v1_doc(po)))
        observables.append(load_artifact(path))
    for po in observables:
        surviving = len(po.terms) if po.mode == NUMERIC else po.table.n_monomials
        assert po.stats.terms_final == len(po.terms)
        assert po.stats.monomials_final == surviving
        assert path_stats(po)["paths_surviving"] == surviving


def test_restriction_keeps_the_build_counters_and_counts_its_own_survivors():
    circuit, obs = _tfi_patch()
    full = backpropagate(circuit, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
    assert (full.stats.monomials_final, full.stats.terms_final) == (9, 7)
    stats = path_stats(restrict_sine_order(full, 1))
    assert (stats["paths_surviving"], stats["terms_final"]) == (3, 2)
    for key in ("paths_expanded", "truncated_sine", "truncated_weight", "truncated_coeff",
                "truncated_cap"):
        assert stats[key] == getattr(full.stats, key)


def test_restriction_refuses_a_kappa_above_the_build():
    circuit, obs = _tfi_patch()
    full = backpropagate(circuit, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
    assert restrict_sine_order(full, 3).table.n_monomials == full.table.n_monomials
    with pytest.raises(ConfigError):
        restrict_sine_order(full, 4)
    unlimited = backpropagate(circuit, obs, mode=SYMBOLIC)
    assert restrict_sine_order(unlimited, 5).policy.kappa == 5


@pytest.mark.parametrize("seed", range(20))
def test_restriction_equals_a_fresh_build_with_fixed_angles(seed):
    # fixed angles, free parameters and a shared pool of two: only the patch parameters'
    # sines count, so cutting the monomials above k is the build at kappa=k
    c, obs = _mixed_angle_case(500 + seed)
    for max_weight in (None, 2):
        full = backpropagate(c, obs, TruncationPolicy(kappa=4, max_weight=max_weight),
                             mode=SYMBOLIC)
        for k in range(5):
            fresh = backpropagate(c, obs, TruncationPolicy(kappa=k, max_weight=max_weight),
                                  mode=SYMBOLIC)
            assert _symbolic_rows(restrict_sine_order(full, k)) == _symbolic_rows(fresh)


def _shifted_patch_probe():
    """4 fixed TFI layers on chain(8), each X rotation followed by one shared alpha on X."""
    return (patch_around_fixed_x(build_tfi_trotter(chain(8), layers=4, dt=0.25)),
            ObservableSpec.single(PauliString.from_sparse("Z3 Z4", 8)), AllPlus(8))


def test_patch_around_fixed_angles_converges_in_kappa():
    # a patch around a nonzero point: a fixed angle's sine is not small, so it must not
    # count toward kappa; the surrogate is exact at the centre and converges off it
    circuit, obs, state = _shifted_patch_probe()
    alphas = np.linspace(-0.1, 0.1, 9)[:, np.newaxis]
    exact = exact_expectation_batch(circuit, alphas, obs, state)
    errors = []
    for kappa in (1, 2, 4, 6):
        po = backpropagate(circuit, obs, TruncationPolicy(kappa=kappa), mode=SYMBOLIC)
        approx = SurrogateEvaluator(po, state).values(alphas)
        assert approx[4] == pytest.approx(exact[4], abs=1e-12)  # alpha = 0
        errors.append(float(np.max(np.abs(approx - exact))))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-12


# --- determinism ------------------------------------------------------------------------------


def test_numeric_bitwise_reproducible(rng):
    n = 4
    c = random_mixed_circuit(rng, n=n, n_rot=8)
    obs = random_observable(rng, n, terms=4)
    alphas = rng.uniform(-0.5, 0.5, size=c.m)
    first = backpropagate(c, obs, mode=NUMERIC, alphas=alphas)
    again = backpropagate(c, obs, mode=NUMERIC, alphas=alphas)
    assert list(first.terms.items()) == list(again.terms.items())


# --- artifact io -------------------------------------------------------------------------------


@pytest.mark.parametrize("suffix", ["json", "json.gz"])
def test_artifact_round_trip(tmp_path, suffix, rng):
    c = random_mixed_circuit(rng, n=3, n_rot=6)
    obs = random_observable(rng, 3, terms=2)
    po = backpropagate(c, obs, TruncationPolicy(kappa=2, max_weight=3), mode=SYMBOLIC)
    path = tmp_path / f"artifact.{suffix}"
    save_artifact(po, path)
    loaded = load_artifact(path)
    assert loaded.mode == SYMBOLIC
    assert loaded.policy == po.policy
    assert loaded.m == po.m and loaded.n_rotations == po.n_rotations
    assert list(loaded.terms) == list(po.terms)
    for p in po.terms:
        assert loaded.terms[p].monomials == po.terms[p].monomials
    alphas = rng.uniform(-0.2, 0.2, size=c.m)
    assert loaded.coefficients_at(alphas) == po.coefficients_at(alphas)


def test_numeric_artifact_round_trip(tmp_path, rng):
    c = random_mixed_circuit(rng, n=3, n_rot=5)
    po = backpropagate(c, ObservableSpec.single(PauliString.from_letters("Z", [0], 3)),
                       mode=NUMERIC, alphas=rng.uniform(-1, 1, c.m))
    path = tmp_path / "artifact.json"
    save_artifact(po, path)
    loaded = load_artifact(path)
    assert loaded.coefficients_at() == po.coefficients_at()
    # older artifacts carry a partitions key, which loading ignores
    doc = json.loads(path.read_text())
    assert "partitions" not in doc
    doc["partitions"] = 1
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert load_artifact(old).coefficients_at() == po.coefficients_at()


def test_numeric_observable_keeps_its_coefficient_column(tmp_path, rng):
    c = random_mixed_circuit(rng, n=4, n_rot=8)
    po = backpropagate(c, random_observable(rng, 4, terms=3), TruncationPolicy(kappa=3),
                       mode=NUMERIC, alphas=rng.uniform(-1, 1, c.m))
    path = tmp_path / "artifact.json"
    save_artifact(po, path)
    loaded = load_artifact(path)
    for obs in (po, loaded):
        assert obs.coeffs.dtype == np.float64
        assert obs.coeffs.tolist() == [t.coefficient for t in obs.terms.values()]
        assert "coeffs" not in repr(obs)
    assert loaded == po


def _v1_doc(po):
    """``po`` as a version-1 artifact document: one document per term."""
    terms = []
    for p, t in po.terms.items():
        doc = {"pauli": p.to_text(), "sines": t.min_sine_count}
        if t.coefficient is not None:
            doc["coeff"] = t.coefficient
        else:
            doc["monomials"] = [{"params": [list(f) for f in mono.factors], "w": w}
                                for mono, w in t.monomials]
        terms.append(doc)
    return {
        "format": ARTIFACT_FORMAT, "version": 1, "n": po.n, "mode": po.mode, "m": po.m,
        "n_rotations": po.n_rotations, "n_paulis_initial": po.n_paulis_initial,
        "policy": {"kappa": po.policy.kappa, "max_weight": po.policy.max_weight,
                   "coeff_floor": po.policy.coeff_floor, "path_cap": po.policy.path_cap},
        "stats": po.stats.as_dict(), "terms": terms,
    }


@pytest.mark.parametrize("mode", [NUMERIC, SYMBOLIC])
def test_version_1_artifact_loads_as_saved(tmp_path, rng, mode):
    c = random_mixed_circuit(rng, n=4, n_rot=10, shared=True)
    obs = random_observable(rng, 4, terms=2)
    alphas = None if mode == SYMBOLIC else rng.uniform(-1, 1, c.m)
    po = backpropagate(c, obs, TruncationPolicy(kappa=3), mode=mode, alphas=alphas)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_v1_doc(po)))
    loaded = load_artifact(path)
    assert (loaded.mode, loaded.policy, loaded.stats) == (po.mode, po.policy, po.stats)
    assert (loaded.m, loaded.n_rotations) == (po.m, po.n_rotations)
    assert list(loaded.terms.items()) == list(po.terms.items())
    if mode == SYMBOLIC:
        for column in ("term_starts", "mono_term", "mono_weight", "fac_starts", "fac_dist",
                       "dist_param", "dist_cos", "dist_sin"):
            assert np.array_equal(getattr(loaded.table, column), getattr(po.table, column))


# The malformed-file cases run on a version-1 document and again on a version-2 one.
# In the surrogate below, the last term is Z with factors [[0, 1, 0], [1, 1, 0]], and
# Y shares the second of them.


def _set_param(doc, factor, value):
    # either edit keeps Z's factors sorted
    doc["terms"][-1]["monomials"][0]["params"][factor][0] = value


def _set_exponent(doc, value):
    doc["terms"][-1]["monomials"][0]["params"][1][1] = value


def _make_numeric_term(doc):
    term = doc["terms"][0]
    del term["monomials"]
    term["coeff"] = 0.5


def _make_numeric_doc(doc, coeff=0.5, sines=0):
    doc["mode"] = NUMERIC
    for term in doc["terms"]:
        del term["monomials"]
        term["coeff"] = coeff
    doc["terms"][0]["sines"] = sines


def _z_factor_v2(doc, factor):
    """The factor_table row of Z's ``factor``-th factor in a version-2 document."""
    start = len(doc["factor_index"]) - doc["monomial_factors"][-1]
    return doc["factor_table"][doc["factor_index"][start + factor]]


def _make_numeric_doc_v2(doc, coeff=0.5, sines=0):
    doc["mode"] = NUMERIC
    for key in ("term_monomials", "weights", "monomial_factors", "factor_table",
                "factor_index"):
        del doc[key]
    doc["coeffs"] = [coeff] * len(doc["paulis"])
    doc["sines"][0] = sines


def _set_weight(doc, value):
    doc["terms"][0]["monomials"][0].update(w=value)


def _set_weight_v2(doc, value):
    doc["weights"][0] = value


def test_numeric_doc_helper_loads(tmp_path):
    c = Circuit(1, 2, (Rotation("X", (0,), ParamRef.free(0)),
                       Rotation("Y", (0,), ParamRef.free(1))))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Z")), mode=SYMBOLIC)
    path = tmp_path / "artifact.json"
    for doc, make_numeric in ((_v1_doc(po), _make_numeric_doc),
                              (_artifact_doc(po, tmp_path), _make_numeric_doc_v2)):
        make_numeric(doc)
        path.write_text(json.dumps(doc))
        loaded = load_artifact(path)
        assert loaded.mode == NUMERIC
        assert all(t.coefficient == 0.5 for t in loaded.terms.values())


def _artifact_doc(po, tmp_path):
    path = tmp_path / "saved.json"
    save_artifact(po, path)
    return json.loads(path.read_text())


# (id, version-1 corruption, version-2 corruption or None when it is the same edit)
_MALFORMED = [
    ("negative-param", lambda doc: _set_param(doc, 0, -2),
     lambda doc: _z_factor_v2(doc, 0).__setitem__(0, -2)),
    ("param-at-m", lambda doc: _set_param(doc, 1, 2),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(0, 2)),
    ("unknown-mode", lambda doc: doc.update(mode="banana"), None),
    ("symbolic-term-in-numeric", lambda doc: doc.update(mode=NUMERIC), None),
    ("numeric-term-in-symbolic", _make_numeric_term,
     lambda doc: doc.update(coeffs=[0.5] * len(doc["paulis"]))),
    ("missing-sines", lambda doc: doc["terms"][0].pop("sines"), lambda doc: doc.pop("sines")),
    ("missing-stats", lambda doc: doc.pop("stats"), None),
    ("extra-policy-key", lambda doc: doc["policy"].update(banana=1), None),
    ("extra-stats-key", lambda doc: doc["stats"].update(banana=1), None),
    ("terms-not-a-list", lambda doc: doc.update(terms=5),
     lambda doc: doc.update(term_monomials=5)),
    ("string-weight", lambda doc: _set_weight(doc, "banana"),
     lambda doc: _set_weight_v2(doc, "banana")),
    ("numeric-string-weight", lambda doc: _set_weight(doc, "0.5"),
     lambda doc: _set_weight_v2(doc, "0.5")),
    ("bool-weight", lambda doc: _set_weight(doc, True), lambda doc: _set_weight_v2(doc, True)),
    ("string-sines", lambda doc: doc["terms"][0].update(sines="x"),
     lambda doc: doc["sines"].__setitem__(0, "x")),
    ("bool-sines", lambda doc: doc["terms"][0].update(sines=True),
     lambda doc: doc["sines"].__setitem__(0, True)),
    ("float-sines", lambda doc: doc["terms"][0].update(sines=1.0),
     lambda doc: doc["sines"].__setitem__(0, 1.0)),
    ("numeric-string-coeff", lambda doc: _make_numeric_doc(doc, coeff="0.5"),
     lambda doc: _make_numeric_doc_v2(doc, coeff="0.5")),
    ("numeric-bool-coeff", lambda doc: _make_numeric_doc(doc, coeff=False),
     lambda doc: _make_numeric_doc_v2(doc, coeff=False)),
    ("numeric-string-sines", lambda doc: _make_numeric_doc(doc, sines="0"),
     lambda doc: _make_numeric_doc_v2(doc, sines="0")),
    ("duplicate-pauli", lambda doc: doc["terms"].append(doc["terms"][0]),
     lambda doc: doc["paulis"].__setitem__(1, doc["paulis"][0])),
    ("numeric-duplicate-pauli",
     lambda doc: _make_numeric_doc(doc) or doc["terms"].append(doc["terms"][0]),
     lambda doc: _make_numeric_doc_v2(doc) or doc["paulis"].__setitem__(1, doc["paulis"][0])),
    ("fractional-exponent", lambda doc: _set_exponent(doc, 1.5),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(1, 1.5)),
    ("float-exponent", lambda doc: _set_exponent(doc, 1.0),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(1, 1.0)),
    ("bool-exponent", lambda doc: _set_exponent(doc, True),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(1, True)),
    # Z's factors [[0, 0, 1], [0, 1, 0]] and [[1, 1, 0], [0, 1, 0]]
    ("repeated-param",
     lambda doc: doc["terms"][-1]["monomials"][0].update(params=[[0, 0, 1], [0, 1, 0]]),
     lambda doc: doc["factor_index"].__setitem__(slice(-2, None), [1, 3])),
    ("unsorted-params",
     lambda doc: doc["terms"][-1]["monomials"][0].update(params=[[1, 1, 0], [0, 1, 0]]),
     lambda doc: doc["factor_index"].__setitem__(slice(-2, None), [2, 3])),
    ("int-pauli", lambda doc: doc["terms"][0].update(pauli=5),
     lambda doc: doc["paulis"].__setitem__(0, 5)),
    ("float-m", lambda doc: doc.update(m=2.5), None),
    ("string-n", lambda doc: doc.update(n="1"), None),
    ("string-n-rotations", lambda doc: doc.update(n_rotations="x"), None),
    ("float-n-paulis-initial", lambda doc: doc.update(n_paulis_initial=1.0), None),
    ("string-stats-counter", lambda doc: doc["stats"].update(paths_expanded="3"), None),
    ("null-stats-counter", lambda doc: doc["stats"].update(terms_final=None), None),
    ("stats-not-an-object", lambda doc: doc.update(stats=[1, 2]), None),
    ("bool-kappa", lambda doc: doc["policy"].update(kappa=True), None),
    ("float-path-cap", lambda doc: doc["policy"].update(path_cap=2.0), None),
    ("string-coeff-floor", lambda doc: doc["policy"].update(coeff_floor="0"), None),
    ("null-coeff-floor", lambda doc: doc["policy"].update(coeff_floor=None), None),
    ("bool-version", lambda doc: doc.update(version=True), None),
    ("nan-weight", lambda doc: _set_weight(doc, math.nan),
     lambda doc: _set_weight_v2(doc, math.nan)),
    ("infinite-weight", lambda doc: _set_weight(doc, -math.inf),
     lambda doc: _set_weight_v2(doc, -math.inf)),
    ("numeric-nan-coeff", lambda doc: _make_numeric_doc(doc, coeff=math.nan),
     lambda doc: _make_numeric_doc_v2(doc, coeff=math.nan)),
    # Z's second factor [1, 1, 0] becomes [1, 0, 0] and [1, -1, 0]
    ("zero-factor", lambda doc: _set_exponent(doc, 0),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(1, 0)),
    ("negative-exponent", lambda doc: _set_exponent(doc, -1),
     lambda doc: _z_factor_v2(doc, 1).__setitem__(1, -1)),
    ("negative-sines", lambda doc: doc["terms"][0].update(sines=-1),
     lambda doc: doc["sines"].__setitem__(0, -1)),
    ("numeric-negative-m", lambda doc: _make_numeric_doc(doc) or doc.update(m=-1),
     lambda doc: _make_numeric_doc_v2(doc) or doc.update(m=-1)),
    ("negative-n-rotations", lambda doc: doc.update(n_rotations=-5), None),
    ("negative-n-paulis-initial", lambda doc: doc.update(n_paulis_initial=-2), None),
    ("negative-stats-counter", lambda doc: doc["stats"].update(paths_expanded=-7), None),
]


def _malformed_case_surrogate():
    c = Circuit(1, 2, (Rotation("X", (0,), ParamRef.free(0)),
                       Rotation("Y", (0,), ParamRef.free(1))))
    return backpropagate(c, ObservableSpec.single(PauliString.from_text("Z")), mode=SYMBOLIC)


def _assert_corrupt_document_refused(path, doc, corrupt):
    path.write_text(json.dumps(doc))
    load_artifact(path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_artifact(path)


@pytest.mark.parametrize("corrupt", [v1 for _, v1, _ in _MALFORMED],
                         ids=[case for case, _, _ in _MALFORMED])
def test_load_artifact_rejects_malformed_files(tmp_path, corrupt):
    doc = _v1_doc(_malformed_case_surrogate())
    assert doc["terms"][-1]["monomials"][0]["params"] == [[0, 1, 0], [1, 1, 0]]
    _assert_corrupt_document_refused(tmp_path / "artifact.json", doc, corrupt)


@pytest.mark.parametrize("corrupt", [v2 or v1 for _, v1, v2 in _MALFORMED],
                         ids=[case for case, _, _ in _MALFORMED])
def test_load_version_2_artifact_rejects_malformed_files(tmp_path, corrupt):
    doc = _artifact_doc(_malformed_case_surrogate(), tmp_path)
    assert doc["version"] == 2
    assert [_z_factor_v2(doc, k) for k in (0, 1)] == [[0, 1, 0], [1, 1, 0]]
    assert doc["factor_table"][1:3] == [[0, 0, 1], [1, 1, 0]]
    _assert_corrupt_document_refused(tmp_path / "artifact.json", doc, corrupt)


@pytest.mark.parametrize("document", ["[1]", "null", '"artifact"'])
def test_load_artifact_rejects_non_object_document(tmp_path, document):
    path = tmp_path / "artifact.json"
    path.write_text(document)
    with pytest.raises(ValidationError):
        load_artifact(path)


def _gzipped_artifact(tmp_path):
    c = Circuit(1, 1, (Rotation("X", (0,), ParamRef.free(0)),))
    po = backpropagate(c, ObservableSpec.single(PauliString.from_text("Z")), mode=SYMBOLIC)
    path = tmp_path / "good.json.gz"
    save_artifact(po, path)
    return path.read_bytes()


@pytest.mark.parametrize("suffix,content", [
    ("json", lambda good: b"{not json"),
    ("json", lambda good: b""),
    ("json", lambda good: b"\xff\xfe{}"),
    ("json", lambda good: '{"format": "caf\u00e9"}'.encode("latin-1")),
    ("json.gz", lambda good: good[:len(good) // 2]),
    ("json.gz", lambda good: good[:-4]),
    ("json.gz", lambda good: b"not gzip at all"),
    ("json.gz", lambda good: good[:10] + bytes(b ^ 0xFF for b in good[10:])),
    ("json.gz", lambda good: gzip.compress(b"{not json")),
], ids=["not-json", "empty", "not-utf8", "latin-1", "truncated-gz", "gz-missing-trailer",
        "not-gzip", "corrupt-gz", "gz-of-not-json"])
def test_load_artifact_rejects_unreadable_files(tmp_path, suffix, content):
    path = tmp_path / f"artifact.{suffix}"
    path.write_bytes(content(_gzipped_artifact(tmp_path)))
    with pytest.raises(ValidationError):
        load_artifact(path)


def test_load_artifact_passes_a_missing_file_through(tmp_path):
    for name in ("missing.json", "missing.json.gz"):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / name)


def test_load_artifact_shares_factor_tuples(tmp_path, rng):
    c = random_mixed_circuit(rng, n=4, n_rot=10, shared=True)
    po = backpropagate(c, random_observable(rng, 4, terms=2), mode=SYMBOLIC)
    path = tmp_path / "artifact.json"
    save_artifact(po, path)
    factors = [f for t in load_artifact(path).terms.values()
               for mono, _ in t.monomials for f in mono.factors]
    assert len(factors) > len(set(factors)) > 1
    assert len({id(f) for f in factors}) == len(set(factors))


# --- property-based checks ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_untruncated_norm_is_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    c = random_mixed_circuit(rng, n=n, n_rot=int(rng.integers(1, 7)))
    obs = random_observable(rng, n, terms=1)
    alphas = rng.uniform(-np.pi, np.pi, size=c.m)
    po = backpropagate(c, obs, mode=NUMERIC, alphas=alphas)
    target = sum(coeff**2 for _, coeff in obs.terms)
    assert po.norm2_sq() == pytest.approx(target, abs=1e-10)
