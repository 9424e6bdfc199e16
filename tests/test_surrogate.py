"""Surrogate evaluation, exact patch moments, effective norms, and bounds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import paulipatch
from paulipatch import (
    AllPlus,
    AllZero,
    Circuit,
    CliffordGate,
    ConfigError,
    Dense,
    DimensionError,
    HypothesisViolationError,
    ObservableSpec,
    ParamRef,
    PauliString,
    RampSpec,
    Rotation,
    SurrogateEvaluator,
    TrotterEvolvedZero,
    TruncationPolicy,
    ValidationError,
    backpropagate,
    bound_correlated_avg,
    bound_mse_truncation,
    bound_worst_truncation,
    build_tfi_trotter,
    chain,
    effective_norm_avg,
    effective_norm_worst,
    exact_expectation,
    exact_expectation_batch,
    grid,
    make_allocation,
    pauli_mean_squares,
    restrict_sine_order,
    trig_moment,
    worst_case_coeff_bounds,
)
from paulipatch.propagation import (
    NUMERIC,
    SYMBOLIC,
    MonomialTable,
    PropagatedObservable,
    PropagatedTerm,
    PropagationStats,
)

from conftest import (
    random_mixed_circuit,
    random_observable,
    ref_coefficients,
    ref_expectation,
    ref_make_allocation,
    ref_monomial_blocks,
)


def single_rz_surrogate():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    return c, obs, backpropagate(c, obs, mode=SYMBOLIC)


# --- trig moments ------------------------------------------------------------------------


def test_package_import_loads_no_scipy():
    # the moments import scipy.special on first use: loaded with the package, it
    # would double the import time of every command
    src = str(Path(paulipatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, paulipatch; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_odd_sine_moment_is_exactly_zero():
    assert trig_moment(0, 1, 0.5) == 0.0
    assert trig_moment(3, 5, 1.0) == 0.0


def test_sin_squared_closed_form():
    for r in (0.05, 0.3, 1.0):
        assert trig_moment(0, 2, r) == pytest.approx(
            0.5 * (1 - math.sin(2 * r) / (2 * r)), abs=1e-15)
        assert trig_moment(0, 2, r) <= r * r / 3


@pytest.mark.parametrize("r", [0.05, 0.3, 1.0])
def test_moments_match_quadrature_grid(r):
    for p in range(7):
        for q in range(0, 7, 2):
            quad, _ = integrate.quad(
                lambda a: math.cos(a) ** p * math.sin(a) ** q / (2 * r), -r, r,
                epsabs=1e-14, epsrel=1e-14)
            assert trig_moment(p, q, r) == pytest.approx(quad, abs=1e-12)


def test_high_order_moment_uses_stable_path():
    r = 0.3
    value = trig_moment(10, 20, r)
    quad, _ = integrate.quad(
        lambda a: math.cos(a) ** 10 * math.sin(a) ** 20 / (2 * r), -r, r,
        epsabs=1e-25, epsrel=1e-13)
    assert value == pytest.approx(quad, rel=1e-10)
    assert value > 0


def _mp_moment(p, q, r):
    """Reference E[cos^p sin^q] as the binomial sum over E[e^{ika}] = sin(kr)/(kr), in mpmath.

    The alternating sum is of order 1 term by term; near a zero of sin (small r, or r
    near pi with odd p) the moment is about sin(r)^(q+1), so the working precision
    grows by that many digits.
    """
    import mpmath as mp

    digits = -math.log10(abs(math.sin(r)))
    with mp.workdps(40 + 2 * (p + q) + math.ceil((q + 1) * max(0.0, digits))):
        rr = mp.mpf(r)
        total = mp.mpf(0)
        for j in range(p + 1):
            cj = mp.binomial(p, j)
            for l in range(q + 1):
                k = (2 * j - p) + (2 * l - q)
                char = mp.mpf(1) if k == 0 else mp.sin(k * rr) / (k * rr)
                term = cj * mp.binomial(q, l) * char
                total += -term if (q - l) & 1 else term
        return float((-1) ** (q // 2) * total / mp.mpf(2) ** (p + q))


def test_moments_match_high_precision_grid():
    # tiny moments: (2, 18, 0.05) is 1.99e-25, (0, 20, 0.01) is 4.8e-42, and odd p at
    # r = pi leaves only the sliver pi - r, (1, 2, pi) is 1.95e-49
    for p in (0, 1, 2, 5, 12, 20):
        for q in (0, 2, 4, 8, 12, 18, 20):
            for r in (1e-6, 0.01, 0.05, 0.3, 1.0, math.pi / 2, 2.5, math.pi):
                want = _mp_moment(p, q, r)
                got = trig_moment(p, q, r)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (p, q, r)


def test_unit_moment_is_exactly_one():
    for r in (1e-4, 1.0, math.pi):
        assert trig_moment(0, 0, r) == 1.0


def test_tiny_patch_moments_match_quadrature():
    # at r = 1e-4 the sum loses 4q digits, beyond a fixed working precision
    import mpmath as mp

    for p, q, r in [(0, 20, 1e-4), (2, 18, 1e-3), (3, 2, 1e-4)]:
        with mp.workdps(150):
            quad = mp.quad(lambda a: mp.cos(a) ** p * mp.sin(a) ** q, [-r, 0, r]) / (2 * r)
        assert trig_moment(p, q, r) == pytest.approx(float(quad), rel=1e-10)


def test_moment_domain_errors():
    with pytest.raises(ConfigError):
        trig_moment(0, 2, 0.0)
    with pytest.raises(ConfigError):
        trig_moment(0, 2, 4.0)
    with pytest.raises(ConfigError):
        trig_moment(-1, 2, 0.3)
    # sin(r)^2 would underflow, and E[cos^2] come out as 0 instead of 1
    assert trig_moment(2, 0, 1e-150) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ConfigError):
        trig_moment(2, 0, 1e-170)


# --- evaluation -------------------------------------------------------------------------


def test_evaluate_at_zero_is_clifford_point(rng):
    c = random_mixed_circuit(rng, n=4, n_rot=7)
    obs = random_observable(rng, 4, terms=2)
    po = backpropagate(c, obs, mode=SYMBOLIC)
    clifford_point = exact_expectation(c, np.zeros(c.m), obs, AllZero(4))
    assert po.expectation(AllZero(4), np.zeros(c.m)) == pytest.approx(
        clifford_point, abs=1e-12)


def test_evaluate_single_rotation_closed_form():
    _, _, po = single_rz_surrogate()
    assert po.expectation(AllPlus(1), [math.pi / 3]) == pytest.approx(0.5)
    assert po.expectation(AllPlus(1), [0.0]) == pytest.approx(1.0)


def test_evaluate_matches_numeric_backpropagation(rng):
    c = random_mixed_circuit(rng, n=4, n_rot=8)
    obs = random_observable(rng, 4, terms=2)
    policy = TruncationPolicy(kappa=3)
    po = backpropagate(c, obs, policy, mode=SYMBOLIC)
    state = AllZero(4)
    for _ in range(20):
        alphas = rng.uniform(-0.5, 0.5, size=c.m)
        num = backpropagate(c, obs, policy, mode=NUMERIC, alphas=alphas)
        num_value = sum(t.coefficient * (1.0 if p.x == 0 else 0.0)
                        for p, t in num.terms.items())
        assert po.expectation(state, alphas) == pytest.approx(num_value, abs=1e-12)


def test_evaluate_mode_and_length_errors(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=4)
    obs = random_observable(rng, 3)
    num = backpropagate(c, obs, mode=NUMERIC, alphas=np.zeros(c.m))
    with pytest.raises(ConfigError):
        num.expectation(AllZero(3), np.zeros(c.m))
    po = backpropagate(c, obs, mode=SYMBOLIC)
    with pytest.raises(DimensionError):
        po.expectation(AllZero(3), np.zeros(c.m + 1))
    assert c.m > 0
    with pytest.raises(DimensionError):
        po.expectation(AllZero(3))


_CRITERION_1_SEED = 20240817  # the acceptance suite's GLOBAL_SEED


@pytest.mark.parametrize("index", range(30))
def test_numeric_expectation_is_the_term_order_loop(index):
    # criterion 1's circuit, observable and draws, rebuilt from the same seed
    rng = np.random.default_rng(_CRITERION_1_SEED + index)
    n = int(rng.integers(2, 11))
    n_rot = int(rng.integers(3, 21))
    circuit = random_mixed_circuit(rng, n=n, n_rot=n_rot, shared=index % 3 == 0)
    obs = random_observable(rng, n, terms=int(rng.integers(1, 4)))
    draws = rng.uniform(-np.pi, np.pi, size=(50, circuit.m))
    states = (AllZero(n), AllPlus(n),
              Dense(np.exp(1j * rng.uniform(0, 2 * np.pi, 2**n)) / math.sqrt(2**n)))
    for row in draws[:3]:
        po = backpropagate(circuit, obs, mode=NUMERIC, alphas=row)
        for state in states:
            assert po.expectation(state) == ref_expectation(po, state)


def test_numeric_expectation_is_the_term_order_loop_on_a_kz_chain():
    circuit = build_tfi_trotter(chain(31), layers=20, dt=0.3,
                                ramp=RampSpec("linear", 6.0), binding="fixed")
    obs = ObservableSpec.single(PauliString.from_sparse("Z15 Z16", 31))
    po = backpropagate(circuit, obs, TruncationPolicy(max_weight=5), mode=NUMERIC)
    assert po.n_paulis > 100
    plus = AllPlus(31)
    assert po.expectation(plus) == ref_expectation(po, plus)
    assert po.expectation(AllZero(31)) == ref_expectation(po, AllZero(31))


def test_symbolic_expectation_matches_the_evaluator(rng):
    c = random_mixed_circuit(rng, n=4, n_rot=9, shared=True)
    obs = random_observable(rng, 4, terms=3)
    po = backpropagate(c, obs, TruncationPolicy(kappa=4), mode=SYMBOLIC)
    prep = random_mixed_circuit(rng, n=4, n_rot=5)
    states = (AllZero(4), AllPlus(4),
              Dense(np.exp(1j * rng.uniform(0, 2 * np.pi, 16)) / 4.0),
              TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m))))
    for state in states:
        ev = SurrogateEvaluator(po, state)
        for alphas in rng.uniform(-0.6, 0.6, size=(5, c.m)):
            assert po.expectation(state, alphas) == pytest.approx(ev.value(alphas),
                                                                  abs=1e-12)


# Exact output of the evaluator and the worst-case bounds on one small surrogate with
# free and shared parameters, an exponent above one and constant monomials. A change
# to the flat kernel's arithmetic or order, or to the bound's sum, shows here.


def _pinned_surrogate():
    c = Circuit(4, 3, (
        Rotation("X", (0,), ParamRef.free(0)),
        CliffordGate("cnot", (0, 1)),
        Rotation("ZZ", (1, 2), ParamRef.shared(1)),
        Rotation("Y", (3,), ParamRef.fixed(0.41)),
        Rotation("XY", (0, 2), ParamRef.free(2)),
        CliffordGate("h", (1,)),
        Rotation("ZZ", (0, 1), ParamRef.shared(1)),
        Rotation("X", (1,), ParamRef.shared(1)),
    ))
    obs = ObservableSpec(((PauliString.from_text("ZIZI"), 0.8),
                          (PauliString.from_text("IIIZ"), -0.35),
                          (PauliString.from_text("YYII"), 0.5)))
    return backpropagate(c, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)


_PINNED_ALPHAS = [0.3660035084944562, 0.3695289476837925,
                  0.018390673250570422]  # np.random.default_rng(5).uniform(-0.6, 0.6, 3)

_PINNED_COEFFS = [
    ("IIIX", 0.139513264794548), ("IIIZ", -0.32099228798581175),
    ("IYYI", 0.008574145829099947), ("XXII", -0.06522412982930734),
    ("XZII", 0.4347023479775578), ("XZZI", -0.06081105823850382),
    ("YIII", -0.1466049936886981), ("YIZI", 0.12909165348858034),
    ("YXYI", 0.0011082949286722818), ("ZIII", 0.05618966802621254),
    ("ZIZI", 0.8072692442865828), ("ZXYI", 0.0028916627688104187),
]

_PINNED_WORST = [
    ("IIIX", 0.139513264794548), ("IIIZ", 0.32099228798581175),
    ("IYYI", 0.14776010333066977), ("XXII", 0.04366609627258042),
    ("XZII", 0.5), ("XZZI", 0.04366609627258042),
    ("YIII", 0.14776010333066977), ("YIZI", 0.3841762686597414),
    ("YXYI", 0.012904213794566913), ("ZIII", 0.04366609627258042),
    ("ZIZI", 0.8436660962725805), ("ZXYI", 0.04366609627258042),
]


def test_evaluator_and_worst_bounds_pinned_output():
    po = _pinned_surrogate()
    assert any(mono.factors == () for t in po.terms.values() for mono, _ in t.monomials)
    ev = SurrogateEvaluator(po, AllZero(4))
    coeffs = ev.coefficients(_PINNED_ALPHAS)
    got = [(p.to_text(), float(v)) for p, v in zip(ev.paulis, coeffs)]
    assert got == _PINNED_COEFFS
    worst = [(p.to_text(), v) for p, v in worst_case_coeff_bounds(po, 0.3).items()]
    assert worst == _PINNED_WORST


@pytest.mark.parametrize("strategy,inputs", [
    ("uniform", {"coeffs": "at-alphas"}),
    ("uniform", {}),
    ("abs-coeff", {"coeffs": "at-alphas"}),
    ("eff1norm-avg", {"r": 0.3}),
    ("eff1norm-worst", {"r": 0.3}),
], ids=["uniform", "uniform-from-surrogate", "abs-coeff", "eff1norm-avg", "eff1norm-worst"])
def test_allocation_matches_the_per_branch_reference(strategy, inputs):
    po = _pinned_surrogate()
    kwargs = {"surrogate": po, **inputs}
    if "coeffs" in kwargs:
        kwargs["coeffs"] = po.coefficients_at(_PINNED_ALPHAS)
    plan = make_allocation(strategy, 100, **kwargs)
    assert plan.entries == ref_make_allocation(strategy, 100, **kwargs).entries


def test_evaluator_batch_values(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=6)
    obs = random_observable(rng, 3)
    po = backpropagate(c, obs, mode=SYMBOLIC)
    ev = SurrogateEvaluator(po, AllZero(3))
    alphas = rng.uniform(-0.3, 0.3, size=(9, c.m))
    exact = exact_expectation_batch(c, alphas, obs, AllZero(3))
    assert np.allclose(ev.values(alphas), exact, atol=1e-10)


def _no_monomial_surrogate():
    x = PauliString.from_text("X")
    none = np.zeros(0, dtype=np.intp)
    table = MonomialTable.from_factors(2, np.array([0]), np.zeros(0), none, none,
                                       np.zeros((0, 3)))
    return PropagatedObservable(
        n=1, mode=SYMBOLIC,
        terms={x: PropagatedTerm(x, min_sine_count=0, table=table, index=0)},
        stats=PropagationStats(), policy=TruncationPolicy(), m=2, n_rotations=2,
        n_paulis_initial=1, table=table)


def _shared_power_surrogate(rng):
    po = backpropagate(random_mixed_circuit(rng, n=4, n_rot=10, shared=True),
                       random_observable(rng, 4, terms=2), mode=SYMBOLIC)
    assert max(c + s for t in po.terms.values() for mono, _ in t.monomials
               for _, c, s in mono.factors) >= 2
    return po


_KERNEL_CASES = {
    # a constant monomial and a shared parameter driving two rotations
    "pinned": lambda rng: _pinned_surrogate(),
    "shared-power": _shared_power_surrogate,
    "free-kappa3": lambda rng: backpropagate(random_mixed_circuit(rng, n=4, n_rot=12),
                                             random_observable(rng, 4, terms=2),
                                             TruncationPolicy(kappa=3), mode=SYMBOLIC),
    "no-params": lambda rng: backpropagate(
        Circuit(2, 0, ()), ObservableSpec(((PauliString.from_text("XI"), 0.7),
                                           (PauliString.from_text("ZZ"), -0.2))),
        mode=SYMBOLIC),
    "no-monomials": lambda rng: _no_monomial_surrogate(),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_batched_kernel_matches_per_row_reference(rng, case):
    po = _KERNEL_CASES[case](rng)
    amplitudes = rng.normal(size=2**po.n) + 1j * rng.normal(size=2**po.n)
    ev = SurrogateEvaluator(po, Dense(amplitudes / np.linalg.norm(amplitudes)))
    # two full row blocks and part of a third, except where a block is huge
    rows = 2 * ev.block_rows + 3
    assert rows <= 20_000 or case in ("no-monomials", "no-params")
    alphas = rng.uniform(-1.0, 1.0, size=(min(rows, 20_000), po.m))
    ref = ref_coefficients(po, alphas)
    assert np.array_equal(ev.coefficient_rows(alphas), ref)
    assert all(np.array_equal(ev.coefficients(a), r) for a, r in zip(alphas[:40], ref))
    scale = float(np.abs(ev.mono_weight * ev.d[ev.mono_term]).sum())
    assert np.all(np.abs(ev.values(alphas) - ref @ ev.d) <= 1e-14 * scale)
    assert ev.value(alphas[-1]) == ev.values(alphas[-1:])[0]
    empty = np.zeros((0, po.m))
    assert ev.values(empty).shape == (0,)
    assert ev.coefficient_rows(empty).shape == (0, len(po.terms))


_BLOCK_CASES = {
    **_KERNEL_CASES,
    "pinned-restricted": lambda rng: restrict_sine_order(_pinned_surrogate(), 1),
    "free-restricted": lambda rng: restrict_sine_order(_KERNEL_CASES["free-kappa3"](rng), 2),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_level_kernel_matches_per_factor_reference(rng, case):
    po = _BLOCK_CASES[case](rng)
    amplitudes = rng.normal(size=2**po.n) + 1j * rng.normal(size=2**po.n)
    ev = SurrogateEvaluator(po, Dense(amplitudes / np.linalg.norm(amplitudes)))
    if 2 * ev.block_rows + 3 > 20_000:  # a tiny table: shrink the blocks both kernels read
        ev.block_rows = 7
    alphas = rng.uniform(-1.0, 1.0, size=(2 * ev.block_rows + 3, po.m))
    blocks = list(ev._monomial_blocks(alphas))
    ref_blocks = list(ref_monomial_blocks(ev, alphas))
    assert len(blocks) == len(ref_blocks) == 3
    for (rows, mono_vals), (ref_rows, ref_vals) in zip(blocks, ref_blocks):
        assert rows == ref_rows
        assert mono_vals.flags.c_contiguous
        assert np.array_equal(mono_vals, ref_vals)
    # what values and coefficient_rows make of the reference blocks
    weights = ev.mono_weight * ev.d[ev.mono_term]
    n_terms = len(po.terms)
    values = np.empty(alphas.shape[0])
    coeffs = np.zeros((alphas.shape[0], n_terms))
    for rows, mono_vals in ref_blocks:
        values[rows] = mono_vals @ weights
        flat = np.arange(mono_vals.shape[0])[:, np.newaxis] * n_terms + ev.mono_term
        np.add.at(coeffs[rows].reshape(-1), flat.reshape(-1),
                  (ev.mono_weight * mono_vals).reshape(-1))
    assert np.array_equal(ev.values(alphas), values)
    assert np.array_equal(ev.coefficient_rows(alphas), coeffs)
    assert np.array_equal(po.monomial_table().coefficients(alphas[4]), coeffs[4])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluation_refuses_non_finite_parameters(bad):
    po = _pinned_surrogate()
    ev = SurrogateEvaluator(po, AllZero(4))
    point = np.array([0.1, bad, 0.2])
    rows = np.array([[0.1, 0.2, 0.3], point])
    for call, arg in ((ev.values, rows), (ev.coefficient_rows, rows), (ev.value, point),
                      (ev.coefficients, point),
                      (lambda a: po.expectation(AllZero(4), a), point),
                      (po.coefficients_at, point), (po.norm2_sq, point)):
        with pytest.raises(ValidationError):
            call(arg)
    with pytest.raises(DimensionError):
        ev.values(np.full((2, 2), bad))


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 4), (0, 2), (1, 3, 1), ()])
def test_values_needs_rows_of_m_parameters(shape):
    ev = SurrogateEvaluator(_pinned_surrogate())
    assert ev.m == 3
    with pytest.raises(DimensionError):
        ev.values(np.zeros(shape))
    with pytest.raises(DimensionError):
        ev.coefficient_rows(np.zeros(shape))


# --- effective norms -----------------------------------------------------------------------


def test_zero_gate_norms_equal_norm1():
    obs = ObservableSpec(((PauliString.from_text("XI"), 0.7),
                          (PauliString.from_text("ZZ"), -0.2)))
    po = backpropagate(Circuit(2, 0, ()), obs, mode=SYMBOLIC)
    assert effective_norm_avg(po, 0.1) == pytest.approx(0.9)
    assert effective_norm_worst(po, 0.1) == pytest.approx(0.9)
    with pytest.raises(ConfigError):
        pauli_mean_squares(po, -0.1)


def test_single_rotation_norm_closed_forms():
    _, _, po = single_rz_surrogate()
    want = math.sqrt(trig_moment(2, 0, 0.1)) + math.sqrt(trig_moment(0, 2, 0.1))
    assert effective_norm_avg(po, 0.1) == pytest.approx(want, abs=1e-14)
    assert effective_norm_worst(po, 0.1) == pytest.approx(1 + math.sin(0.1), abs=1e-14)


def test_avg_norm_matches_monte_carlo(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=6)
    obs = random_observable(rng, 3)
    po = backpropagate(c, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
    r = 0.4
    squares = pauli_mean_squares(po, r)
    ev = SurrogateEvaluator(po)
    draws = rng.uniform(-r, r, size=(60000, c.m))
    samples = ev.coefficient_rows(draws)
    for idx, pauli in enumerate(ev.paulis):
        values = samples[:, idx] ** 2
        stderr = values.std() / math.sqrt(len(values))
        assert abs(values.mean() - squares[pauli]) <= 4 * max(stderr, 1e-12)


def test_worst_norm_upper_bounds_grid_search(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=5)
    obs = random_observable(rng, 3)
    po = backpropagate(c, obs, TruncationPolicy(kappa=2), mode=SYMBOLIC)
    r = 0.3
    bounds = worst_case_coeff_bounds(po, r)
    ev = SurrogateEvaluator(po)
    draws = rng.uniform(-r, r, size=(3000, c.m))
    maxima = np.abs(ev.coefficient_rows(draws)).max(axis=0)
    for idx, pauli in enumerate(ev.paulis):
        assert maxima[idx] <= bounds[pauli] + 1e-12
    assert effective_norm_worst(po, r) >= effective_norm_avg(po, r) - 1e-12


def test_avg_norm_respects_printed_bound(rng):
    # ||c||_1,avg <= ||a||_1 (e m r / kappa)^kappa, valid where kappa <= m r
    # (below that the zero-sine path alone, ~1, already exceeds the bound)
    c = random_mixed_circuit(rng, n=3, n_rot=12)
    obs = random_observable(rng, 3, terms=2)
    kappa = 2
    po = backpropagate(c, obs, TruncationPolicy(kappa=kappa), mode=SYMBOLIC)
    m = len(c.rotations)
    r = 0.2
    assert kappa <= m * r
    avg = effective_norm_avg(po, r)
    worst = effective_norm_worst(po, r)
    assert avg <= worst + 1e-12
    assert worst <= obs.norm1 * (math.e * m * r / kappa) ** kappa


def _pairwise_mean_squares(po, r):
    """Reference: E[c_P^2] as the pairwise sum over monomials, one pair at a time."""

    def pair_moment(fac_a, fac_b):
        exps: dict[int, list[int]] = {}
        for param, c, s in fac_a:
            exps[param] = [c, s]
        for param, c, s in fac_b:
            e = exps.setdefault(param, [0, 0])
            e[0] += c
            e[1] += s
        out = 1.0
        for c, s in exps.values():
            if s % 2 == 1:
                return 0.0
            out *= trig_moment(c, s, r)
            if out == 0.0:
                return 0.0
        return out

    out = {}
    for pauli, term in po.terms.items():
        monos = term.monomials
        total = 0.0
        for i, (mono_i, w_i) in enumerate(monos):
            for j in range(i, len(monos)):
                mono_j, w_j = monos[j]
                moment = pair_moment(mono_i.factors, mono_j.factors)
                if moment != 0.0:
                    contrib = w_i * w_j * moment
                    total += contrib if i == j else 2.0 * contrib
        out[pauli] = max(total, 0.0)
    return out


def _moment_reference_surrogate(case):
    if case == "random-mixed":
        rng = np.random.default_rng(41)
        c = random_mixed_circuit(rng, n=4, n_rot=10)
        obs = random_observable(rng, 4, terms=2)
        return backpropagate(c, obs, TruncationPolicy(kappa=4), mode=SYMBOLIC)
    c = build_tfi_trotter(chain(4), layers=3, dt=0.3, binding="shared")
    obs = ObservableSpec.single(PauliString.from_text("ZZII"))
    return backpropagate(c, obs, mode=SYMBOLIC)


@pytest.mark.parametrize("r", [0.05, 0.7, math.pi])
@pytest.mark.parametrize("case", ["random-mixed", "tfi-chain-shared"])
def test_mean_squares_match_pairwise_reference(case, r):
    po = _moment_reference_surrogate(case)
    assert max(len(t.monomials) for t in po.terms.values()) > 1
    squares = pauli_mean_squares(po, r)
    want = _pairwise_mean_squares(po, r)
    assert list(squares) == list(want)
    for pauli, value in want.items():
        assert squares[pauli] == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [0.05, 0.4, 2.5, math.pi])
def test_shared_parameter_mean_squares_match_quadrature(r):
    # one angle drives all 84 rotations of a 3x3 grid HVA, so the moments reach
    # cos^p sin^q with p + q up to 168; E[c_P^2] is a one-dimensional integral
    c = build_tfi_trotter(grid(3, 3), layers=4, dt=0.1, binding="shared")
    obs = ObservableSpec.single(PauliString.from_sparse("Z4", 9))
    po = backpropagate(c, obs, TruncationPolicy(kappa=6), mode=SYMBOLIC)
    assert (c.m, len(c.rotations)) == (1, 84)
    squares = pauli_mean_squares(po, r)
    ev = SurrogateEvaluator(po)
    nodes, weights = np.polynomial.legendre.leggauss(100)
    coeffs = ev.coefficient_rows(r * nodes[:, np.newaxis])
    quad = weights @ coeffs**2 / 2
    assert list(squares) == ev.paulis
    for idx, pauli in enumerate(ev.paulis):
        assert squares[pauli] == pytest.approx(quad[idx], rel=1e-12, abs=0.0), pauli


# --- bound calculators -----------------------------------------------------------------------


def test_mse_bound_printed_value():
    report = bound_mse_truncation(100, 0.1, 3, 1.0)
    assert report.formula_id == "cor-d2-mse"
    assert report.value == pytest.approx((math.e / 9) ** 3)
    assert report.value == pytest.approx(0.02756, abs=2e-5)


def test_mse_bound_monotone_to_zero():
    values = [bound_mse_truncation(10, 0.3, k, 1.0).value for k in range(3, 12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_mse_bound_base_one():
    m, kappa = 10, 2
    r = math.sqrt(3 * kappa / (m * math.e))
    report = bound_mse_truncation(m, r, kappa, 2.0)
    assert report.value == pytest.approx(4.0)


def test_bounds_refuse_out_of_regime():
    with pytest.raises(HypothesisViolationError) as err:
        bound_mse_truncation(100, 1.0, 1, 1.0)
    assert "3*kappa/m" in str(err.value)
    with pytest.raises(HypothesisViolationError):
        bound_worst_truncation(100, 0.5, 3, 1.0)
    with pytest.raises(HypothesisViolationError):
        bound_correlated_avg(100, 0.5, 3, 1.0)


def test_worst_bound_value_and_kappa_zero():
    report = bound_worst_truncation(10, 0.1, 2, 1.5)
    assert report.formula_id == "thm-d3-worst"
    assert report.value == pytest.approx(1.5 * (math.e * 10 * 0.1 / 2) ** 2)
    assert bound_worst_truncation(10, 0.0, 0, 1.5).value == pytest.approx(1.5)


def test_correlated_bound_is_worst_over_kappa_plus_one():
    worst = bound_worst_truncation(10, 0.1, 2, 1.0)
    corr = bound_correlated_avg(10, 0.1, 2, 1.0)
    assert corr.formula_id == "prop-d4-corr"
    assert corr.value == pytest.approx(worst.value / 3)
    assert bound_correlated_avg(10, 0.0, 0, 1.0).value == pytest.approx(
        bound_worst_truncation(10, 0.0, 0, 1.0).value)


def test_bound_report_serializes():
    import json

    doc = json.loads(bound_mse_truncation(100, 0.1, 3, 1.0).to_json())
    assert doc["formula_id"] == "cor-d2-mse"
    assert doc["inputs"]["m"] == 100


def test_empirical_mse_below_bound_small_instance(rng):
    # lite version of the acceptance criterion on one seeded circuit
    c = random_mixed_circuit(rng, n=4, n_rot=8)
    obs = random_observable(rng, 4)
    m = len(c.rotations)
    kappa, r = 2, 0.1
    assert r * r <= 3 * kappa / m
    po = backpropagate(c, obs, TruncationPolicy(kappa=kappa), mode=SYMBOLIC)
    ev = SurrogateEvaluator(po, AllZero(4))
    alphas = rng.uniform(-r, r, size=(400, c.m))
    exact = exact_expectation_batch(c, alphas, obs, AllZero(4))
    mse = float(np.mean((ev.values(alphas) - exact) ** 2))
    assert mse <= bound_mse_truncation(m, r, kappa, obs.norm1).value
