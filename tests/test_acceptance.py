"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criteria 1-4 and 6-9 are statistical/bound checks on seeded desk-scale
instances; 5 and 10 reproduce the two large study configurations (the
16-qubit grid anchor and the 127-qubit heavy-hex run). Run order follows the
criterion numbering; the whole module is seeded and prints one PASS line per
criterion. Budget on a laptop-class core: roughly 6-10 minutes total.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from paulipatch import (
    AllPlus,
    AllZero,
    ObservableSpec,
    PauliString,
    RampSpec,
    SurrogateEvaluator,
    TrotterEvolvedZero,
    TruncationPolicy,
    backpropagate,
    bound_correlated_avg,
    bound_mse_truncation,
    bound_worst_truncation,
    build_taylor,
    build_tfi_trotter,
    chain,
    estimate,
    eval_taylor,
    exact_expectation_batch,
    exact_oracle,
    grid,
    heavyhex127,
    make_allocation,
    overlap,
    restrict_sine_order,
    shadow_estimate,
    shift_derivative,
    simulate_direct,
    simulate_shadows,
    taylor_bounds,
)
from paulipatch.propagation import NUMERIC, SYMBOLIC
from paulipatch.taylor import evaluation_budget_bound, unique_derivative_count

from conftest import random_mixed_circuit, random_observable

GLOBAL_SEED = 20240817


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS - {message}")


# ---------------------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    """Untruncated numeric back-propagation == dense statevector to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    for index in range(30):
        rng = np.random.default_rng(GLOBAL_SEED + index)
        n = int(rng.integers(2, 11))
        n_rot = int(rng.integers(3, 21))
        circuit = random_mixed_circuit(rng, n=n, n_rot=n_rot, shared=index % 3 == 0)
        obs = random_observable(rng, n, terms=int(rng.integers(1, 4)))
        draws = rng.uniform(-np.pi, np.pi, size=(50, circuit.m))
        exact = exact_expectation_batch(circuit, draws, obs, AllZero(n))
        state = AllZero(n)
        for row, expected in zip(draws, exact):
            po = backpropagate(circuit, obs, mode=NUMERIC, alphas=row)
            value = po.expectation(state)
            worst = max(worst, abs(value - expected))
        assert worst <= 1e-10, f"circuit {index}: error {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"30 circuits x 50 draws, max |backprop - oracle| = {worst:.2e} "
              f"<= 1e-10 in {elapsed:.0f}s")


def _bound_check_circuits():
    out = []
    for index in range(20):
        rng = np.random.default_rng(GLOBAL_SEED + 1000 + index)
        n = int(rng.integers(4, 9))
        n_rot = int(rng.integers(8, 17))
        circuit = random_mixed_circuit(rng, n=n, n_rot=n_rot)
        obs = random_observable(rng, n, terms=int(rng.integers(1, 3)))
        out.append((rng, circuit, obs))
    return out


def test_criterion_02_mse_bound():
    """Empirical patch MSE <= ||a||_1^2 (e m r^2 / 3 kappa)^kappa, no violations."""
    start = time.perf_counter()
    checks = 0
    margin = np.inf
    for rng, circuit, obs in _bound_check_circuits():
        m = len(circuit.rotations)
        full = backpropagate(circuit, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
        for r in (0.05, 0.1):
            draws = rng.uniform(-r, r, size=(1000, circuit.m))
            exact = exact_expectation_batch(circuit, draws, obs, AllZero(circuit.n))
            for kappa in (1, 2, 3):
                if r * r > 3 * kappa / m:
                    continue
                po = restrict_sine_order(full, kappa)
                ev = SurrogateEvaluator(po, AllZero(circuit.n))
                mse = float(np.mean((ev.values(draws) - exact) ** 2))
                bound = bound_mse_truncation(m, r, kappa, obs.norm1).value
                assert mse <= bound, (
                    f"violation: mse={mse:.3e} > bound={bound:.3e} "
                    f"(m={m}, r={r}, kappa={kappa})")
                margin = min(margin, bound / max(mse, 1e-300))
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(2, f"{checks} (circuit, r, kappa) combinations, zero violations, "
              f"min bound/mse ratio {margin:.1f}, in {elapsed:.0f}s")


def test_criterion_03_worst_case_bound():
    """Sobol-scan max error <= ||a||_1 (e m r / kappa)^kappa for r <= kappa/m."""
    start = time.perf_counter()
    checks = 0
    for rng, circuit, obs in _bound_check_circuits():
        m = len(circuit.rotations)
        full = backpropagate(circuit, obs, TruncationPolicy(kappa=3), mode=SYMBOLIC)
        for r in (0.05, 0.1):
            valid = [k for k in (1, 2, 3) if r <= k / m]
            if not valid:
                continue
            sampler = qmc.Sobol(d=circuit.m, scramble=True,
                                seed=np.random.default_rng(GLOBAL_SEED + checks))
            points = (2.0 * sampler.random_base2(14) - 1.0) * r
            exact = exact_expectation_batch(circuit, points, obs, AllZero(circuit.n))
            for kappa in valid:
                po = restrict_sine_order(full, kappa)
                ev = SurrogateEvaluator(po, AllZero(circuit.n))
                max_err = float(np.max(np.abs(ev.values(points) - exact)))
                bound = bound_worst_truncation(m, r, kappa, obs.norm1).value
                assert max_err <= bound, (
                    f"violation: max={max_err:.3e} > bound={bound:.3e} "
                    f"(m={m}, r={r}, kappa={kappa})")
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"{checks} Sobol scans of 2^14 points, zero violations, in {elapsed:.0f}s")


def test_criterion_04_correlated_angle_bound():
    """Shared-angle Trotter mean |error| <= worst bound / (kappa + 1)."""
    start = time.perf_counter()
    circuit = build_tfi_trotter(chain(6), layers=3, dt=0.1, binding="shared")
    m = len(circuit.rotations)  # 3 * (6 + 5) = 33 rotation gates
    assert circuit.m == 1
    obs = ObservableSpec.single(PauliString.from_sparse("Z2 Z3", 6))
    full = backpropagate(circuit, obs, TruncationPolicy(kappa=4), mode=SYMBOLIC)
    for kappa in (1, 2, 3):
        r = kappa / m  # boundary of the hypothesis r <= kappa/m
        grid_1d = np.linspace(-r, r, 801)
        exact = exact_expectation_batch(circuit, grid_1d[:, None], obs, AllZero(6))
        po = restrict_sine_order(full, kappa)
        ev = SurrogateEvaluator(po, AllZero(6))
        errors = np.abs(ev.values(grid_1d[:, None]) - exact)
        mean_error = float(np.trapezoid(errors, grid_1d) / (2 * r))
        bound = bound_correlated_avg(m, r, kappa, obs.norm1).value
        assert mean_error <= bound, f"kappa={kappa}: {mean_error:.3e} > {bound:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"chain(6) x 3 shared-angle layers, kappa in 1..3 quadrature means "
              f"below prop-d4-corr, in {elapsed:.0f}s")


# --- the 16-qubit anchor (shared across criteria 5 and 6) --------------------------------


@pytest.fixture(scope="module")
def grid16():
    top = grid(4, 4)
    hva = build_tfi_trotter(top, layers=4, dt=0.1, binding="free")
    prep = build_tfi_trotter(top, layers=4, dt=0.1, binding="fixed")
    rho = TrotterEvolvedZero(prep)
    obs = ObservableSpec.single(PauliString.from_sparse("Z5", 16))
    return hva, rho, obs


def test_criterion_05_grid_anchor_rmse(grid16):
    """16-qubit HVA at kappa=6, r=0.1: RMSE < 1e-5 with 30..1000 Paulis."""
    start = time.perf_counter()
    hva, rho, obs = grid16
    po = backpropagate(hva, obs, TruncationPolicy(kappa=6), mode=SYMBOLIC)
    n_paulis = po.n_paulis
    assert 30 <= n_paulis <= 1000, f"{n_paulis} surviving Paulis"
    ev = SurrogateEvaluator(po, rho)
    rng = np.random.default_rng(GLOBAL_SEED + 5)
    draws = rng.uniform(-0.1, 0.1, size=(200, hva.m))
    approx = ev.values(draws)
    exact = exact_expectation_batch(hva, draws, obs, rho)
    rmse = float(np.sqrt(np.mean((approx - exact) ** 2)))
    elapsed = time.perf_counter() - start
    assert rmse < 1e-5, f"rmse {rmse:.2e}"
    assert elapsed < 600.0
    report(5, f"16-qubit anchor: rmse={rmse:.2e} < 1e-5 at kappa=6, "
              f"{n_paulis} Paulis, in {elapsed:.0f}s")


def test_criterion_06_shot_noise_slope(grid16):
    """At r=0 the total error scales as 1/sqrt(N_s): slope -0.5 +/- 0.1."""
    start = time.perf_counter()
    _, rho, obs = grid16
    z5 = obs.terms[0][0]
    truth = overlap(rho, z5)
    plan_coeffs = {z5: 1.0}
    budgets = [1_000, 10_000, 100_000, 1_000_000]
    rmse = []
    for shots in budgets:
        plan = make_allocation("abs-coeff", shots, coeffs=plan_coeffs)
        sq = 0.0
        for rep in range(50):
            records = simulate_direct(rho, plan, seed=GLOBAL_SEED + shots + rep)
            sq += (estimate(records, plan_coeffs, plan) - truth) ** 2
        rmse.append(math.sqrt(sq / 50))
    slope = float(np.polyfit(np.log(budgets), np.log(rmse), 1)[0])
    elapsed = time.perf_counter() - start
    assert -0.6 <= slope <= -0.4, f"slope {slope:.3f}"
    report(6, f"r=0 shot-noise slope {slope:.3f} in [-0.6, -0.4], in {elapsed:.0f}s")


def test_criterion_07_allocation_ordering():
    """Peaked observable: uniform allocation MSE >= 10x the eff-1-norm MSE."""
    start = time.perf_counter()
    n = 5
    tau = 0.1
    rng = np.random.default_rng(GLOBAL_SEED + 7)
    peak = PauliString.from_text("Z" * n)
    tails = []
    while len(tails) < 16:
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        p = PauliString.from_text(letters)
        if not p.is_identity and p != peak and p not in tails:
            tails.append(p)
    coeffs = {peak: 1.0}
    coeffs.update({p: tau / 16 for p in tails})
    obs = ObservableSpec.from_mapping(coeffs)
    state = AllZero(n)
    truth = sum(c * overlap(state, p) for p, c in coeffs.items())

    from paulipatch import Circuit

    po = backpropagate(Circuit(n, 0, ()), obs, mode=SYMBOLIC)
    shots = 10_000
    mse = {}
    for strategy in ("uniform", "eff1norm-avg"):
        plan = make_allocation(strategy, shots, coeffs=coeffs, surrogate=po, r=0.1)
        sq = 0.0
        for rep in range(1000):
            records = simulate_direct(state, plan, seed=GLOBAL_SEED + rep)
            sq += (estimate(records, coeffs, plan) - truth) ** 2
        mse[strategy] = sq / 1000
    ratio = mse["uniform"] / mse["eff1norm-avg"]
    elapsed = time.perf_counter() - start
    assert ratio >= 10.0, f"ratio {ratio:.1f}"
    report(7, f"uniform/eff-1-norm MSE ratio {ratio:.0f} >= 10 at N_s=1e4, "
              f"in {elapsed:.0f}s")


def test_criterion_08_shadow_unbiasedness_and_variance():
    """Weight-k shadow estimates unbiased within 4 sigma, variance <= 3^k."""
    start = time.perf_counter()
    shots = 100_000
    checked = 0
    for state, letter in ((AllZero(6), "Z"), (AllPlus(6), "X")):
        records = simulate_shadows(state, shots, seed=GLOBAL_SEED + checked)
        for k in (1, 2, 3, 4):
            p = PauliString.from_letters(letter * k, range(k), 6)
            cols = np.array(p.support())
            basis_code = {"X": 0, "Y": 1, "Z": 2}[letter]
            match = np.all(records.bases[:, cols] == basis_code, axis=1)
            signs = 1.0 - 2.0 * (records.bits[:, cols].sum(axis=1) % 2)
            values = np.where(match, signs, 0.0) * 3.0**k
            estimate_value = shadow_estimate(records, p)
            assert estimate_value == pytest.approx(values.mean())
            stderr = values.std() / math.sqrt(shots)
            assert abs(estimate_value - 1.0) <= 4 * stderr, (
                f"{letter}^{k}: {estimate_value} +/- {stderr}")
            var_tolerance = 4 * np.var(values) / math.sqrt(shots) + 0.05 * 3.0**k
            assert values.var() <= 3.0**k + var_tolerance
            checked += 1
    elapsed = time.perf_counter() - start
    report(8, f"{checked} weight-1..4 shadow estimates unbiased with "
              f"per-shot variance <= 3^k, in {elapsed:.0f}s")


def test_criterion_09_kz_scaling():
    """chain(31), dt=0.3: all ramps fit n_def ~ t_f^s with s in [-0.65, -0.35]."""
    start = time.perf_counter()
    top = chain(31)
    obs = ObservableSpec.single(PauliString.from_sparse("Z15 Z16", 31))
    policy = TruncationPolicy(max_weight=5)
    plus = AllPlus(31)
    dt = 0.3
    t_f_grid = [3.0, 6.0, 12.0, 24.0]
    slopes = {}
    for ramp in ("linear", "square", "tanh"):
        n_def = []
        for t_f in t_f_grid:
            circuit = build_tfi_trotter(top, layers=round(t_f / dt), dt=dt,
                                        ramp=RampSpec(ramp, t_f), binding="fixed")
            po = backpropagate(circuit, obs, policy, mode=NUMERIC)
            value = po.expectation(plus)
            n_def.append(1.0 - value)
        slope = float(np.polyfit(np.log(t_f_grid), np.log(n_def), 1)[0])
        assert -0.65 <= slope <= -0.35, f"{ramp}: slope {slope:.3f}"
        slopes[ramp] = slope
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    summary = ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
    report(9, f"defect-density slopes {summary} all in [-0.65, -0.35], "
              f"in {elapsed:.0f}s")


def test_criterion_10_heavyhex_soft_performance_tier():
    """127-qubit, 50 layers, kappa=21, W=5: < 300 s, norm >= 0.8, eval < 5 s.

    Soft tier: the t_f grid is a flag in the sweep commands (the source
    study does not print it); 50 layers at t_f=9 sits inside the quoted
    retained-norm band.
    """
    t_f = 9.0
    layers = 50
    circuit = build_tfi_trotter(heavyhex127(), layers=layers, dt=t_f / layers,
                                ramp=RampSpec("linear", t_f), binding="fixed")
    assert len(circuit.gates) == 13550
    obs = ObservableSpec.single(PauliString.from_sparse("Z62 Z63", 127))
    start = time.perf_counter()
    po = backpropagate(circuit, obs, TruncationPolicy(kappa=21, max_weight=5),
                       mode=NUMERIC)
    build_s = time.perf_counter() - start
    retained = math.sqrt(po.norm2_sq())
    start = time.perf_counter()
    plus = AllPlus(127)
    value = po.expectation(plus)
    eval_s = time.perf_counter() - start
    assert build_s < 300.0, f"build took {build_s:.0f}s"
    assert retained >= 0.8, f"retained norm {retained:.3f}"
    assert eval_s < 5.0, f"evaluation took {eval_s:.1f}s"
    assert -1.0 <= value <= 1.0
    report(10, f"heavy-hex build {build_s:.0f}s < 300s, retained 2-norm "
               f"{retained:.3f} >= 0.8, eval {eval_s:.2f}s < 5s "
               f"({po.n_paulis} terms, n_def={1 - value:.3f})")


def test_criterion_11_taylor_patch():
    """Shift rule vs Richardson, scan error vs prop-c2, ledger vs prop-c4."""
    start = time.perf_counter()
    rng = np.random.default_rng(GLOBAL_SEED + 11)
    # 11a: shift-rule derivatives match Richardson finite differences to 1e-6
    from test_taylor import richardson_derivative

    worst_gap = 0.0
    for index in range(5):
        local = np.random.default_rng(GLOBAL_SEED + 100 + index)
        circuit = random_mixed_circuit(local, n=3, n_rot=4)
        obs = random_observable(local, 3)
        oracle = exact_oracle(circuit, obs, AllZero(3))
        center = local.uniform(-0.4, 0.4, size=circuit.m)
        for order in (1, 2, 3):
            param = int(local.integers(circuit.m))
            kvec = [0] * circuit.m
            kvec[param] = order
            gap = abs(shift_derivative(oracle, center, kvec)
                      - richardson_derivative(oracle, center, param, order, circuit.m))
            worst_gap = max(worst_gap, gap)
    assert worst_gap <= 1e-6, f"gap {worst_gap:.2e}"

    # 11b: grid-scanned surrogate error within the worst-case bound, gamma=1
    circuit = random_mixed_circuit(rng, n=3, n_rot=8)
    obs = random_observable(rng, 3)
    oracle = exact_oracle(circuit, obs, AllZero(3))
    center = rng.uniform(-0.3, 0.3, size=circuit.m)
    kappa, r = 3, 0.5 / circuit.m
    ts = build_taylor(oracle, center, kappa=kappa)
    sampler = qmc.Sobol(d=circuit.m, scramble=True,
                        seed=np.random.default_rng(GLOBAL_SEED))
    points = center + (2 * sampler.random(512) - 1) * r
    scan_err = max(abs(eval_taylor(ts, p) - oracle(p)) for p in points)
    c2 = taylor_bounds("worst", circuit.m, r, kappa, 1.0, obs.norm1).value
    assert scan_err <= c2, f"{scan_err:.3e} > {c2:.3e}"

    # 11c: evaluation ledger on m=10, kappa=2: 66 unique derivatives, budget held
    gates = tuple(__import__("paulipatch").Rotation("Z", (q % 3,),
                  __import__("paulipatch").ParamRef.free(q)) for q in range(10))
    from paulipatch import Circuit

    circ10 = Circuit(3, 10, gates)
    obs10 = ObservableSpec.single(PauliString.from_text("XII"))
    ts10 = build_taylor(exact_oracle(circ10, obs10, AllZero(3)), np.zeros(10), kappa=2)
    assert ts10.ledger.unique_derivatives == unique_derivative_count(10, 2) == 66
    budget = evaluation_budget_bound(10, 2, ts10.ledger.n_d_max)
    assert ts10.ledger.evaluations <= budget
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(11, f"shift-rule gap {worst_gap:.1e} <= 1e-6, scan {scan_err:.2e} <= "
               f"bound {c2:.2e}, ledger {ts10.ledger.evaluations} <= {budget:.0f} "
               f"with 66 unique derivatives, in {elapsed:.0f}s")


def test_criterion_12_reproducible_csv(tmp_path):
    """Same manifest (config + seed) regenerates byte-identical CSV output."""
    from paulipatch.cli import main

    out = tmp_path / "kz.csv"
    argv = ["kz-scan", "--topology", "chain:10", "--tf", "3,6", "--ramp",
            "linear", "--obs-edge", "4", "5", "--seed", str(GLOBAL_SEED),
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    manifest = (tmp_path / "kz.csv.manifest.json").read_text()
    assert "manifest_id" in manifest
    report(12, "identical manifest reproduces byte-identical CSV "
               "(timings live in the manifest, not the CSV)")
