"""Measurement protocols: allocation, direct estimation, shadows, budgets."""

import json
import math

import numpy as np
import pytest

from paulipatch import (
    AllPlus,
    AllZero,
    Circuit,
    ConfigError,
    Dense,
    HypothesisViolationError,
    ObservableSpec,
    PauliString,
    Rotation,
    ParamRef,
    ValidationError,
    backpropagate,
    estimate,
    make_allocation,
    sample_complexity,
    shadow_estimate,
    simulate_direct,
    simulate_shadows,
)
from paulipatch.measurement import (
    AllocationPlan,
    load_shadow_records,
    load_shot_records,
    save_shadow_records,
    save_shot_records,
)
from paulipatch.propagation import SYMBOLIC
from paulipatch.states import state_vector

from conftest import ref_apply_gate_matrix

Z1 = PauliString.from_text("Z")
X1 = PauliString.from_text("X")


# --- allocation --------------------------------------------------------------------------


def test_abs_coeff_normalization():
    plan = make_allocation("abs-coeff", 10, coeffs={Z1: 0.9, X1: 0.1})
    assert dict((p.to_text(), b) for p, b in plan.entries) == {"Z": 0.9, "X": 0.1}


def test_uniform_allocation():
    paulis = [PauliString.from_letters("Z", [q], 4) for q in range(4)]
    plan = make_allocation("uniform", 10, coeffs={p: 0.3 for p in paulis})
    assert np.allclose(plan.probabilities, 0.25)


def test_plan_lookups_are_built_once_and_read_only():
    plan = make_allocation("abs-coeff", 10, coeffs={Z1: 0.9, X1: 0.1})
    assert plan.index_of() is plan.index_of()
    assert plan.probabilities is plan.probabilities
    assert dict(plan.index_of()) == {Z1: 0, X1: 1}
    with pytest.raises(TypeError):
        plan.index_of()[Z1] = 1
    with pytest.raises(ValueError):
        plan.probabilities[0] = 0.5
    # the cached lookups take no part in equality
    assert plan == AllocationPlan(plan.entries, plan.strategy, plan.shots)


def test_peaked_observable_concentration():
    n = 3
    tau = 0.4
    peak = PauliString.from_text("ZZZ")
    tail = [PauliString.from_letters("X", [q], n) for q in range(n)]
    coeffs = {peak: 1.0}
    coeffs.update({p: tau / len(tail) for p in tail})
    plan = make_allocation("abs-coeff", 10, coeffs=coeffs)
    beta = dict(plan.entries)
    assert beta[peak] >= 1.0 / (1.0 + tau) - 1e-12


def test_plan_invariants_enforced():
    with pytest.raises(ConfigError):
        AllocationPlan(((Z1, 0.5), (X1, 0.6)), "uniform", 10)
    with pytest.raises(ConfigError):
        AllocationPlan(((Z1, 1.0), (X1, 0.0)), "uniform", 10)  # zero probability
    with pytest.raises(ConfigError):
        AllocationPlan((), "uniform", 10)
    with pytest.raises(ConfigError):
        make_allocation("abs-coeff", 10, coeffs={Z1: 0.0})


def test_non_finite_allocation_inputs_are_refused():
    with pytest.raises(ConfigError):
        AllocationPlan(((Z1, math.nan),), "uniform", 10)
    with pytest.raises(ConfigError):
        AllocationPlan(((Z1, math.inf),), "uniform", 10)
    with pytest.raises(ConfigError):
        AllocationPlan(((Z1, 0.5), (X1, math.nan)), "uniform", 10)
    for strategy in ("abs-coeff", "uniform"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                make_allocation(strategy, 10, coeffs={Z1: bad, X1: 1.0})


def test_eff1norm_allocations_from_surrogate():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(X1)
    po = backpropagate(c, obs, mode=SYMBOLIC)
    plan = make_allocation("eff1norm-avg", 10, surrogate=po, r=0.1)
    beta = {p.to_text(): b for p, b in plan.entries}
    from paulipatch import trig_moment

    want_x = math.sqrt(trig_moment(2, 0, 0.1))
    want_y = math.sqrt(trig_moment(0, 2, 0.1))
    assert beta["X"] == pytest.approx(want_x / (want_x + want_y))
    worst = make_allocation("eff1norm-worst", 10, surrogate=po, r=0.1)
    betaw = {p.to_text(): b for p, b in worst.entries}
    assert betaw["X"] == pytest.approx(1 / (1 + math.sin(0.1)))


# --- direct protocol ------------------------------------------------------------------------


def test_deterministic_outcomes_for_eigenstate():
    plan = make_allocation("abs-coeff", 500, coeffs={PauliString.from_text("ZZ"): 1.0})
    records = simulate_direct(AllZero(2), plan, seed=1)
    assert np.all(records.outcomes == 1)


def test_zero_expectation_outcomes_balanced():
    plan = make_allocation("abs-coeff", 100000, coeffs={X1: 1.0})
    records = simulate_direct(AllZero(1), plan, seed=2)
    assert abs(records.outcomes.mean()) <= 4 / math.sqrt(len(records))


def test_estimator_unbiased():
    coeffs = {Z1: 0.9, X1: 0.1}
    plan = make_allocation("abs-coeff", 1_000_000, coeffs=coeffs)
    records = simulate_direct(AllZero(1), plan, seed=3)
    est = estimate(records, coeffs, plan)
    # truth = 0.9; per-shot variance <= ||a||_1^2
    stderr = 1.0 / math.sqrt(plan.shots)
    assert abs(est - 0.9) <= 4 * stderr


def test_estimate_zero_coefficients():
    plan = make_allocation("abs-coeff", 100, coeffs={Z1: 1.0})
    records = simulate_direct(AllZero(1), plan, seed=4)
    assert estimate(records, {Z1: 0.0}, plan) == 0.0


def test_estimate_single_pauli_beta_one():
    plan = make_allocation("abs-coeff", 1000, coeffs={Z1: 1.0})
    records = simulate_direct(Dense(np.array([math.sqrt(0.9), math.sqrt(0.1)])),
                              plan, seed=5)
    c = 0.7
    assert estimate(records, {Z1: c}, plan) == pytest.approx(
        c * records.outcomes.mean())


def test_estimate_refuses_unmeasured_support():
    plan = make_allocation("abs-coeff", 100, coeffs={Z1: 1.0})
    records = simulate_direct(AllZero(1), plan, seed=6)
    with pytest.raises(ConfigError):
        estimate(records, {X1: 0.5}, plan)


def test_reweighting_mse_respects_effective_norm_bound(rng):
    """One record set reused across the patch: MSE <= ||c||_1,avg^2 / N_s."""
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(X1)
    po = backpropagate(c, obs, mode=SYMBOLIC)
    r = 0.4
    plan = make_allocation("eff1norm-avg", 400, surrogate=po, r=r)
    from paulipatch import SurrogateEvaluator, effective_norm_avg

    ev = SurrogateEvaluator(po, AllPlus(1))
    norm_avg = effective_norm_avg(po, r)
    sq_errors = []
    for rep in range(300):
        records = simulate_direct(AllPlus(1), plan, seed=1000 + rep)
        alphas = rng.uniform(-r, r, size=(4, 1))
        for a in alphas:
            coeffs = dict(zip(ev.paulis, ev.coefficients(a)))
            err = estimate(records, coeffs, plan) - math.cos(a[0])
            sq_errors.append(err * err)
    mse = float(np.mean(sq_errors))
    bound = norm_avg**2 / plan.shots
    stderr = np.std(sq_errors) / math.sqrt(len(sq_errors))
    assert mse <= bound + 4 * stderr


def test_hoeffding_envelope():
    """N_s from the 2 log(2/delta)/eps^2 recipe covers the truth at rate 1-delta."""
    epsilon, delta = 0.15, 0.1
    coeffs = {Z1: 0.6, X1: 0.4}
    norm1 = 1.0
    shots = math.ceil(2 * norm1**2 * math.log(2 / delta) / epsilon**2)
    truth = 0.6  # <Z> = 1, <X> = 0 on |0>
    plan = make_allocation("abs-coeff", shots, coeffs=coeffs)
    failures = 0
    reps = 1000
    for rep in range(reps):
        records = simulate_direct(AllZero(1), plan, seed=rep)
        if abs(estimate(records, coeffs, plan) - truth) > epsilon:
            failures += 1
    assert failures / reps <= delta + 4 * math.sqrt(delta * (1 - delta) / reps)


# --- shadows ----------------------------------------------------------------------------------


def test_shadows_allzero_z_basis_deterministic():
    records = simulate_shadows(AllZero(3), 20000, seed=7)
    assert np.all(records.bits[records.bases == 2] == 0)
    xbits = records.bits[records.bases == 0]
    assert abs(xbits.mean() - 0.5) <= 4 / math.sqrt(xbits.size)


def test_shadows_allplus_x_basis_deterministic():
    records = simulate_shadows(AllPlus(2), 20000, seed=8)
    assert np.all(records.bits[records.bases == 0] == 0)


def test_shadows_dense_single_qubit():
    state = Dense(np.array([math.sqrt(0.8), math.sqrt(0.2)]))  # <Z> = 0.6
    records = simulate_shadows(state, 30000, seed=9)
    zbits = records.bits[records.bases[:, 0] == 2, 0]
    mean_z = 1 - 2 * zbits.mean()
    assert abs(mean_z - 0.6) <= 4 * math.sqrt(1 / len(zbits))


REF_BASIS_ROTATIONS = {
    0: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),          # X: H
    1: np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2.0),        # Y: H S^dag
    2: np.eye(2, dtype=complex),                                            # Z
}


def ref_dense_shadows(state, shots, seed):
    """Per-shot, per-qubit conditional sampling with one scalar draw per bit."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = state.n
    bases = rng.integers(0, 3, size=(shots, n), dtype=np.uint8)
    psi0 = state_vector(state)
    bits = np.zeros((shots, n), dtype=np.uint8)
    for s in range(shots):
        psi = psi0[np.newaxis, :].copy()
        for q in range(n):
            psi = ref_apply_gate_matrix(psi, REF_BASIS_ROTATIONS[int(bases[s, q])], (q,), n)
            amp = psi[0]
            mask = (np.arange(amp.size) >> q) & 1
            p0 = float(np.sum(np.abs(amp[mask == 0]) ** 2))
            bit = int(rng.random() >= p0)
            bits[s, q] = bit
            keep = mask == bit
            amp = np.where(keep, amp, 0.0)
            norm = math.sqrt(float(np.sum(np.abs(amp) ** 2)))
            psi = (amp / norm)[np.newaxis, :]
    return bases, bits


@pytest.mark.parametrize("n, shots", [(1, 300), (4, 600), (7, 1000), (10, 150)])
def test_dense_shadows_match_per_shot_reference(n, shots):
    # 150 shots span three of the 64-shot blocks of a 10-qubit state, 1000 shots a full
    # 512-shot block of a 7-qubit state and a partial one
    rng = np.random.default_rng(9300 + n)
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = Dense(raw / np.linalg.norm(raw))
    records = simulate_shadows(state, shots, seed=31 + n)
    bases, bits = ref_dense_shadows(state, shots, seed=31 + n)
    assert np.array_equal(records.bases, bases)
    assert np.array_equal(records.bits, bits)


def test_shadow_estimator_contributions():
    records = simulate_shadows(AllZero(1), 10, seed=10)
    # basis mismatch contributes 0; matched Z with bit 0 contributes +3
    values = []
    for i in range(len(records)):
        basis, bits = records[i]
        if basis == "Z":
            values.append(3.0 * (1 - 2 * int(bits[0])))
        else:
            values.append(0.0)
    assert shadow_estimate(records, Z1) == pytest.approx(np.mean(values))
    assert shadow_estimate(records, X1) == pytest.approx(
        np.mean([3.0 * (1 - 2 * int(records[i][1][0]))
                 if records[i][0] == "X" else 0.0 for i in range(len(records))]))


def test_shadow_zz_estimate_and_variance():
    records = simulate_shadows(AllZero(5), 100000, seed=11)
    zz = PauliString.from_sparse("Z0 Z1", 5)
    est = shadow_estimate(records, zz)
    assert abs(est - 1.0) <= 4 * math.sqrt(9 / len(records))
    for weight in (1, 2, 3, 4):
        p = PauliString.from_letters("Z" * weight, range(weight), 5)
        cols = np.array(p.support())
        match = np.all(records.bases[:, cols] == 2, axis=1)
        signs = 1.0 - 2.0 * (records.bits[:, cols].sum(axis=1) % 2)
        values = np.where(match, signs, 0.0) * 3.0**weight
        tolerance = 4 * values.std() ** 2 / math.sqrt(len(values)) + 0.2
        assert values.var() <= 3.0**weight + tolerance


def test_shadow_identity_is_one():
    records = simulate_shadows(AllZero(2), 10, seed=12)
    assert shadow_estimate(records, PauliString.identity(2)) == 1.0


def test_shadow_median_of_means():
    records = simulate_shadows(AllZero(2), 9000, seed=13)
    plain = shadow_estimate(records, PauliString.from_text("ZZ"))
    robust = shadow_estimate(records, PauliString.from_text("ZZ"), median_batches=9)
    assert abs(plain - 1.0) < 0.2 and abs(robust - 1.0) < 0.2
    with pytest.raises(ConfigError):
        shadow_estimate(records, PauliString.from_text("ZZ"), median_batches=0)


# --- sample complexity --------------------------------------------------------------------------


def test_sample_complexity_formulas():
    report = sample_complexity("pp-avg", m=100, kappa=4)
    assert report.formula_id == "thm-d9-avg-samples"
    assert report.value == pytest.approx((3 * math.e * 100 / 4) ** 4)

    report = sample_complexity("pp-even", m=100, kappa=4, n_paulis=7)
    assert report.formula_id == "thm-d11-even-samples"
    assert report.value == pytest.approx(7 * (math.e * 100 / 4) ** 4)

    report = sample_complexity("shadows", n=64, m=100, n_paulis=3,
                               epsilon=0.01, delta=0.02)
    assert report.formula_id == "thm-d10-shadow-samples"
    assert report.value == pytest.approx(
        min(math.log(64), math.log(300)) * math.log(50) / 0.01)

    report = sample_complexity("worst-1norm", norm1_worst=2.0, epsilon=0.1, delta=0.05)
    assert report.formula_id == "lem-b6-worst-samples"
    assert report.value == pytest.approx(2 * math.log(40) * 400)


def test_sample_complexity_hypothesis_violations():
    with pytest.raises(HypothesisViolationError):
        sample_complexity("shadows", n=64, m=100, n_paulis=3, epsilon=0.0, delta=0.5)
    with pytest.raises(ConfigError):
        sample_complexity("nonsense", m=1)


# --- record logs ----------------------------------------------------------------------------------


def test_shot_record_log_round_trip(tmp_path):
    coeffs = {Z1: 0.7, X1: 0.3}
    plan = make_allocation("abs-coeff", 500, coeffs=coeffs)
    records = simulate_direct(AllZero(1), plan, seed=17)
    path = tmp_path / "shots.bin"
    save_shot_records(records, plan, path)
    loaded, loaded_plan = load_shot_records(path)
    assert np.array_equal(loaded.pauli_index, records.pauli_index)
    assert np.array_equal(loaded.outcomes, records.outcomes)
    assert loaded.stream == records.stream
    assert loaded_plan.strategy == plan.strategy
    assert estimate(loaded, coeffs, loaded_plan) == estimate(records, coeffs, plan)


def test_shadow_record_log_round_trip(tmp_path):
    records = simulate_shadows(AllZero(3), 400, seed=18)
    path = tmp_path / "shadows.bin"
    save_shadow_records(records, path)
    loaded = load_shadow_records(path)
    assert np.array_equal(loaded.bases, records.bases)
    assert np.array_equal(loaded.bits, records.bits)
    assert shadow_estimate(loaded, PauliString.from_sparse("Z0 Z2", 3)) == \
        shadow_estimate(records, PauliString.from_sparse("Z0 Z2", 3))


def test_record_logs_reject_truncated_or_padded_files(tmp_path):
    plan = make_allocation("abs-coeff", 50, coeffs={Z1: 0.7, X1: 0.3})
    shots = tmp_path / "shots.bin"
    save_shot_records(simulate_direct(AllZero(1), plan, seed=17), plan, shots)
    shadows = tmp_path / "shadows.bin"
    save_shadow_records(simulate_shadows(AllZero(3), 40, seed=18), shadows)
    for path, load in ((shots, load_shot_records), (shadows, load_shadow_records)):
        good = path.read_bytes()
        for bad in (good[:-1], good + b"\x00", good + b"extra"):
            path.write_bytes(bad)
            with pytest.raises(ValidationError):
                load(path)


def _edit_header(path, edit):
    """Rewrite a record log's header line with ``edit(header)``; keep the records.

    ``edit`` changes the header in place or returns a replacement: an object to
    write as JSON, or raw bytes.
    """
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header = edit(header) or header
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    path.write_bytes(header + b"\n" + payload)


@pytest.mark.parametrize("edit", [
    lambda h: b"{not json",
    lambda h: [h],
    lambda h: h.pop("paulis") and None,
    lambda h: h.pop("stream") and None,
    lambda h: h.update(count="4"),
    lambda h: h.update(count=4.0),
    lambda h: h.update(stream="17"),
    lambda h: h.update(shots=True),
    lambda h: h.update(paulis=[1, 2]),
    lambda h: h.update(paulis="ZX"),
    lambda h: h.update(beta=["0.7", "0.3"]),
    lambda h: h.update(beta=[0.7]),
    lambda h: h.update(beta=[0.6, 0.3]),
    lambda h: h.update(strategy="banana"),
    lambda h: h.update(version=True),
], ids=["not-json", "not-object", "missing-paulis", "missing-stream", "string-count",
        "float-count", "string-stream", "bool-shots", "int-paulis", "string-paulis",
        "string-beta", "short-beta", "beta-not-normalized", "unknown-strategy",
        "bool-version"])
def test_shot_log_rejects_malformed_header(tmp_path, edit):
    plan = make_allocation("abs-coeff", 4, coeffs={Z1: 0.7, X1: 0.3})
    path = tmp_path / "shots.bin"
    save_shot_records(simulate_direct(AllZero(1), plan, seed=17), plan, path)
    load_shot_records(path)
    _edit_header(path, edit)
    with pytest.raises(ValidationError):
        load_shot_records(path)


def test_shot_log_rejects_index_outside_plan(tmp_path):
    plan = make_allocation("abs-coeff", 50, coeffs={Z1: 0.7, X1: 0.3})
    path = tmp_path / "shots.bin"
    save_shot_records(simulate_direct(AllZero(1), plan, seed=17), plan, path)
    # one Pauli fewer in the plan: the shots of the second one now point past its end
    _edit_header(path, lambda h: h.update(paulis=["Z"], beta=[1.0]))
    with pytest.raises(ValidationError):
        load_shot_records(path)


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: h.pop("n") and None,
    lambda h: h.update(n="3"),
    lambda h: h.update(n=-3),
    lambda h: h.update(count=40.0),
    lambda h: h.update(stream=1.5),
], ids=["not-object", "missing-n", "string-n", "negative-n", "float-count", "float-stream"])
def test_shadow_log_rejects_malformed_header(tmp_path, edit):
    path = tmp_path / "shadows.bin"
    save_shadow_records(simulate_shadows(AllZero(3), 40, seed=18), path)
    load_shadow_records(path)
    _edit_header(path, edit)
    with pytest.raises(ValidationError):
        load_shadow_records(path)


def test_shadow_log_rejects_unknown_basis_code(tmp_path):
    path = tmp_path / "shadows.bin"
    save_shadow_records(simulate_shadows(AllZero(3), 40, seed=18), path)
    line, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(line + b"\n" + bytes([3]) + payload[1:])  # first basis of shot 0
    with pytest.raises(ValidationError):
        load_shadow_records(path)


def test_records_reproducible_for_seed():
    plan = make_allocation("abs-coeff", 1000, coeffs={Z1: 1.0, X1: 0.5})
    a = simulate_direct(AllZero(1), plan, seed=99)
    b = simulate_direct(AllZero(1), plan, seed=99)
    assert np.array_equal(a.pauli_index, b.pauli_index)
    assert np.array_equal(a.outcomes, b.outcomes)
