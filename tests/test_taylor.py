"""Taylor patch surrogates: shift derivatives, budgets, and error bounds."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from paulipatch import (
    AllPlus,
    AllZero,
    Circuit,
    ConfigError,
    HypothesisViolationError,
    LossOracle,
    ObservableSpec,
    ParamRef,
    PauliString,
    Rotation,
    TaylorSurrogate,
    ValidationError,
    build_taylor,
    build_tfi_trotter,
    chain,
    derivative_growth_gamma,
    estimate,
    eval_taylor,
    evolve_state,
    exact_expectation,
    exact_oracle,
    make_allocation,
    sampled_oracle,
    simulate_direct,
    shift_derivative,
    taylor_bounds,
)
from paulipatch.taylor import (
    EvalLedger,
    _shift_combinations,
    evaluation_budget_bound,
    unique_derivative_count,
)

from conftest import random_mixed_circuit, random_observable


def cosine_oracle():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    return exact_oracle(c, obs, AllPlus(1))


# --- shift derivatives ----------------------------------------------------------------


def test_first_derivative_of_cos_at_zero():
    assert shift_derivative(cosine_oracle(), [0.0], [1]) == pytest.approx(0.0, abs=1e-12)


def test_first_derivative_of_cos_at_quarter_pi():
    value = shift_derivative(cosine_oracle(), [math.pi / 4], [1])
    assert value == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)
    assert value == pytest.approx(-0.70711, abs=1e-5)


def test_second_derivative_of_cos_at_zero():
    assert shift_derivative(cosine_oracle(), [0.0], [2]) == pytest.approx(-1.0, abs=1e-12)


def richardson_derivative(f, center, param, order, m, h=1e-3):
    """Richardson-extrapolated central differences, an independent oracle."""

    def diff(step):
        if order == 1:
            return (f(_shift(center, param, step, m))
                    - f(_shift(center, param, -step, m))) / (2 * step)
        if order == 2:
            return (f(_shift(center, param, step, m)) - 2 * f(np.asarray(center))
                    + f(_shift(center, param, -step, m))) / step**2
        return (f(_shift(center, param, 2 * step, m))
                - 2 * f(_shift(center, param, step, m))
                + 2 * f(_shift(center, param, -step, m))
                - f(_shift(center, param, -2 * step, m))) / (2 * step**3)
    d1, d2 = diff(h), diff(h / 2)
    return d2 + (d2 - d1) / 3.0


def _shift(center, param, step, m):
    out = np.array(center, dtype=float)
    out[param] += step
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_shift_rule_matches_richardson(seed, order):
    rng = np.random.default_rng(400 + seed)
    c = random_mixed_circuit(rng, n=3, n_rot=4)
    obs = random_observable(rng, 3)
    oracle = exact_oracle(c, obs, AllZero(3))
    center = rng.uniform(-0.5, 0.5, size=c.m)
    param = int(rng.integers(c.m))
    kvec = [0] * c.m
    kvec[param] = order
    exact = shift_derivative(oracle, center, kvec)
    numeric = richardson_derivative(oracle, center, param, order, c.m)
    assert exact == pytest.approx(numeric, abs=1e-6)


def test_mixed_partials_are_symmetric(rng):
    c = random_mixed_circuit(rng, n=2, n_rot=3)
    obs = random_observable(rng, 2)
    oracle = exact_oracle(c, obs, AllZero(2))
    if c.m < 2:
        pytest.skip("circuit drew fewer than 2 parameters")
    center = rng.uniform(-0.3, 0.3, size=c.m)
    kvec = [0] * c.m
    kvec[0], kvec[1] = 1, 1
    direct = shift_derivative(oracle, center, kvec)
    # finite-difference of first derivatives as the cross check
    h = 1e-4

    def d0(alpha1):
        point = center.copy()
        point[1] = alpha1
        kv = [0] * c.m
        kv[0] = 1
        return shift_derivative(oracle, point, kv)

    cross = (d0(center[1] + h) - d0(center[1] - h)) / (2 * h)
    assert direct == pytest.approx(cross, abs=1e-6)


# --- build and evaluate ---------------------------------------------------------------


def test_order_zero_surrogate_is_constant():
    oracle = cosine_oracle()
    ts = build_taylor(oracle, [0.4], kappa=0)
    for alpha in (0.0, 0.4, 1.0):
        assert eval_taylor(ts, [alpha]) == pytest.approx(math.cos(0.4))


def test_eval_at_center_returns_value(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=5)
    obs = random_observable(rng, 3)
    oracle = exact_oracle(c, obs, AllZero(3))
    center = rng.uniform(-0.4, 0.4, size=c.m)
    ts = build_taylor(oracle, center, kappa=2)
    assert eval_taylor(ts, center) == pytest.approx(oracle(center), abs=1e-12)


def test_cosine_taylor_frozen_values():
    ts = build_taylor(cosine_oracle(), [0.0], kappa=4)
    value = eval_taylor(ts, [0.3])
    assert value == pytest.approx(1 - 0.045 + 0.0003375, abs=1e-10)
    assert abs(value - math.cos(0.3)) < 1.1e-5


def test_unique_derivative_counts():
    assert unique_derivative_count(10, 2) == 66  # 1 + 10 + 55
    assert unique_derivative_count(2, 3) == 10
    assert unique_derivative_count(5, 0) == 1


def one_call_per_point_build(oracle, center, kappa):
    """Entries and ledger of a build that calls the oracle once per new shift point."""
    center = np.asarray(center, dtype=float)
    m = oracle.m
    ledger = EvalLedger()
    memo = {}
    entries = {}
    for k in range(kappa + 1):
        for combo in itertools.combinations_with_replacement(range(m), k):
            kvec = [0] * m
            for param in combo:
                kvec[param] += 1
            ledger.nominal_evaluations += 2 ** k
            ledger.n_d_max = max(ledger.n_d_max, 2 ** k)
            ledger.unique_derivatives += 1
            total = 0.0
            for offset, weight in _shift_combinations(kvec).items():
                value = memo.get(offset)
                if value is None:
                    value = oracle(center + (math.pi / 2.0) * np.asarray(offset, dtype=float))
                    memo[offset] = value
                    ledger.evaluations += 1
                total += weight * value
            entries[tuple((p, o) for p, o in enumerate(kvec) if o)] = total
    return entries, ledger


@pytest.mark.parametrize("sampled", [False, True])
def test_build_matches_one_call_per_point(sampled):
    rng = np.random.default_rng(9400)
    c = random_mixed_circuit(rng, n=4, n_rot=7)
    obs = random_observable(rng, 4, terms=3)
    center = rng.uniform(-0.4, 0.4, size=c.m)
    kappa = 2 if sampled else 3

    def make():
        if sampled:
            return sampled_oracle(c, obs, AllZero(4), shots=300, seed=77)
        return exact_oracle(c, obs, AllZero(4))

    oracle = make()
    rows = []
    func = oracle.func
    oracle.func = lambda points: rows.append(len(points)) or func(points)
    ts = build_taylor(oracle, center, kappa=kappa)
    entries, ledger = one_call_per_point_build(make(), center, kappa)
    assert ts.entries == entries
    assert list(ts.entries) == list(entries)
    assert ts.ledger.as_dict() == ledger.as_dict()
    # one oracle call per derivative order
    assert len(rows) == kappa + 1 and sum(rows) == ledger.evaluations


def test_build_ledger_within_budget():
    gates = tuple(Rotation("Z", (q % 2,), ParamRef.free(q)) for q in range(10))
    c = Circuit(2, 10, gates)
    obs = ObservableSpec.single(PauliString.from_text("XI"))
    oracle = exact_oracle(c, obs, AllZero(2))
    ts = build_taylor(oracle, np.zeros(10), kappa=2)
    assert ts.ledger.unique_derivatives == 66
    budget = evaluation_budget_bound(10, 2, ts.ledger.n_d_max)
    assert budget == pytest.approx(4 * (math.e * 11 / 2) ** 2)
    assert ts.ledger.evaluations <= budget
    assert ts.ledger.evaluations <= 2 * (math.e * 11 / 2) ** 2  # ~447 in practice


def test_patch_error_respects_worst_case_bound(rng):
    from scipy.stats import qmc

    c = random_mixed_circuit(rng, n=3, n_rot=6)
    obs = random_observable(rng, 3)
    oracle = exact_oracle(c, obs, AllZero(3))
    center = rng.uniform(-0.2, 0.2, size=c.m)
    kappa = 3
    r = 0.5 / c.m
    ts = build_taylor(oracle, center, kappa=kappa)
    sampler = qmc.Sobol(d=c.m, scramble=True, seed=np.random.default_rng(5))
    points = center + (2 * sampler.random(256) - 1) * r
    worst = max(abs(eval_taylor(ts, p) - oracle(p)) for p in points)
    bound = taylor_bounds("worst", c.m, r, kappa, 1.0, obs.norm1).value
    assert worst <= bound


def test_shot_noise_error_scales_inverse_sqrt():
    c = Circuit(1, 2, (Rotation("X", (0,), ParamRef.free(0)),
                       Rotation("Y", (0,), ParamRef.free(1))))
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    center = np.array([0.15, -0.2])
    truth = exact_expectation(c, center, obs, AllZero(1))
    budgets = [100, 1000, 10000, 100000]
    errors = []
    for shots in budgets:
        sq = 0.0
        reps = 30
        for rep in range(reps):
            oracle = sampled_oracle(c, obs, AllZero(1), shots=shots,
                                    seed=shots * 1000 + rep)
            ts = build_taylor(oracle, center, kappa=0)
            sq += (eval_taylor(ts, center) - truth) ** 2
        errors.append(math.sqrt(sq / reps))
    slope = np.polyfit(np.log(budgets), np.log(errors), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


# --- bounds and gamma ------------------------------------------------------------------


def test_taylor_bound_values():
    worst = taylor_bounds("worst", m=8, r=0.05, kappa=3, gamma=1.0, obs_norm=1.0)
    assert worst.formula_id == "prop-c2-worst"
    assert worst.value == pytest.approx((0.05 * 8) ** 4 / 24)
    x = 8 * 0.1**2 / 3
    mse = taylor_bounds("mse", m=8, r=0.1, kappa=2, gamma=1.0, obs_norm=1.0)
    assert mse.formula_id == "prop-c3-mse"
    assert mse.value == pytest.approx((2 * x) ** 1.5 * math.exp(x) / math.sqrt(6))


def test_taylor_bounds_vanish_at_large_order():
    values = [taylor_bounds("worst", 8, 0.05, k, 1.0, 1.0).value for k in range(12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12
    with pytest.raises(ConfigError):
        taylor_bounds("median", 8, 0.05, 2, 1.0, 1.0)


def test_gamma_for_pauli_rotations(rng):
    c = random_mixed_circuit(rng, n=3, n_rot=4)
    assert derivative_growth_gamma(c) == 1.0


def test_second_derivative_bounded_by_gamma(rng):
    for seed in range(3):
        local = np.random.default_rng(500 + seed)
        c = random_mixed_circuit(local, n=2, n_rot=4)
        obs = random_observable(local, 2)
        oracle = exact_oracle(c, obs, AllZero(2))
        for _ in range(20):
            center = local.uniform(-math.pi, math.pi, size=c.m)
            kvec = [0] * c.m
            kvec[int(local.integers(c.m))] = 2
            value = shift_derivative(oracle, center, kvec)
            assert abs(value) <= oracle.gamma**2 * obs.norm1 + 1e-9


def test_sampled_oracle_seeds_each_point_from_a_seed_sequence():
    c = Circuit(1, 1, (Rotation("X", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    oracle = sampled_oracle(c, obs, AllZero(1), shots=50, seed=9)
    points = np.array([[0.3], [1.1], [0.3]])
    plan = make_allocation("abs-coeff", 50, coeffs=dict(obs.terms))
    expected = []
    for k, point in enumerate(points):
        stream = int(np.random.SeedSequence([9, k]).generate_state(1)[0])
        records = simulate_direct(evolve_state(c, point, AllZero(1)), plan, seed=stream)
        expected.append(estimate(records, dict(obs.terms), plan))
    assert [oracle(points[0]), *oracle.batch(points[1:])] == expected
    with pytest.raises(ConfigError):
        sampled_oracle(c, obs, AllZero(1), shots=50, seed=-1)


def test_oracles_refuse_shared_parameters():
    # one parameter drives all 10 rotations; for <ZZI> on |000> at alpha=0.3 the
    # two-point rule gives -0.223 where a central difference gives -1.655
    c = build_tfi_trotter(chain(3), layers=2, dt=0.3, binding="shared")
    assert c.m == 1 and len(c.rotations) == 10
    obs = ObservableSpec.single(PauliString.from_text("ZZI"))
    with pytest.raises(HypothesisViolationError):
        exact_oracle(c, obs, AllZero(3))
    with pytest.raises(HypothesisViolationError):
        sampled_oracle(c, obs, AllZero(3), shots=100, seed=1)


def test_surrogate_json_round_trip(rng):
    c = random_mixed_circuit(rng, n=2, n_rot=3)
    obs = random_observable(rng, 2)
    ts = build_taylor(exact_oracle(c, obs, AllZero(2)), np.zeros(c.m), kappa=2)
    loaded = TaylorSurrogate.from_json(ts.to_json())
    assert loaded.entries == ts.entries
    assert loaded.center == ts.center
    probe = rng.uniform(-0.2, 0.2, size=c.m)
    assert eval_taylor(loaded, probe) == eval_taylor(ts, probe)


def entry_loop(ts, alphas):
    """The per-entry loop ``eval_taylor`` ran before it was compiled: the reference."""
    delta = np.asarray(alphas, dtype=float) - np.asarray(ts.center)
    total = 0.0
    for sparse, value in ts.entries.items():
        factor = 1.0
        for param, order in sparse:
            factor *= delta[param] ** order / math.factorial(order)
        total += value * factor
    return float(total)


@pytest.mark.parametrize("kappa", [0, 1, 2, 3])
def test_compiled_taylor_matches_the_entry_loop(kappa):
    rng = np.random.default_rng(9800 + kappa)
    c = random_mixed_circuit(rng, n=3, n_rot=4)
    obs = random_observable(rng, 3, terms=2)
    center = rng.uniform(-0.4, 0.4, size=c.m)
    ts = build_taylor(exact_oracle(c, obs, AllZero(3)), center, kappa=kappa)
    # the build lists entries by order, the document by sorted key
    loaded = TaylorSurrogate.from_json(ts.to_json())
    assert kappa < 2 or list(loaded.entries) != list(ts.entries)
    scale = sum(abs(v) for v in ts.entries.values())
    for alphas in center + rng.uniform(-0.3, 0.3, size=(20, c.m)):
        got = eval_taylor(ts, alphas)
        assert abs(got - entry_loop(ts, alphas)) <= 1e-15 * scale
        assert eval_taylor(loaded, alphas) == got
    assert eval_taylor(ts, center) == ts.entries[()]


def test_taylor_entries_are_read_only():
    ts = TaylorSurrogate((0.0,), 1, {(): 0.5, ((0, 1),): 0.25}, EvalLedger())
    with pytest.raises(TypeError):
        ts.entries[()] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.entries = {(): 1.0}
    assert eval_taylor(ts, [0.5]) == 0.5 + 0.25 * 0.5


def _taylor_doc():
    ts = TaylorSurrogate((0.1, -0.2), 2, {(): 0.5, ((0, 1),): 0.25, ((0, 1), (1, 1)): -0.125},
                         EvalLedger(evaluations=9, unique_derivatives=3))
    return json.loads(ts.to_json())


def _set_pair(doc, index, value):
    doc["entries"][-1]["k"][0][index] = value  # the last entry is ((0, 1), (1, 1))


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(version=99),
    lambda doc: doc.pop("version"),
    lambda doc: doc["entries"][0].update(value="0.5"),
    lambda doc: doc["entries"][0].update(value=True),
    lambda doc: _set_pair(doc, 0, 2),
    lambda doc: _set_pair(doc, 0, -1),
    lambda doc: _set_pair(doc, 0, 0.0),
    lambda doc: _set_pair(doc, 1, 0),
    lambda doc: doc["entries"][-1]["k"][0].append(1),
    lambda doc: doc["entries"][0].pop("value"),
    lambda doc: doc.update(entries=5),
    lambda doc: doc.update(center=["0.1", -0.2]),
    lambda doc: doc.update(order="2"),
    lambda doc: doc.update(ledger=5),
    lambda doc: doc["ledger"].update(evaluations="9"),
    lambda doc: doc["ledger"].update(banana=1),
    lambda doc: doc.update(format="banana"),
    lambda doc: doc.update(format=None),
    lambda doc: doc.pop("format"),
    lambda doc: doc.update(format="landscape-patch-surrogate"),
    lambda doc: doc.update(version=True),
    lambda doc: doc["entries"][0].update(value=math.nan),
    lambda doc: doc["entries"][-1].update(value=math.inf),
    lambda doc: doc.update(center=[-math.inf, -0.2]),
], ids=["version-99", "no-version", "string-value", "bool-value", "param-at-m",
        "negative-param", "float-param", "zero-order", "three-item-pair", "missing-value",
        "entries-not-a-list", "string-center", "string-order", "ledger-not-a-dict",
        "string-ledger-count", "extra-ledger-key", "wrong-format", "null-format", "no-format",
        "artifact-format", "bool-version", "nan-value", "infinite-value",
        "infinite-center"])
def test_surrogate_from_json_rejects_malformed_documents(corrupt):
    doc = _taylor_doc()
    assert TaylorSurrogate.from_json(json.dumps(doc)).entries[((0, 1), (1, 1))] == -0.125
    corrupt(doc)
    with pytest.raises(ValidationError):
        TaylorSurrogate.from_json(json.dumps(doc))


def test_surrogate_from_json_reads_a_document_with_b0():
    # documents written while the ledger still had its constant b0 field load unchanged
    doc = _taylor_doc()
    assert "b0" not in doc["ledger"]
    doc["ledger"]["b0"] = 1.0
    ts = TaylorSurrogate.from_json(json.dumps(doc))
    assert ts.ledger == EvalLedger(evaluations=9, unique_derivatives=3)
    assert ts.entries[((0, 1), (1, 1))] == -0.125
    doc["ledger"]["b0"] = "1.0"  # its value is still checked
    with pytest.raises(ValidationError):
        TaylorSurrogate.from_json(json.dumps(doc))


def test_surrogate_from_json_rejects_a_non_object_document():
    with pytest.raises(ValidationError):
        TaylorSurrogate.from_json(json.dumps([_taylor_doc()]))


@pytest.mark.parametrize("document", ["{not json", "", "[1, 2"],
                         ids=["not-json", "empty", "truncated"])
def test_surrogate_from_json_rejects_unreadable_text(document):
    with pytest.raises(ValidationError):
        TaylorSurrogate.from_json(document)


def test_loss_oracle_validates_length():
    oracle = LossOracle(func=lambda a: 0.0, m=3)
    with pytest.raises(Exception):
        oracle([0.1, 0.2])
