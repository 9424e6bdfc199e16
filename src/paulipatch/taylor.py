"""Taylor patch surrogates around arbitrary parameter points.

The surrogate is the order-``kappa`` multivariate Taylor expansion of a loss
``f(alpha)``, built from iterated two-point parameter-shift derivatives: for
rotations ``exp(-i*alpha*P/2)`` the rule ``[f(a + pi/2) - f(a - pi/2)] / 2``
is the exact first derivative, and composing it covers mixed and higher
orders. Only unique derivatives are evaluated (multisets of parameter
indices), and all shifted evaluation points are memoized within a build, so
the oracle-call ledger stays well under the multinomial worst case. The new
points of each derivative order go to the oracle as one batch.

The rule is exact only when each parameter drives a single rotation, so the
circuit-backed oracles refuse circuits that reuse a parameter.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import documents
from .circuits import Circuit
from .documents import integer, number
from .errors import (
    ConfigError,
    DimensionError,
    HypothesisViolationError,
    PauliPatchError,
    ValidationError,
)
from .measurement import estimate, make_allocation, simulate_direct
from .pauli import ObservableSpec
from .states import InitialState, evolve_state, exact_expectation_batch
from .surrogate import BoundReport

# sparse multi-index: sorted ((param, order), ...) with all orders >= 1
SparseIndex = tuple[tuple[int, int], ...]


@dataclass
class EvalLedger:
    """Oracle-call accounting for one surrogate build."""

    evaluations: int = 0            # distinct oracle calls actually made
    nominal_evaluations: int = 0    # sum of 2^|k| over computed derivatives
    unique_derivatives: int = 0
    n_d_max: int = 1                # max per-derivative nominal cost 2^|k|

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class LossOracle:
    """A loss landscape ``alpha -> f(alpha)`` with derivative-bound metadata.

    ``func`` evaluates a batch: it maps a ``(rows, m)`` array of parameter
    points to the ``(rows,)`` array of their losses. Calling the oracle
    evaluates one point.
    """

    func: Callable[[np.ndarray], np.ndarray]
    m: int
    gamma: float = 1.0
    obs_norm: float = 1.0

    def __call__(self, alphas: Sequence[float]) -> float:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (self.m,):
            raise DimensionError(f"expected {self.m} parameters, got {alphas.shape}")
        return float(self.batch(alphas[np.newaxis, :])[0])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Losses at the rows of a ``(rows, m)`` array, in one ``func`` call."""
        values = np.asarray(self.func(points), dtype=float)
        if values.shape != (points.shape[0],):
            raise DimensionError(
                f"loss function returned shape {values.shape} for {points.shape[0]} points"
            )
        return values


def _require_single_use_parameters(circuit: Circuit) -> None:
    """Refuse circuits where the two-point shift rule is not the exact derivative."""
    uses = Counter(g.param.index for g in circuit.rotations if not g.param.is_fixed)
    shared = sorted(index for index, count in uses.items() if count > 1)
    if shared:
        raise HypothesisViolationError(
            f"parameters {shared} each drive more than one rotation; the two-point "
            "shift rule is exact only for one rotation per parameter"
        )


def exact_oracle(circuit: Circuit, obs: ObservableSpec, state: InitialState) -> LossOracle:
    """Loss oracle backed by the dense statevector reference."""
    _require_single_use_parameters(circuit)
    return LossOracle(
        func=lambda points: exact_expectation_batch(circuit, points, obs, state),
        m=circuit.m,
        gamma=derivative_growth_gamma(circuit),
        obs_norm=obs.norm1,
    )


def sampled_oracle(circuit: Circuit, obs: ObservableSpec, state: InitialState,
                   shots: int, seed: int) -> LossOracle:
    """Shot-noisy oracle: each point measures the evolved state and reweights.

    The ``k``-th point evaluated, counting rows in order across calls, draws
    its shots from ``np.random.SeedSequence([seed, k])``, so a rebuilt oracle
    replays the identical noise sequence.
    """
    _require_single_use_parameters(circuit)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    coeffs = {p: c for p, c in obs.terms}
    plan = make_allocation("abs-coeff", shots, coeffs=coeffs)
    counter = itertools.count()

    def run(points: np.ndarray) -> np.ndarray:
        values = []
        for alphas in points:
            evolved = evolve_state(circuit, alphas, state)
            stream = np.random.SeedSequence([seed, next(counter)])
            records = simulate_direct(evolved, plan, seed=int(stream.generate_state(1)[0]))
            values.append(estimate(records, coeffs, plan))
        return np.array(values)

    return LossOracle(func=run, m=circuit.m,
                      gamma=derivative_growth_gamma(circuit), obs_norm=obs.norm1)


# --- parameter-shift derivatives -----------------------------------------------------


def _shift_combinations(kvec: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Half-pi shift offsets and weights realizing the iterated two-point rule."""
    m = len(kvec)
    terms: dict[tuple[int, ...], float] = {(0,) * m: 1.0}
    for param, order in enumerate(kvec):
        for _ in range(order):
            new: dict[tuple[int, ...], float] = {}
            for offset, weight in terms.items():
                for sign in (1, -1):
                    shifted = list(offset)
                    shifted[param] += sign
                    key = tuple(shifted)
                    new[key] = new.get(key, 0.0) + weight * sign / 2.0
            terms = {k: w for k, w in new.items() if w != 0.0}
    return terms


def shift_derivative(
    oracle: LossOracle,
    center: Sequence[float],
    kvec: Sequence[int],
    ledger: EvalLedger | None = None,
    memo: dict[tuple[int, ...], float] | None = None,
) -> float:
    """Iterated parameter-shift partial derivative of ``oracle`` at ``center``.

    ``kvec[l]`` is the derivative order in parameter ``l``. Exact for Pauli
    rotation circuits; total nominal cost is ``2**sum(kvec)`` evaluations.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (oracle.m,) or len(kvec) != oracle.m:
        raise DimensionError(f"center and multi-index must have length {oracle.m}")
    if any(k < 0 for k in kvec):
        raise ConfigError(f"derivative orders must be >= 0: {kvec}")
    order = int(sum(kvec))
    memo = {} if memo is None else memo
    if ledger is not None:
        ledger.nominal_evaluations += 2 ** order
        ledger.n_d_max = max(ledger.n_d_max, 2 ** order)
        ledger.unique_derivatives += 1

    combinations = _shift_combinations(kvec)
    _evaluate_new(oracle, center, combinations, memo, ledger)
    total = 0.0
    for offset, weight in combinations.items():
        total += weight * memo[offset]
    return total


def _evaluate_new(oracle: LossOracle, center: np.ndarray, offsets,
                  memo: dict[tuple[int, ...], float], ledger: EvalLedger | None) -> None:
    """Evaluate the offsets missing from ``memo``, in first-seen order, in one batch."""
    new = list(dict.fromkeys(offset for offset in offsets if offset not in memo))
    if not new:
        return
    points = center + (math.pi / 2.0) * np.asarray(new, dtype=float)
    for offset, value in zip(new, oracle.batch(points)):
        memo[offset] = float(value)
    if ledger is not None:
        ledger.evaluations += len(new)


# --- the surrogate --------------------------------------------------------------------


@dataclass
class TaylorSurrogate:
    """Order-``kappa`` Taylor model: sparse multi-index -> derivative value."""

    center: tuple[float, ...]
    order: int
    entries: dict[SparseIndex, float]
    ledger: EvalLedger

    @property
    def m(self) -> int:
        return len(self.center)

    def to_json(self) -> str:
        doc = {
            "format": "taylor-surrogate",
            "version": 1,
            "center": list(self.center),
            "order": self.order,
            "entries": [
                {"k": [list(pair) for pair in key], "value": value}
                for key, value in sorted(self.entries.items())
            ],
            "ledger": self.ledger.as_dict(),
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, document: str) -> "TaylorSurrogate":
        """Read a ``to_json`` document; a malformed one raises ``ValidationError``."""
        doc = documents.parse(document, "taylor surrogate", "taylor-surrogate")
        with documents.fields("taylor surrogate"):
            center = tuple(number(value) for value in doc["center"])
            entries = {}
            for raw in doc["entries"]:
                key = tuple((integer(param), integer(power)) for param, power in raw["k"])
                if any(not 0 <= param < len(center) or power < 1 for param, power in key):
                    raise ValidationError(
                        f"entry {raw['k']} needs params in [0, {len(center)}) and orders >= 1")
                entries[key] = number(raw["value"])
            for key, value in doc["ledger"].items():
                number(value, f"ledger.{key}")
            # documents written before the ledger lost its constant "b0" (always 1.0) carry it
            ledger = {key: value for key, value in doc["ledger"].items() if key != "b0"}
            return cls(center=center, order=integer(doc["order"], "order"), entries=entries,
                       ledger=EvalLedger(**ledger))


def unique_derivative_count(m: int, kappa: int) -> int:
    """Number of distinct partial derivatives up to order ``kappa``."""
    return sum(math.comb(m + k - 1, k) for k in range(kappa + 1))


def evaluation_budget_bound(m: int, kappa: int, n_d: int) -> float:
    """Upper bound n_d * [e (m + kappa - 1) / kappa]^kappa on total oracle calls."""
    if kappa == 0:
        return float(n_d)
    return n_d * (math.e * (m + kappa - 1) / kappa) ** kappa


def build_taylor(oracle: LossOracle, center: Sequence[float], kappa: int) -> TaylorSurrogate:
    """Evaluate all unique derivatives to order ``kappa`` via parameter shifts."""
    if kappa < 0:
        raise ConfigError(f"order must be >= 0, got {kappa}")
    center = np.asarray(center, dtype=float)
    if center.shape != (oracle.m,):
        raise DimensionError(f"expected center of length {oracle.m}")
    m = oracle.m
    ledger = EvalLedger()
    memo: dict[tuple[int, ...], float] = {}
    entries: dict[SparseIndex, float] = {}
    for k in range(kappa + 1):
        kvecs = []
        for combo in itertools.combinations_with_replacement(range(m), k):
            kvec = [0] * m
            for param in combo:
                kvec[param] += 1
            kvecs.append(kvec)
        # the order's new shift points go to the oracle as one batch
        _evaluate_new(oracle, center,
                      (offset for kvec in kvecs for offset in _shift_combinations(kvec)),
                      memo, ledger)
        for kvec in kvecs:
            sparse = tuple((p, o) for p, o in enumerate(kvec) if o)
            entries[sparse] = shift_derivative(oracle, center, kvec,
                                               ledger=ledger, memo=memo)
    expected = unique_derivative_count(m, kappa)
    if ledger.unique_derivatives != expected:
        raise PauliPatchError(
            f"derivative enumeration drift: {ledger.unique_derivatives} != {expected}"
        )
    budget = evaluation_budget_bound(m, kappa, ledger.n_d_max)
    if ledger.evaluations > budget:
        raise PauliPatchError(
            f"oracle calls {ledger.evaluations} exceed the budget bound {budget:.1f}"
        )
    return TaylorSurrogate(tuple(center), kappa, entries, ledger)


def eval_taylor(ts: TaylorSurrogate, alphas: Sequence[float]) -> float:
    """Evaluate the Taylor model: sum over entries of value * prod delta^k / k!."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (ts.m,):
        raise DimensionError(f"expected {ts.m} parameters, got {alphas.shape}")
    delta = alphas - np.asarray(ts.center)
    total = 0.0
    for sparse, value in ts.entries.items():
        factor = 1.0
        for param, order in sparse:
            factor *= delta[param] ** order / math.factorial(order)
        total += value * factor
    return float(total)


# --- bound calculators -----------------------------------------------------------------


def taylor_bounds(kind: str, m: int, r: float, kappa: int, gamma: float,
                  obs_norm: float) -> BoundReport:
    """Truncation-error bounds for the order-``kappa`` Taylor patch surrogate.

    ``worst`` gives obs_norm (gamma r m)^{kappa+1} / (kappa+1)! (meaningful
    for r ~ 1/m); ``mse`` gives the mean-square bound for r ~ 1/sqrt(m). Both
    annotate their regime instead of refusing.
    """
    if min(m, kappa) < 0 or r < 0 or gamma < 0 or obs_norm < 0:
        raise ConfigError("inputs must be nonnegative")
    inputs = {"m": m, "r": r, "kappa": kappa, "gamma": gamma, "obs_norm": obs_norm}
    if kind == "worst":
        value = obs_norm * (gamma * r * m) ** (kappa + 1) / math.factorial(kappa + 1)
        return BoundReport("prop-c2-worst", inputs, float(value),
                           flags=("regime:r-in-O(1/m)",))
    if kind == "mse":
        x = gamma * gamma * m * r * r / 3.0
        value = ((2.0 * x) ** ((kappa + 1) / 2.0) * obs_norm
                 * math.exp(x) / math.sqrt(math.factorial(kappa + 1)))
        return BoundReport("prop-c3-mse", inputs, float(value),
                           flags=("regime:r-in-O(1/sqrt(m))",))
    raise ConfigError(f"unknown bound kind {kind!r}")


def derivative_growth_gamma(circuit: Circuit) -> float:
    """Derivative-growth constant 2 * max_l ||H_l|| for the circuit's rotations.

    Every rotation here is exp(-i*alpha*P/2) with ||P/2|| = 1/2, so the
    constant is 1; ``gamma_for_generator_norm`` covers rescaled generators.
    """
    return 1.0


def gamma_for_generator_norm(h_norm: float) -> float:
    """Derivative-growth constant for a generator with spectral norm ``h_norm``."""
    if h_norm < 0:
        raise ConfigError(f"norm must be >= 0, got {h_norm}")
    return 2.0 * h_norm
