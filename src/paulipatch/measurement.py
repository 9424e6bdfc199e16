"""Simulated quantum data acquisition: shot allocation, direct Pauli
measurements, and Pauli classical shadows.

All protocols draw from one counter-based Philox stream per instance, keyed
by an explicit seed, so every record set is bit-reproducible. Records are
"measure first, ask questions later": one record set taken on the initial
state is reweighted for every parameter point of a landscape patch.

Estimators refuse to extrapolate: asking for a Pauli outside the measured
support is an error, never a silently biased value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import documents
from .documents import integer, number
from .errors import (
    ConfigError,
    DimensionError,
    HypothesisViolationError,
    OracleCapError,
    ValidationError,
)
from .pauli import PauliString
from .propagation import PropagatedObservable
from .states import AllPlus, AllZero, InitialState, block_rows, overlaps, state_vector
from .surrogate import BoundReport, pauli_mean_squares, worst_case_coeff_bounds

STRATEGIES = ("uniform", "abs-coeff", "eff1norm-avg", "eff1norm-worst")

SHADOW_DENSE_CAP = 14

_BASIS_LETTERS = "XYZ"  # shadow basis codes 0, 1, 2


@dataclass(frozen=True)
class AllocationPlan:
    """Sampling distribution beta over measurable Paulis plus a shot budget."""

    entries: tuple[tuple[PauliString, float], ...]
    strategy: str
    shots: int

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("allocation needs a nonempty support")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.shots < 1:
            raise ConfigError(f"shot budget must be >= 1, got {self.shots}")
        total = 0.0
        for p, prob in self.entries:
            if not 0.0 < prob <= 1.0:  # NaN fails too
                raise ConfigError(f"probability for {p} must be in (0, 1], got {prob}")
            total += prob
        if not abs(total - 1.0) <= 1e-12:
            raise ConfigError(f"probabilities sum to {total}, not 1")

    @property
    def paulis(self) -> tuple[PauliString, ...]:
        return tuple(p for p, _ in self.entries)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """beta in entry order, read-only, built once per plan."""
        beta = np.array([b for _, b in self.entries])
        beta.flags.writeable = False
        return beta

    def index_of(self) -> Mapping[PauliString, int]:
        """Each Pauli's slot in ``entries``, read-only, built once per plan."""
        return self._index

    @cached_property
    def _index(self) -> Mapping[PauliString, int]:
        return MappingProxyType({p: i for i, (p, _) in enumerate(self.entries)})


def make_allocation(
    strategy: str,
    shots: int,
    coeffs: Mapping[PauliString, float] | None = None,
    surrogate: PropagatedObservable | None = None,
    r: float | None = None,
) -> AllocationPlan:
    """Build the sampling distribution for the named strategy.

    ``uniform`` and ``abs-coeff`` weigh a finite coefficient table (1 or |c|);
    the effective-1-norm strategies weigh a symbolic surrogate's patch moments
    (``r`` is the patch half-width). Paulis of weight 0 are left out.
    """
    if strategy in ("uniform", "abs-coeff"):
        if coeffs is None:
            if surrogate is None:
                raise ConfigError(f"{strategy} needs a coefficient table")
            coeffs = {p: 1.0 for p in surrogate.paulis}
        if not all(math.isfinite(c) for c in coeffs.values()):
            raise ConfigError(f"{strategy} needs finite coefficients")
        if strategy == "uniform":
            weights = {p: float(c != 0.0) for p, c in coeffs.items()}
        else:
            weights = {p: abs(c) for p, c in coeffs.items()}
    elif strategy in ("eff1norm-avg", "eff1norm-worst"):
        if surrogate is None or r is None:
            raise ConfigError(f"{strategy} needs a symbolic surrogate and half-width r")
        if strategy == "eff1norm-avg":
            squares = pauli_mean_squares(surrogate, r)
            weights = {p: math.sqrt(v) for p, v in squares.items()}
        else:
            weights = worst_case_coeff_bounds(surrogate, r)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    support = [(p, w) for p, w in weights.items() if w > 0.0]
    if not support:
        raise ConfigError("allocation support is empty")
    total = sum(w for _, w in support)
    beta = [(p, w / total) for p, w in support]
    # exact renormalization guards the sum-to-one invariant against rounding
    norm = sum(b for _, b in beta)
    return AllocationPlan(tuple((p, b / norm) for p, b in beta), strategy, shots)


# --- direct Pauli measurements -----------------------------------------------------


class ShotRecords:
    """Direct-measurement outcomes as flat arrays."""

    def __init__(self, pauli_index: np.ndarray, outcomes: np.ndarray, stream: int) -> None:
        self.pauli_index = np.asarray(pauli_index, dtype=np.uint32)
        self.outcomes = np.asarray(outcomes, dtype=np.int8)
        self.stream = int(stream)
        if self.pauli_index.shape != self.outcomes.shape:
            raise ValidationError("index/outcome length mismatch")
        if not np.all(np.abs(self.outcomes) == 1):
            raise ValidationError("outcomes must be exactly +/-1")

    def __len__(self) -> int:
        return self.pauli_index.shape[0]


def simulate_direct(state: InitialState, plan: AllocationPlan, seed: int) -> ShotRecords:
    """Draw plan.shots single-Pauli measurements of ``state``."""
    expectations = overlaps(state, plan.paulis)
    if np.any(np.abs(expectations) > 1 + 1e-9):
        raise ConfigError("true expectations must lie in [-1, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(len(plan.entries), size=plan.shots, p=plan.probabilities)
    p_up = 0.5 * (1.0 + expectations[idx])
    outcomes = np.where(rng.random(plan.shots) < p_up, 1, -1).astype(np.int8)
    return ShotRecords(idx.astype(np.uint32), outcomes, seed)


def estimate(records: ShotRecords, coeffs: Mapping[PauliString, float],
             plan: AllocationPlan) -> float:
    """Reweighted mean estimator of sum_P c_P Tr[rho P] from one record set.

    ``coeffs`` holds the coefficients at the parameter point of interest; a
    nonzero coefficient outside the plan support cannot be estimated and is
    an error.
    """
    if len(records) == 0:
        raise ConfigError("no records to estimate from")
    index = plan.index_of()
    c_arr = np.zeros(len(plan.entries))
    for p, c in coeffs.items():
        slot = index.get(p)
        if slot is None:
            if c != 0.0:
                raise ConfigError(f"coefficient for unmeasured Pauli {p}")
            continue
        c_arr[slot] = c
    weights = c_arr / plan.probabilities
    values = weights[records.pauli_index] * records.outcomes
    return float(values.mean())


# --- Pauli classical shadows --------------------------------------------------------


class ShadowRecords:
    """Randomized-basis measurement records: per-qubit basis codes and bits."""

    def __init__(self, bases: np.ndarray, bits: np.ndarray, stream: int) -> None:
        self.bases = np.asarray(bases, dtype=np.uint8)
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.stream = int(stream)
        if self.bases.shape != self.bits.shape or self.bases.ndim != 2:
            raise ValidationError("bases/bits must be matching (shots, n) arrays")

    @property
    def n(self) -> int:
        return self.bases.shape[1]

    def __len__(self) -> int:
        return self.bases.shape[0]

    def __getitem__(self, i: int) -> tuple[str, np.ndarray]:
        return ("".join(_BASIS_LETTERS[b] for b in self.bases[i]), self.bits[i].copy())


def _leading_outcomes(psi: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both outcomes of the leading qubit of each row of a (rows, 2**k) block.

    ``mats`` holds the 2x2 basis change of each row (or of all rows, when
    ``psi`` has one row). Returns the unnormalized (rows, 2, 2**(k - 1))
    amplitudes of outcomes 0 and 1, and the probability w0 / (w0 + w1) of
    outcome 0 per row, from the two halves' squared norms.
    """
    half = psi.shape[1] // 2
    low, high = psi[:, np.newaxis, :half], psi[:, np.newaxis, half:]
    amps = mats[:, :, 0, np.newaxis] * low + mats[:, :, 1, np.newaxis] * high
    parts = amps.view(float)
    weights = np.einsum("ijk,ijk->ij", parts, parts)
    return amps, weights[:, 0] / (weights[:, 0] + weights[:, 1])


# basis change before a Z measurement, indexed by shadow basis code
_BASIS_ROTATIONS = np.stack([
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),          # X: H
    np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2.0),        # Y: H S^dag
    np.eye(2, dtype=complex),                                           # Z
])


def simulate_shadows(state: InitialState, shots: int, seed: int) -> ShadowRecords:
    """Measure every qubit in an independent uniformly random Pauli basis.

    Stabilizer inputs sample in closed form. Dense states (capped at 14
    qubits) sample each qubit's conditional marginal in turn, on blocks of
    ``block_rows(n)`` shots at once; bit ``(s, q)`` compares the ``(s, q)``
    entry of one ``(shots, n)`` uniform draw with the probability of 0. The
    amplitudes are reordered once so that qubit 0 is the leading bit. After
    qubit ``q`` is measured, each shot keeps only the half of its vector
    that matches its bit, so the block shrinks to ``(rows, 2**(n - q - 1))``
    and is never renormalized: the probability of 0 is w0 / (w0 + w1) over
    the two halves' squared norms. Qubit 0's three basis changes act on the
    shared input once, for all shots.
    """
    if shots < 1:
        raise ConfigError(f"shot count must be >= 1, got {shots}")
    rng = np.random.Generator(np.random.Philox(seed))
    n = state.n
    bases = rng.integers(0, 3, size=(shots, n), dtype=np.uint8)
    if isinstance(state, (AllZero, AllPlus)):
        # the stabilized basis gives a deterministic bit, others a fair coin
        fixed = 2 if isinstance(state, AllZero) else 0
        bits = rng.integers(0, 2, size=(shots, n), dtype=np.uint8)
        bits[bases == fixed] = 0
        return ShadowRecords(bases, bits, seed)

    if n > SHADOW_DENSE_CAP:
        raise OracleCapError(f"dense shadow sampling capped at {SHADOW_DENSE_CAP} qubits")
    # qubit 0 becomes the most significant bit, so each qubit measured is the leading bit
    psi0 = state_vector(state).reshape((2,) * n).transpose().ravel()
    uniform = rng.random((shots, n))
    bits = np.zeros((shots, n), dtype=np.uint8)
    # every shot measures qubit 0 on psi0 itself, so its three bases are applied once
    first, first_p0 = _leading_outcomes(psi0[np.newaxis, :], _BASIS_ROTATIONS)
    step = block_rows(n)
    for start in range(0, shots, step):
        block = slice(start, start + step)
        bit = uniform[block, 0] >= first_p0[bases[block, 0]]
        bits[block, 0] = bit
        psi = first[bases[block, 0], bit.view(np.uint8)]
        for q in range(1, n):
            amps, p0 = _leading_outcomes(psi, _BASIS_ROTATIONS[bases[block, q]])
            bit = uniform[block, q] >= p0
            bits[block, q] = bit
            psi = amps[np.arange(len(bit)), bit.view(np.uint8)]
    return ShadowRecords(bases, bits, seed)


def shadow_estimate(records: ShadowRecords, p: PauliString,
                    median_batches: int | None = None) -> float:
    """Unbiased shadow estimator of Tr[rho P] with inverse-channel factor 3^|P|.

    ``median_batches`` switches to median-of-means over that many batches;
    the default is a plain mean.
    """
    if p.n != records.n:
        raise DimensionError(f"Pauli has {p.n} qubits, records have {records.n}")
    support = p.support()
    if not support:
        return 1.0
    req = np.array([_BASIS_LETTERS.index(p.letter(q)) for q in support], dtype=np.uint8)
    cols = np.array(support)
    match = np.all(records.bases[:, cols] == req, axis=1)
    signs = 1.0 - 2.0 * (records.bits[:, cols].sum(axis=1) % 2)
    values = np.where(match, signs, 0.0) * (3.0 ** len(support))
    if median_batches is None:
        return float(values.mean())
    if median_batches < 1 or median_batches > len(values):
        raise ConfigError(f"bad batch count {median_batches}")
    batches = np.array_split(values, median_batches)
    return float(np.median([b.mean() for b in batches]))


# --- sample-complexity calculators ---------------------------------------------------


def sample_complexity(kind: str, **inputs) -> BoundReport:
    """Shot-budget formulas for the surrogation protocols.

    Kinds: ``pp-avg`` (effective-1-norm allocation, (3 e m / kappa)^kappa),
    ``pp-even`` (even allocation, N_Paulis (e m / kappa)^kappa), ``shadows``
    (min(log n, log(m N_Paulis)) log(1/delta) / epsilon), and ``worst-1norm``
    (2 log(2/delta) Lambda^2 ||c||_{1,worst}^2 / epsilon^2).
    """
    if kind == "pp-avg":
        m, kappa = inputs["m"], inputs["kappa"]
        _check(m >= 0 and kappa >= 0, "m and kappa must be >= 0")
        value = (3.0 * math.e * m / kappa) ** kappa if kappa else 1.0
        return BoundReport("thm-d9-avg-samples", inputs, float(value))
    if kind == "pp-even":
        m, kappa, n_paulis = inputs["m"], inputs["kappa"], inputs["n_paulis"]
        _check(m >= 0 and kappa >= 0 and n_paulis >= 1, "bad inputs")
        value = n_paulis * ((math.e * m / kappa) ** kappa if kappa else 1.0)
        return BoundReport("thm-d11-even-samples", inputs, float(value))
    if kind == "shadows":
        n, m, n_paulis = inputs["n"], inputs["m"], inputs["n_paulis"]
        eps, delta = inputs["epsilon"], inputs["delta"]
        _check(n >= 2 and m >= 1 and n_paulis >= 1, "bad sizes")
        _check(0 < eps and 0 < delta < 1, "epsilon/delta out of range")
        value = min(math.log(n), math.log(m * n_paulis)) * math.log(1.0 / delta) / eps
        return BoundReport("thm-d10-shadow-samples", inputs, float(value))
    if kind == "worst-1norm":
        norm, lam = inputs["norm1_worst"], inputs.get("lam", 1.0)
        eps, delta = inputs["epsilon"], inputs["delta"]
        _check(norm >= 0 and lam > 0, "bad norm inputs")
        _check(0 < eps and 0 < delta < 1, "epsilon/delta out of range")
        value = 2.0 * math.log(2.0 / delta) * (lam * norm / eps) ** 2
        return BoundReport("lem-b6-worst-samples", inputs, float(value))
    raise ConfigError(f"unknown sample-complexity kind {kind!r}")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisViolationError(message)


# --- binary record logs ---------------------------------------------------------------

_LOG_VERSION = 1
_SHOT_RECORD = np.dtype([("index", "<u4"), ("outcome", "i1")])  # 5 packed bytes


def _read_log(path, fmt: str) -> tuple[dict, bytes]:
    """Header and record payload of a binary log of format ``fmt``."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    return documents.parse(line, f"{fmt} log", fmt, _LOG_VERSION), payload


def _records(payload: bytes, count: int, dtype: np.dtype, fmt: str) -> np.ndarray:
    """The ``count`` records of ``payload``, which must hold exactly that many."""
    if len(payload) != count * dtype.itemsize:
        raise ValidationError(
            f"{fmt} log holds {len(payload)} record bytes, expected {count * dtype.itemsize}"
        )
    return np.frombuffer(payload, dtype=dtype, count=count)


def save_shot_records(records: ShotRecords, plan: AllocationPlan, path) -> None:
    """Compact binary log: one JSON header line, then 5-byte records."""
    header = {
        "format": "shot-records",
        "version": _LOG_VERSION,
        "count": len(records),
        "stream": records.stream,
        "strategy": plan.strategy,
        "shots": plan.shots,
        "paulis": [p.to_text() for p in plan.paulis],
        "beta": [b for _, b in plan.entries],
    }
    table = np.empty(len(records), dtype=_SHOT_RECORD)
    table["index"] = records.pauli_index
    table["outcome"] = records.outcomes
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(table.tobytes())


def load_shot_records(path) -> tuple[ShotRecords, AllocationPlan]:
    """Read a ``save_shot_records`` log; a malformed one raises ``ValidationError``."""
    header, payload = _read_log(path, "shot-records")
    with documents.fields("shot-records header"):  # ConfigError is a ValueError
        table = _records(payload, integer(header["count"], "count"), _SHOT_RECORD,
                         "shot-records")
        if not isinstance(header["paulis"], list):
            raise ValidationError("shot-records paulis must be a JSON list")
        paulis = [PauliString.from_text(t) for t in header["paulis"]]
        beta = [number(b) for b in header["beta"]]
        plan = AllocationPlan(tuple(zip(paulis, beta, strict=True)), header["strategy"],
                              integer(header["shots"], "shots"))
        records = ShotRecords(table["index"].astype(np.uint32),
                              table["outcome"].astype(np.int8),
                              integer(header["stream"], "stream"))
    if records.pauli_index.max(initial=0) >= len(paulis):
        raise ValidationError(f"a shot measures a Pauli outside the {len(paulis)}-entry plan")
    return records, plan


def save_shadow_records(records: ShadowRecords, path) -> None:
    """Compact binary log: JSON header line, then per-record bases and packed bits."""
    header = {
        "format": "shadow-records",
        "version": _LOG_VERSION,
        "count": len(records),
        "n": records.n,
        "stream": records.stream,
    }
    rows = np.concatenate([records.bases, np.packbits(records.bits, axis=1)], axis=1)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(rows.tobytes())


def load_shadow_records(path) -> ShadowRecords:
    """Read a ``save_shadow_records`` log; a malformed one raises ``ValidationError``."""
    header, payload = _read_log(path, "shadow-records")
    with documents.fields("shadow-records header"):
        n = integer(header["n"], "n")
        row = np.dtype((np.uint8, (n + -(-n // 8),)))  # bases, then packed bits
        rows = _records(payload, integer(header["count"], "count"), row, "shadow-records")
        stream = integer(header["stream"], "stream")
    if rows[:, :n].max(initial=0) >= len(_BASIS_LETTERS):
        raise ValidationError("a shadow record holds a basis code outside X, Y, Z")
    bits = np.unpackbits(rows[:, n:], axis=1)[:, :n]
    return ShadowRecords(rows[:, :n].copy(), bits, stream)
