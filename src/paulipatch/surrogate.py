"""Landscape-surrogate evaluation, patch moments, and truncation-error bounds.

The symbolic surrogate represents each surviving Pauli's coefficient as a sum
of trigonometric monomials in the free parameters. ``SurrogateEvaluator``
compiles that structure into flat index arrays once, so repeated evaluations
over a patch cost a handful of vectorized passes.

Patch moments ``E[cos^p(a) sin^q(a)]`` over a ~ Unif[-r, r] are computed
exactly by expanding into complex exponentials, where ``E[e^{ika}] =
sin(kr)/(kr)``; odd sine powers vanish identically. These exact moments feed
the average-case effective 1-norm, which in turn drives shot allocation.

Bound calculators check their stated hypotheses and refuse to extrapolate
outside them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, HypothesisViolationError
from .pauli import PauliString
from .propagation import SYMBOLIC, PropagatedObservable
from .states import InitialState, overlap

PAIRWISE_MONOMIAL_CAP = 10_000
_MPMATH_THRESHOLD = 24  # switch to high precision when p+q grows past this


@dataclass(frozen=True)
class PatchDistribution:
    """Uniform distribution over the hypercube of half-width ``r`` at ``center``."""

    center: tuple[float, ...]
    r: float
    kind: str = "uniform-hypercube"

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.r < 0:
            raise ConfigError(f"half-width must be >= 0, got {self.r}")
        if self.kind != "uniform-hypercube":
            raise ConfigError(f"unsupported patch kind {self.kind!r}")

    @classmethod
    def centered(cls, m: int, r: float) -> "PatchDistribution":
        return cls(center=(0.0,) * m, r=r)

    @property
    def is_zero_centered(self) -> bool:
        return all(c == 0.0 for c in self.center)


@dataclass(frozen=True)
class BoundReport:
    """A named closed-form bound evaluation with its inputs echoed."""

    formula_id: str
    inputs: dict
    value: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigError(f"bound value must be >= 0, got {self.value}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "formula_id": self.formula_id,
                "inputs": self.inputs,
                "value": self.value,
                "flags": list(self.flags),
            },
            indent=1,
        )


# --- compiled evaluation ------------------------------------------------------------


class SurrogateEvaluator:
    """Flattens a symbolic surrogate for fast repeated evaluation.

    Initial-state overlaps d_P are computed once per Pauli at construction;
    each ``value`` call costs one pass over the flattened factor table.
    """

    def __init__(self, po: PropagatedObservable, state: InitialState | None = None) -> None:
        if po.mode != SYMBOLIC:
            raise ConfigError("evaluator requires a symbolic surrogate")
        self.m = po.m
        self.paulis: list[PauliString] = list(po.terms.keys())
        t_count = len(self.paulis)
        self.d = (
            np.array([overlap(state, p) for p in self.paulis])
            if state is not None
            else np.ones(t_count)
        )

        mono_term: list[int] = []
        mono_weight: list[float] = []
        fac_param: list[int] = []
        fac_cos: list[int] = []
        fac_sin: list[int] = []
        fac_starts: list[int] = []
        for t_idx, term in enumerate(po.terms.values()):
            for mono, weight in term.monomials:
                mono_term.append(t_idx)
                mono_weight.append(weight)
                fac_starts.append(len(fac_param))
                if mono.factors:
                    for param, cos_e, sin_e in mono.factors:
                        fac_param.append(param)
                        fac_cos.append(cos_e)
                        fac_sin.append(sin_e)
                else:  # constant monomial: one dummy factor that evaluates to 1
                    fac_param.append(0)
                    fac_cos.append(0)
                    fac_sin.append(0)
        self.mono_term = np.array(mono_term, dtype=np.intp)
        self.mono_weight = np.array(mono_weight)
        self.fac_param = np.array(fac_param, dtype=np.intp)
        self.fac_cos = np.array(fac_cos)
        self.fac_sin = np.array(fac_sin)
        self.fac_starts = np.array(fac_starts, dtype=np.intp)

    @property
    def n_monomials(self) -> int:
        return self.mono_term.shape[0]

    def coefficients(self, alphas: Sequence[float]) -> np.ndarray:
        """c_P(alpha) per surviving Pauli, aligned with ``self.paulis``."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (self.m,):
            raise DimensionError(f"expected {self.m} parameters, got {alphas.shape}")
        if self.n_monomials == 0:
            return np.zeros(len(self.paulis))
        cos_v = np.cos(alphas) if self.m else np.ones(1)
        sin_v = np.sin(alphas) if self.m else np.zeros(1)
        factors = cos_v[self.fac_param] ** self.fac_cos * sin_v[self.fac_param] ** self.fac_sin
        mono_vals = np.multiply.reduceat(factors, self.fac_starts)
        coeffs = np.zeros(len(self.paulis))
        np.add.at(coeffs, self.mono_term, self.mono_weight * mono_vals)
        return coeffs

    def value(self, alphas: Sequence[float]) -> float:
        return float(self.d @ self.coefficients(alphas))

    def values(self, alpha_rows: np.ndarray) -> np.ndarray:
        alpha_rows = np.asarray(alpha_rows, dtype=float)
        return np.array([self.value(row) for row in alpha_rows])


def evaluate(po: PropagatedObservable, alphas: Sequence[float],
             state: InitialState) -> float:
    """Surrogate landscape value sum_P d_P c_P(alpha) for a symbolic surrogate.

    Builds a fresh ``SurrogateEvaluator``; hold one for repeated evaluations.
    """
    return SurrogateEvaluator(po, state).value(alphas)


# --- exact trigonometric patch moments ----------------------------------------------


def _uniform_char(k: int, r: float) -> float:
    """E[e^{i k a}] for a ~ Unif[-r, r]."""
    if k == 0:
        return 1.0
    return math.sin(k * r) / (k * r)


@lru_cache(maxsize=65536)
def _trig_moment_cached(p: int, q: int, r: float) -> float:
    if p + q >= _MPMATH_THRESHOLD:
        return _trig_moment_mp(p, q, r)
    # cos^p sin^q = 2^{-(p+q)} i^{-q} (e^{ia}+e^{-ia})^p (e^{ia}-e^{-ia})^q
    total = 0.0
    for j in range(p + 1):
        cj = math.comb(p, j)
        for l in range(q + 1):
            k = (2 * j - p) + (2 * l - q)
            term = cj * math.comb(q, l) * _uniform_char(k, r)
            total += -term if (q - l) & 1 else term
    scale = (-1.0) ** (q // 2) / 2.0 ** (p + q)  # i^{-q} for even q
    return scale * total


def _trig_moment_mp(p: int, q: int, r: float) -> float:
    """High-precision path: the alternating sum cancels catastrophically in floats."""
    import mpmath as mp

    with mp.workdps(40 + 2 * (p + q)):
        rr = mp.mpf(r)
        total = mp.mpf(0)
        for j in range(p + 1):
            cj = mp.binomial(p, j)
            for l in range(q + 1):
                k = (2 * j - p) + (2 * l - q)
                char = mp.mpf(1) if k == 0 else mp.sin(k * rr) / (k * rr)
                term = cj * mp.binomial(q, l) * char
                total += -term if (q - l) & 1 else term
        value = (-1) ** (q // 2) * total / mp.mpf(2) ** (p + q)
        return float(value)


def trig_moment(p: int, q: int, r: float) -> float:
    """E[cos^p(a) sin^q(a)] for a ~ Unif[-r, r], exact; 0 for odd ``q``."""
    if p < 0 or q < 0:
        raise ConfigError(f"exponents must be >= 0, got p={p} q={q}")
    if not 0.0 < r <= math.pi:
        raise ConfigError(f"half-width must be in (0, pi], got {r}")
    if q % 2 == 1:
        return 0.0
    return _trig_moment_cached(p, q, float(r))


# --- effective 1-norms ----------------------------------------------------------------


def _pair_moment(fac_a, fac_b, r: float) -> float:
    """E[Phi_a Phi_b] with per-parameter independence factorization."""
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


def pauli_mean_squares(
    po: PropagatedObservable,
    dist: PatchDistribution,
    monomial_cap: int = PAIRWISE_MONOMIAL_CAP,
    mc_samples: int = 1_000_000,
    mc_seed: int = 7,
) -> tuple[dict[PauliString, float], tuple[str, ...]]:
    """E[c_P(alpha)^2] per surviving Pauli over a zero-centered patch.

    Exact pairwise uniform-hypercube moments, except that Paulis holding more
    than ``monomial_cap`` monomials fall back to seeded Monte Carlo (flagged).
    """
    if po.mode != SYMBOLIC:
        raise ConfigError("patch moments require a symbolic surrogate")
    if not dist.is_zero_centered:
        raise ConfigError("patch moments are defined for zero-centered patches")
    r = dist.r
    flags: list[str] = []
    out: dict[PauliString, float] = {}
    mc_values: np.ndarray | None = None
    for t_idx, (pauli, term) in enumerate(po.terms.items()):
        monos = term.monomials
        if len(monos) > monomial_cap:
            if mc_values is None:
                mc_values = _mc_mean_squares(po, r, mc_samples, mc_seed)
                flags.append(f"monte-carlo-fallback:{mc_samples}")
            out[pauli] = float(mc_values[t_idx])
            continue
        total = 0.0
        for i, (mono_i, w_i) in enumerate(monos):
            for j in range(i, len(monos)):
                mono_j, w_j = monos[j]
                moment = _pair_moment(mono_i.factors, mono_j.factors, r)
                if moment != 0.0:
                    contrib = w_i * w_j * moment
                    total += contrib if i == j else 2.0 * contrib
        out[pauli] = max(total, 0.0)
    return out, tuple(flags)


def _mc_mean_squares(po: PropagatedObservable, r: float, samples: int,
                     seed: int) -> np.ndarray:
    ev = SurrogateEvaluator(po)
    rng = np.random.Generator(np.random.Philox(seed))
    acc = np.zeros(len(ev.paulis))
    chunk = 4096
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        for _ in range(take):
            c = ev.coefficients(rng.uniform(-r, r, size=po.m))
            acc += c * c
        done += take
    return acc / samples


def effective_norm_avg(po: PropagatedObservable, dist: PatchDistribution,
                       **kwargs) -> float:
    """Average-case effective 1-norm sum_P sqrt(E[c_P^2]) over the patch."""
    squares, _ = pauli_mean_squares(po, dist, **kwargs)
    return float(sum(math.sqrt(v) for v in squares.values()))


def worst_case_coeff_bounds(po: PropagatedObservable, r: float) -> dict[PauliString, float]:
    """Sound per-Pauli upper bounds on max |c_P| over the hypercube.

    Each monomial is maximized factor-wise: |cos| <= 1 and |sin| <=
    sin(min(r, pi/2)), so the result over-approximates the true maximum.
    """
    if po.mode != SYMBOLIC:
        raise ConfigError("worst-case bounds require a symbolic surrogate")
    if r < 0:
        raise ConfigError(f"half-width must be >= 0, got {r}")
    sin_cap = math.sin(min(r, math.pi / 2.0))
    out: dict[PauliString, float] = {}
    for pauli, term in po.terms.items():
        out[pauli] = float(
            sum(abs(w) * sin_cap ** mono.sine_order for mono, w in term.monomials)
        )
    return out


def effective_norm_worst(po: PropagatedObservable, r: float) -> float:
    """Upper bound on the worst-case effective 1-norm (sum of per-Pauli maxima)."""
    return float(sum(worst_case_coeff_bounds(po, r).values()))


# --- truncation-error bound calculators ------------------------------------------------


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")


def bound_mse_truncation(m: int, r: float, kappa: int, norm1: float) -> BoundReport:
    """Patch MSE bound ||a||_1^2 (e m r^2 / (3 kappa))^kappa, valid for r^2 <= 3 kappa/m."""
    _check_positive(m=m, r=r, kappa=kappa, norm1=norm1)
    if m > 0 and kappa >= 0 and r * r > 3.0 * kappa / m:
        raise HypothesisViolationError(
            f"hypothesis r^2 <= 3*kappa/m violated: r^2={r*r:.6g} > {3.0*kappa/m:.6g}"
        )
    value = norm1**2 * (math.e * m * r * r / (3.0 * kappa)) ** kappa if kappa else norm1**2
    return BoundReport(
        "cor-d2-mse",
        {"m": m, "r": r, "kappa": kappa, "norm1": norm1},
        float(value),
    )


def bound_worst_truncation(m: int, r: float, kappa: int, norm1: float) -> BoundReport:
    """Worst-case absolute-error bound ||a||_1 (e m r / kappa)^kappa for r <= kappa/m."""
    _check_positive(m=m, r=r, kappa=kappa, norm1=norm1)
    if m > 0 and r > kappa / m:
        raise HypothesisViolationError(
            f"hypothesis r <= kappa/m violated: r={r:.6g} > {kappa/m:.6g}"
        )
    value = norm1 * (math.e * m * r / kappa) ** kappa if kappa else norm1
    return BoundReport(
        "thm-d3-worst",
        {"m": m, "r": r, "kappa": kappa, "norm1": norm1},
        float(value),
    )


def bound_correlated_avg(m: int, r: float, kappa: int, norm1: float) -> BoundReport:
    """Mean absolute-error bound for one shared angle: worst bound / (kappa + 1)."""
    worst = bound_worst_truncation(m, r, kappa, norm1)
    return BoundReport(
        "prop-d4-corr",
        {"m": m, "r": r, "kappa": kappa, "norm1": norm1},
        worst.value / (kappa + 1),
    )
