"""Landscape-surrogate evaluation, patch moments, and truncation-error bounds.

The symbolic surrogate represents each surviving Pauli's coefficient as a sum
of trigonometric monomials in the free parameters. A ``PropagatedObservable``
stores it as columns in term order: its ``paulis`` and the ``MonomialTable``
that ``backpropagate`` builds (and an artifact file saves and loads), flat
arrays that store each factor as an index into the table's few distinct
(param, cos, sin) factors. ``SurrogateEvaluator``, ``pauli_mean_squares`` and
``worst_case_coeff_bounds`` read those columns, not the per-Pauli ``terms``
view. ``PropagatedObservable.expectation`` gives one landscape value at one
point in either mode; ``SurrogateEvaluator`` is the batched sweep over a
patch. It runs on blocks of parameter rows: per block, the distinct factors
are raised to their powers once, the monomials are multiplied one factor
position at a time, and the monomial values meet the overlap-weighted
monomial weights in one matrix-vector product per block.

A patch is given by its half-width ``r`` alone: the hypercube [-r, r]^m
around the origin, so ``pauli_mean_squares`` and ``effective_norm_avg`` take
``r`` as the worst-case bounds do. Patch moments ``E[cos^p(a) sin^q(a)]`` over
a ~ Unif[-r, r] have one closed form: t = sin^2(a) turns them into a complete
beta function times a regularized incomplete one, evaluated for a whole grid
of (p, q) at once to near machine precision at any order; odd sine powers
vanish identically. Because the
parameters are independent, E[c_P^2] factors per parameter into products of
these moments, summed exactly over all monomial pairs. It feeds the
average-case effective 1-norm, which in turn drives shot allocation.

Bound calculators check their stated hypotheses and refuse to extrapolate
outside them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HypothesisViolationError
from .pauli import PauliString
from .propagation import MonomialTable, PropagatedObservable
from .states import InitialState, overlaps

_MOMENT_WORK_BYTES = 32 << 20  # work arrays of one row block in pauli_mean_squares


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


class SurrogateEvaluator(MonomialTable):
    """A symbolic surrogate's ``MonomialTable`` plus its initial-state overlaps.

    Overlaps d_P are computed at construction by one ``states.overlaps`` call,
    aligned with ``paulis`` and with ``coefficients``: a dense state forms one
    product vector per X mask and sums each Pauli's signs over it with a
    matrix-vector product, so d_P agrees with ``overlap`` to rounding, not
    bit for bit. ``values`` folds them into per-monomial weights and takes one
    matrix-vector product per row block, so no (rows, terms) coefficient matrix
    is held; ``PropagatedObservable.expectation`` gives one point.
    """

    def __init__(self, po: PropagatedObservable, state: InitialState) -> None:
        super().__init__(*po.monomial_table().columns)
        self.paulis: list[PauliString] = list(po.paulis)
        self.d = overlaps(state, self.paulis)

    def values(self, alpha_rows: np.ndarray) -> np.ndarray:
        """Surrogate value sum_P d_P c_P(alpha) per row of ``alpha_rows``."""
        alpha_rows = self._check_rows(alpha_rows)
        weights = self.mono_weight * self.d[self.mono_term]
        out = np.empty(alpha_rows.shape[0])
        for rows, mono_vals in self._monomial_blocks(alpha_rows):
            out[rows] = mono_vals @ weights
        return out


# --- exact trigonometric patch moments ----------------------------------------------


def _moments(p: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
    """E[cos^p(a) sin^q(a)] for a ~ Unif[-r, r], 0 < r <= pi, elementwise over p, q.

    The integrand is even for even q, and t = sin^2(a) turns the integral over
    [0, min(r, pi/2)] into B(a, b) I_{sin^2 r}(a, b) / 2 with a = (q+1)/2 and
    b = (p+1)/2. Past pi/2 the mirror a -> pi - a adds B (1 - I) / 2 times (-1)^p.
    """
    # imported here: at module level scipy.special doubles the package's import time
    from scipy import special

    if not 0.0 < r <= math.pi:
        raise ConfigError(f"half-width must be in (0, pi], got {r}")
    x = math.sin(r) ** 2
    if x < np.finfo(float).tiny:  # r below about 1.5e-154
        raise ConfigError(f"half-width {r} is too small: sin(r)^2 underflows")
    a, b = (q + 1) / 2.0, (p + 1) / 2.0
    part = special.betainc(a, b, x)
    if r > math.pi / 2:
        part = np.where(p % 2 == 0, 2.0 - part, part)
    out = special.beta(a, b) * part / (2.0 * r)
    # odd sine powers vanish; E[1] is exactly 1, where the closed form rounds
    return np.where(q % 2 == 1, 0.0, np.where((p == 0) & (q == 0), 1.0, out))


def trig_moment(p: int, q: int, r: float) -> float:
    """E[cos^p(a) sin^q(a)] for a ~ Unif[-r, r] in closed form; 0 for odd ``q``."""
    if p < 0 or q < 0:
        raise ConfigError(f"exponents must be >= 0, got p={p} q={q}")
    return float(_moments(np.asarray(p), np.asarray(q), float(r)))


# --- effective 1-norms ----------------------------------------------------------------


def pauli_mean_squares(po: PropagatedObservable, r: float) -> dict[PauliString, float]:
    """E[c_P(alpha)^2] per surviving Pauli over the patch [-r, r]^m, exactly.

    With c_P = sum_a w_a prod_j cos^c_aj(a_j) sin^s_aj(a_j) and independent
    parameters uniform on [-r, r],
    E[c_P^2] = sum_ab w_a w_b prod_j M[c_aj + c_bj, s_aj + s_bj] with
    M[p, q] = ``trig_moment(p, q, r)``. Each Pauli's exponents are laid out
    densely over the parameters it depends on, and its monomial pairs are
    formed in row blocks whose work arrays stay within about 32 MB.
    """
    if r < 0:
        raise ConfigError(f"half-width must be >= 0, got {r}")
    table = po.monomial_table()
    p_max = 2 * int(table.dist_cos.max(initial=0))
    q_max = 2 * int(table.dist_sin.max(initial=0))
    # factor code c * (q_max + 1) + s: the sum of two codes indexes M[c_a + c_b, s_a + s_b]
    fac_code = (table.dist_cos * (q_max + 1) + table.dist_sin)[table.fac_dist]
    fac_param = table.dist_param[table.fac_dist]
    p_grid, q_grid = np.divmod(np.arange((p_max + 1) * (q_max + 1)), q_max + 1)
    # without free parameters only E[1] = 1 is looked up, at any half-width
    moments = _moments(p_grid, q_grid, r) if p_max or q_max else np.ones(1)
    fac_bounds = np.append(table.fac_starts, table.fac_dist.shape[0])
    fac_mono = np.repeat(np.arange(table.n_monomials), np.diff(fac_bounds))
    out: dict[PauliString, float] = {}
    for t_idx, pauli in enumerate(po.paulis):
        lo, hi = table.term_starts[t_idx], table.term_starts[t_idx + 1]
        facs = slice(fac_bounds[lo], fac_bounds[hi])
        support, cols = np.unique(fac_param[facs], return_inverse=True)
        codes = np.zeros((hi - lo, support.shape[0]), dtype=np.intp)
        codes[fac_mono[facs] - lo, cols] = fac_code[facs]
        weights = table.mono_weight[lo:hi]
        # 16 bytes per element: the summed codes and the looked-up moments
        block = max(1, _MOMENT_WORK_BYTES // (16 * max(1, codes.size)))
        total = 0.0
        for start in range(0, hi - lo, block):
            pair = moments[codes[start:start + block, None, :] + codes[None, :, :]]
            total += float(weights[start:start + block] @ pair.prod(axis=2) @ weights)
        out[pauli] = max(total, 0.0)
    return out


def effective_norm_avg(po: PropagatedObservable, r: float) -> float:
    """Average-case effective 1-norm sum_P sqrt(E[c_P^2]) over the patch of half-width ``r``."""
    return float(sum(math.sqrt(v) for v in pauli_mean_squares(po, r).values()))


def worst_case_coeff_bounds(po: PropagatedObservable, r: float) -> dict[PauliString, float]:
    """Sound per-Pauli upper bounds on max |c_P| over the hypercube.

    Each monomial is maximized factor-wise: |cos| <= 1 and |sin| <=
    sin(min(r, pi/2)), so the result over-approximates the true maximum.
    """
    if r < 0:
        raise ConfigError(f"half-width must be >= 0, got {r}")
    sin_cap = math.sin(min(r, math.pi / 2.0))
    table = po.monomial_table()
    orders = table.sine_order
    # Python's float powers, and add.at sums a term's monomials in order: each bound
    # is bitwise what a loop over the term's monomials gives
    powers = np.array([sin_cap ** k for k in range(int(orders.max(initial=0)) + 1)])
    bounds = np.zeros(po.n_paulis)
    np.add.at(bounds, table.mono_term, np.abs(table.mono_weight) * powers[orders])
    return dict(zip(po.paulis, bounds.tolist()))


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
