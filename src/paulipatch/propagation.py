"""Heisenberg back-propagation of observables through circuits with truncation.

One engine serves two modes. Its frontier holds packed 64-bit-word Pauli
masks with a weight and a path sine count per row, split and merged with
vectorized numpy, so wide circuits (127 qubits, 10^4 gates) stay cheap.

* ``numeric`` -- parameters are bound to floats; each surviving Pauli carries
  one merged coefficient plus the minimum sine count among its contributing
  paths.
* ``symbolic`` -- each row also carries cos and sin exponent columns over the
  free/shared parameters, so coefficients are trigonometric monomials; fixed
  angles multiply in numerically without consuming a monomial slot or a sine.
  This is the landscape surrogate.

A ``PropagatedObservable`` holds columns in term order: the Paulis, their
minimum sine counts, and the coefficients (numeric mode) or one
``MonomialTable`` of monomial weights and factors built straight from the final
frontier's rows (symbolic mode). Evaluation, patch moments, worst-case bounds,
sine-order restriction and the artifact file read the columns. The read-only
per-Pauli ``terms`` view of ``PropagatedTerm`` and ``PathMonomial`` records,
which the benchmark and tests read, is built on its first read; it does not
check the table's factors again.

``PropagatedObservable.expectation(state, alphas=None)`` is the one-point
landscape value sum_P c_P(alpha) Tr[rho P] of either mode, summed in term
order; ``surrogate.SurrogateEvaluator`` is the batched sweep over many points.

``backpropagate``, ``restrict_sine_order`` and ``load_artifact`` each hand
their columns to one constructor, which reads the final term and monomial
counts off them.

Truncation is decided at split time: a sine branch is dropped when its sine
count would exceed ``kappa``, its Pauli weight would exceed ``max_weight``, or
(numeric mode) its coefficient falls below the floor. Numeric mode counts the
sine of every rotation on the path. Symbolic mode counts only the sines of the
free and shared parameters, which are small on a patch, so a row's count is
the sum of its monomial's sine exponents: a symbolic sine cut is exactly a cut
on the monomial's sine order. The modes therefore differ at finite ``kappa`` on
circuits with fixed angles.
Merging sums the weights of rows with equal keys and keeps the minimum sine
count. A rotation that keeps a sine child or floors a cosine child drops every
row of weight exactly zero, and so does the end, in both modes. The key is the
Pauli in numeric mode, and the Pauli and monomial in symbolic mode.
A numeric term's cut uses the minimum count of its merged contributors
(keeping strictly more mass), so on circuits without fixed angles the modes
agree exactly whenever ``kappa`` is unlimited, and to within the
truncated-tail scale otherwise.

A rotation updates the frontier in place. Each anticommuting row holds its
cosine child. A sine child p^g anticommutes with the generator g as its
parent p does, so it can only meet the cosine child of another anticommuting
row, and as frontier keys are unique, at most one: a merge group has at most
two rows. A pair join finds that partner through one 64-bit hash of the key
and a comparison of the full key; a sine child adds its weight there, or is
appended. No bit depends on this: a group's sum adds two floats, which
commutes, and the output is ordered by Pauli and monomial, whatever the order
of the rows.

The frontier also keeps its support: a superset of the qubits any row acts on,
as one int. It starts as the initial terms' qubits. A rotation that keeps a
sine child widens it by the generator's qubits, and a Clifford gate that acts
on one of its qubits widens it by the gate's. A rotation whose generator acts
outside the support commutes with every row, so it returns before reading a
row; this is how a wide circuit's rotations outside the observable's backward
light cone cost nothing (on the 127-qubit heavy-hex lattice, most of them).
The anticommuting rows' parity and phase are read only from the 64-bit words
the generator acts on.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import numbers
import zlib
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import documents
from .circuits import Circuit, finite_parameters
from .documents import count, integer, number
from .errors import (
    ConfigError,
    DimensionError,
    PolicyOverflowError,
    ValidationError,
)
from .pauli import (
    CliffordGate,
    ObservableSpec,
    PauliString,
    gate_table,
)
from .states import InitialState, overlap

NUMERIC = "numeric"
SYMBOLIC = "symbolic"

_EVAL_WORK_BYTES = 2 << 20  # rows * factors * 8 bytes of one MonomialTable row block


@dataclass(frozen=True)
class TruncationPolicy:
    """Path-pruning rules; ``None`` disables the corresponding cut.

    ``kappa`` caps a path's sine count. Numeric mode counts the sine of every
    rotation; symbolic mode counts those of the free and shared parameters
    only, so that it caps each monomial's sine order in the patch parameters.
    """

    kappa: int | None = None
    max_weight: int | None = None
    coeff_floor: float = 0.0
    path_cap: int | None = None

    def __post_init__(self) -> None:
        # NaN compares as no cut, and 1.5 or True would pass for an integer cut; a NumPy
        # integer is stored as an int, so that the policy writes to JSON
        for name in ("kappa", "max_weight", "path_cap"):
            value = getattr(self, name)
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValidationError(f"{name} must be an integer or None, got {value!r}")
                object.__setattr__(self, name, int(value))
        if not math.isfinite(self.coeff_floor):
            raise ValidationError(f"coeff_floor must be finite, got {self.coeff_floor}")
        if self.kappa is not None and self.kappa < 0:
            raise ValidationError(f"kappa must be >= 0, got {self.kappa}")
        if self.max_weight is not None and self.max_weight < 1:
            raise ValidationError(f"max_weight must be >= 1, got {self.max_weight}")
        if self.coeff_floor < 0:
            raise ValidationError(f"coeff_floor must be >= 0, got {self.coeff_floor}")
        if self.path_cap is not None and self.path_cap < 1:
            raise ValidationError(f"path_cap must be >= 1, got {self.path_cap}")

    @classmethod
    def exact(cls) -> "TruncationPolicy":
        return cls()


@dataclass(frozen=True)
class PathMonomial:
    """Product of cos/sin powers over parameter slots, sign folded into weight.

    An item of ``PropagatedTerm.monomials``, made only by the read-only
    ``PropagatedObservable.terms`` view. Its factors are checked where the table is
    built or loaded (distinct params in increasing order, exponents >= 0 and
    not both 0), not again here.
    """

    factors: tuple[tuple[int, int, int], ...] = ()  # sorted (param, cos, sin) triples


class MonomialTable:
    """A symbolic surrogate's monomials as flat arrays, in term order.

    This is the surrogate's one stored form: ``backpropagate`` builds it from
    the engine's frontier, artifacts save and load its columns, and
    evaluation, patch moments, worst-case bounds and sine-order restriction
    read it.

    Term ``t`` owns monomials ``term_starts[t]:term_starts[t + 1]``; monomial
    ``k`` has weight ``mono_weight[k]`` and its factors start at ``fac_starts[k]``.
    Each factor is stored once, as ``fac_dist``: an index into the table's
    distinct (param, cos, sin) factors ``dist_param``, ``dist_cos``, ``dist_sin``
    (140 distinct factors for 338 726 factors on a 16-qubit grid anchor). A
    constant monomial holds one dummy factor (param 0, exponents 0) that
    evaluates to 1, so every monomial owns a factor.

    Evaluation runs on blocks of ``block_rows`` parameter rows. Per block the
    distinct factors are raised to their powers once, as a (distinct, rows)
    array, and the monomials are multiplied level by level: longest first, so
    that the monomials with more than ``j`` factors are a prefix, each level
    multiplies factor position ``j`` into that prefix in place. Every monomial
    is still multiplied left to right over its own factors, so its value does
    not depend on the block. The layout (``_levels``) is built on the first
    evaluation.

    ``block_rows`` keeps ``rows * factors * 8`` bytes within a fixed 2 MiB,
    which also bounds the kernel's (monomials, rows) arrays. Sizing it by the
    monomial count would give larger blocks, but ``values`` takes one
    matrix-vector product per block, and BLAS sums a block of another shape in
    another order, which moves the last bits of the values.
    """

    def __init__(self, m: int, term_starts: np.ndarray, mono_weight: np.ndarray,
                 fac_starts: np.ndarray, fac_dist: np.ndarray, dist_param: np.ndarray,
                 dist_cos: np.ndarray, dist_sin: np.ndarray) -> None:
        self.m = m
        self.term_starts = term_starts
        self.mono_weight = mono_weight
        self.fac_starts = fac_starts
        self.fac_dist = fac_dist
        self.dist_param, self.dist_cos, self.dist_sin = dist_param, dist_cos, dist_sin
        self.mono_term = np.repeat(np.arange(term_starts.shape[0] - 1), np.diff(term_starts))
        self.block_rows = max(1, _EVAL_WORK_BYTES // (8 * max(1, fac_dist.shape[0])))
        self._layout: tuple | None = None

    @classmethod
    def from_factors(cls, m: int, term_sizes: np.ndarray, weights: np.ndarray,
                     fac_counts: np.ndarray, fac_index: np.ndarray,
                     factor_table: np.ndarray) -> "MonomialTable":
        """The table of monomials listed term by term, each by its factors.

        ``term_sizes`` counts each term's monomials and ``fac_counts`` each
        monomial's factors; factor ``j`` is row ``fac_index[j]`` of the
        (param, cos, sin) rows ``factor_table``, which may repeat a row. A
        constant monomial has no factors and gets the dummy factor. Distinct
        factors are numbered in order of first appearance.
        """
        # one id per distinct row, the dummy's in the appended last row
        table = np.concatenate([np.asarray(factor_table, dtype=np.intp).reshape(-1, 3),
                                np.zeros((1, 3), dtype=np.intp)])
        order = np.lexsort(table.T[::-1])
        new = np.ones(order.shape[0], dtype=bool)
        new[1:] = np.any(np.diff(table[order], axis=0) != 0, axis=1)
        row_id = np.empty_like(order)
        row_id[order] = np.cumsum(new) - 1
        starts = np.cumsum(fac_counts) - fac_counts
        ids = np.insert(row_id[fac_index], starts[fac_counts == 0], row_id[-1])
        # renumber the ids in order of first appearance
        first = np.full(order.shape[0], ids.shape[0])
        np.minimum.at(first, ids, np.arange(ids.shape[0]))
        by_first = np.argsort(first)[:np.count_nonzero(first < ids.shape[0])]
        rank = np.empty(order.shape[0], dtype=np.intp)
        rank[by_first] = np.arange(by_first.shape[0])
        dist_param, dist_cos, dist_sin = table[order[new][by_first]].T
        counts = np.maximum(fac_counts, 1)
        return cls(m, np.concatenate(([0], np.cumsum(term_sizes))).astype(np.intp),
                   np.asarray(weights, dtype=np.float64),
                   (np.cumsum(counts) - counts).astype(np.intp), rank[ids],
                   dist_param.copy(), dist_cos.copy(), dist_sin.copy())

    @property
    def columns(self) -> tuple:
        """The constructor arguments that give this table again."""
        return (self.m, self.term_starts, self.mono_weight, self.fac_starts, self.fac_dist,
                self.dist_param, self.dist_cos, self.dist_sin)

    @property
    def sine_order(self) -> np.ndarray:
        """Each monomial's total sine exponent."""
        return np.add.reduceat(self.dist_sin[self.fac_dist], self.fac_starts)

    def select(self, keep: np.ndarray) -> "MonomialTable":
        """The monomials where ``keep`` holds, in order; a term left without one is dropped."""
        fac_counts = np.diff(self.fac_starts, append=self.fac_dist.shape[0])
        sizes = np.bincount(self.mono_term[keep], minlength=self.term_starts.shape[0] - 1)
        counts = fac_counts[keep]
        return MonomialTable(self.m, np.concatenate(([0], np.cumsum(sizes[sizes > 0]))),
                             self.mono_weight[keep], np.cumsum(counts) - counts,
                             self.fac_dist[np.repeat(keep, fac_counts)],
                             self.dist_param, self.dist_cos, self.dist_sin)

    @property
    def n_monomials(self) -> int:
        return self.mono_term.shape[0]

    def _check_rows(self, alpha_rows) -> np.ndarray:
        alpha_rows = np.asarray(alpha_rows, dtype=float)
        if alpha_rows.ndim != 2 or alpha_rows.shape[1] != self.m:
            raise DimensionError(
                f"expected rows of {self.m} parameters, got shape {alpha_rows.shape}")
        return finite_parameters(alpha_rows)

    def _check_row(self, alphas) -> np.ndarray:
        """One parameter point as a one-row block."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (self.m,):
            raise DimensionError(f"expected {self.m} parameters, got {alphas.shape}")
        return finite_parameters(alphas)[np.newaxis]

    def _levels(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The factors by position, monomials longest first, and the inverse order.

        Entry ``j`` of the list holds the distinct-factor index at position ``j``
        of every monomial with more than ``j`` factors, which are a prefix of
        the order. Built on the first call.
        """
        if self._layout is None:
            fac_counts = np.diff(self.fac_starts, append=self.fac_dist.shape[0])
            order = np.argsort(-fac_counts, kind="stable")
            starts, counts = self.fac_starts[order], fac_counts[order]
            levels = [self.fac_dist[starts[:np.count_nonzero(counts > j)] + j]
                      for j in range(max(1, int(counts.max(initial=0))))]
            inverse = np.empty_like(order)
            inverse[order] = np.arange(order.shape[0])
            self._layout = levels, inverse
        return self._layout

    def _monomial_blocks(self, alpha_rows: np.ndarray):
        """Yield (row slice, monomial values of those rows) block by block.

        The values of a block come as a C-contiguous (rows, monomials) array.
        """
        levels, inverse = self._levels()
        for start in range(0, alpha_rows.shape[0], self.block_rows):
            rows = slice(start, start + self.block_rows)
            block = np.ascontiguousarray(alpha_rows[rows].T)  # (params, rows)
            if self.m:
                cos_v, sin_v = np.cos(block), np.sin(block)
            else:  # only the dummy factor, read at param 0
                cos_v, sin_v = np.ones((1, block.shape[1])), np.zeros((1, block.shape[1]))
            # contiguous operands and exponents tiled to the block's shape: on a large
            # broadcast numpy runs another power loop, which rounds some results differently
            reps = (1, block.shape[1])
            dist = (cos_v[self.dist_param] ** np.tile(self.dist_cos[:, np.newaxis], reps)
                    * sin_v[self.dist_param] ** np.tile(self.dist_sin[:, np.newaxis], reps))
            # each monomial multiplies its own factors left to right, so no value depends
            # on the block; take is several times faster here than fancy indexing
            mono_vals = dist.take(levels[0], axis=0)
            for level in levels[1:]:
                mono_vals[:level.shape[0]] *= dist.take(level, axis=0)
            yield rows, mono_vals.T.take(inverse, axis=1)

    def coefficient_rows(self, alpha_rows: np.ndarray) -> np.ndarray:
        """c_P(alpha) per row of ``alpha_rows`` and term, shape (rows, terms)."""
        alpha_rows = self._check_rows(alpha_rows)
        n_terms = self.term_starts.shape[0] - 1
        out = np.zeros((alpha_rows.shape[0], n_terms))
        for rows, mono_vals in self._monomial_blocks(alpha_rows):
            # add.at sums each term's monomials in order, so every row comes out
            # bitwise as if it were evaluated alone
            flat = np.arange(mono_vals.shape[0])[:, np.newaxis] * n_terms + self.mono_term
            np.add.at(out[rows].reshape(-1), flat.reshape(-1),
                      (self.mono_weight * mono_vals).reshape(-1))
        return out

    def coefficients(self, alphas: Sequence[float]) -> np.ndarray:
        """c_P(alpha) per term, in term order."""
        return self.coefficient_rows(self._check_row(alphas))[0]


@dataclass(frozen=True)
class PropagatedTerm:
    """One Pauli of the ``terms`` view: its coefficient (numeric) or monomials (symbolic)."""

    pauli: PauliString
    coefficient: float | None = None
    min_sine_count: int | None = None
    monomials: tuple[tuple[PathMonomial, float], ...] | None = None


@dataclass
class PropagationStats:
    """Counters accumulated during a back-propagation run."""

    paths_expanded: int = 0
    truncated_sine: int = 0
    truncated_weight: int = 0
    truncated_coeff: int = 0
    truncated_cap: int = 0
    terms_final: int = 0
    monomials_final: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class PropagatedObservable:
    """The back-propagated (truncated) observable plus run metadata, as columns.

    Term ``t`` is ``paulis[t]`` with minimum sine count ``sines[t]``, and its
    coefficient ``coeffs[t]`` (numeric) or monomials in table term ``t``
    (symbolic). ``sines`` and ``coeffs`` are read-only.
    """

    n: int
    paulis: tuple[PauliString, ...]
    sines: np.ndarray = field(repr=False)
    stats: PropagationStats
    policy: TruncationPolicy
    m: int
    n_rotations: int
    n_paulis_initial: int
    table: MonomialTable | None = field(default=None, repr=False)
    coeffs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for column in (self.sines, self.coeffs):
            if column is not None:
                column.flags.writeable = False

    @property
    def mode(self) -> str:
        return NUMERIC if self.table is None else SYMBOLIC

    @property
    def n_paulis(self) -> int:
        return len(self.paulis)

    @functools.cached_property
    def terms(self) -> Mapping[PauliString, PropagatedTerm]:
        """Per Pauli, in term order, its term: a read-only view built on the first read."""
        sines, t = self.sines.tolist(), self.table
        if t is None:
            return MappingProxyType({p: PropagatedTerm(p, c, s) for p, c, s in
                                     zip(self.paulis, self.coeffs.tolist(), sines)})
        distinct = list(zip(t.dist_param.tolist(), t.dist_cos.tolist(), t.dist_sin.tolist()))
        flat = [distinct[k] for k in t.fac_dist.tolist()]
        ends = np.append(t.fac_starts[1:], t.fac_dist.shape[0])
        # the dummy factor of a constant monomial is left out of the view
        first = t.fac_dist[t.fac_starts]
        constant = (t.dist_cos[first] == 0) & (t.dist_sin[first] == 0)
        ends[constant] = t.fac_starts[constant]
        pairs = [(PathMonomial(tuple(flat[a:b])), w) for a, b, w in
                 zip(t.fac_starts.tolist(), ends.tolist(), t.mono_weight.tolist())]
        bounds = t.term_starts.tolist()
        return MappingProxyType({
            p: PropagatedTerm(p, min_sine_count=s, monomials=tuple(pairs[a:b]))
            for p, s, a, b in zip(self.paulis, sines, bounds, bounds[1:])})

    def _key(self) -> tuple:
        """The metadata and columns; a table's factors spelled out, not as distinct-factor ids."""
        t = self.table
        columns = [self.sines, self.coeffs] if t is None else [
            self.sines, t.term_starts, t.mono_weight, t.fac_starts,
            *(d[t.fac_dist] for d in (t.dist_param, t.dist_cos, t.dist_sin))]
        return (self.n, self.mode, self.paulis, self.stats, self.policy, self.m,
                self.n_rotations, self.n_paulis_initial, *(c.tolist() for c in columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropagatedObservable):
            return NotImplemented
        return self._key() == other._key()

    def monomial_table(self) -> MonomialTable:
        """The symbolic surrogate's table."""
        if self.table is None:
            raise ConfigError("monomial tables require a symbolic surrogate")
        return self.table

    def _coefficients(self, alphas: Sequence[float] | None = None) -> np.ndarray:
        """Each term's coefficient at ``alphas``, in term order."""
        if self.mode == NUMERIC:
            if alphas is not None:
                raise ConfigError("a numeric observable's parameters are bound at build")
            return self.coeffs
        return self.monomial_table().coefficients([] if alphas is None else alphas)

    def coefficients_at(self, alphas: Sequence[float] | None = None) -> dict[PauliString, float]:
        """Numeric coefficient of every surviving Pauli at parameters ``alphas``."""
        return dict(zip(self.paulis, self._coefficients(alphas).tolist()))

    def norm2_sq(self, alphas: Sequence[float] | None = None) -> float:
        """Frobenius weight sum(c_P^2); equals sum(a_P^2) when nothing is cut."""
        # over the array itself: a tolist() copy raised the 127-qubit benchmark's peak RSS
        return float(sum(c * c for c in self._coefficients(alphas)))

    def expectation(self, state: InitialState, alphas: Sequence[float] | None = None) -> float:
        """The landscape value sum_P c_P(alpha) Tr[rho P], summed in term order."""
        coeffs = self._coefficients(alphas).tolist()
        return float(sum(c * overlap(state, p) for c, p in zip(coeffs, self.paulis)))


def path_stats(po: PropagatedObservable) -> dict:
    """Stats record plus the analytic path-count bounds for the run.

    The per-Pauli bounds count the paths of at most ``kappa`` sines over all
    ``n_rotations`` rotations. They hold only when every rotation counts toward
    ``kappa``: in numeric mode, or in a symbolic build without fixed angles.
    """
    kappa = po.policy.kappa
    m = po.n_rotations
    if kappa is None or kappa >= m:
        binomial_bound = 2 ** m
    else:
        binomial_bound = sum(math.comb(m, i) for i in range(kappa + 1))
    if kappa is None or kappa == 0:
        exp_bound = 1.0 if kappa == 0 else float(2 ** m)
    else:
        exp_bound = (math.e * m / kappa) ** kappa
    surviving = po.stats.monomials_final if po.mode == SYMBOLIC else po.stats.terms_final
    return {
        **po.stats.as_dict(),
        "paths_surviving": surviving,
        "bound_binomial_per_pauli": binomial_bound,
        "bound_exp_per_pauli": exp_bound,
        "n_rotations": m,
        "kappa": kappa,
        "n_paulis_initial": po.n_paulis_initial,
    }


# --- the engine (vectorized over packed words) --------------------------------------


def _masks_to_words(masks: Sequence[int], n: int) -> np.ndarray:
    """One row of 64-bit words per ``n``-qubit mask, qubit q in bit q % 64 of word q // 64."""
    n_words = max(1, -(-n // 64))
    return np.array([[(mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(n_words)]
                     for mask in masks], dtype=np.uint64).reshape(len(masks), n_words)


def _popcount_words(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).sum(axis=1, dtype=np.int64)


def _text_order(n: int, xw: np.ndarray, zw: np.ndarray) -> np.ndarray:
    """Row order listing the Paulis text-lexicographically, I < X < Y < Z per qubit.

    Each row becomes an n-byte string of letter ranks, qubit 0 first, built in
    place: a lexsort over n one-byte keys raised the peak memory.
    """
    if n == 0:  # every row is the identity; "S0" is not a dtype
        return np.arange(xw.shape[0])
    x = np.unpackbits(xw.astype("<u8").view(np.uint8), axis=1, count=n, bitorder="little")
    z = np.unpackbits(zw.astype("<u8").view(np.uint8), axis=1, count=n, bitorder="little")
    x ^= z
    z <<= 1
    z |= x  # uint8 ranks (z << 1) | (x ^ z): I=0, X=1, Y=2, Z=3
    return np.argsort(z.view(f"S{n}").ravel(), kind="stable")


class _NumericFrontier:
    """Term store as (N, words) uint64 mask arrays plus per-row coefficient data.

    A row holds a Pauli, a weight, a sine count and, over ``m`` free parameters,
    exponent columns ``pows``: row ``i`` carries the monomial
    ``prod_k cos(a_k)^pows[i, k] * sin(a_k)^pows[i, m + k]``. Numeric mode has
    ``m = 0``. With ``bound_sines`` (numeric mode) a bound angle's sine child
    raises its sine count as a free parameter's does; without it (symbolic
    mode) only free parameters raise it, so a row's count is the sum of its
    sine exponents. Merged rows keep the minimum count.

    Pooling numeric rows by Pauli is what keeps this numerically viable on deep
    circuits: partial sums of paths binned by their sine count grow
    combinatorially and only cancel across bins, which float64 cannot survive
    (a sine-resolved variant reached 1e21 coefficient mass on an 80-layer
    chain). The cost is that later sine-order cuts see the minimum count of a
    merged term, deliberately erring toward keeping mass.

    Keys are unique and the row order carries no meaning. A rotation writes
    each cosine child into its parent's row, adds each kept sine child to the
    one row it can meet, the cosine child of equal key (found by
    ``_partners``), and appends the nonzero sine children left without one. A
    rotation that keeps a sine child or floors a cosine child then removes
    every row of weight exactly 0: floored cosine children, zero sums, zero
    cosine children, and zero rows left by earlier rotations without sine
    children. Otherwise no row is removed or moved.

    ``support`` is a superset of the qubits the rows act on, one bit per qubit:
    the initial terms' qubits, widened by the generator's qubits when a
    rotation keeps a sine child and by a Clifford gate's qubits when the gate
    acts on one of them. It never narrows. A rotation whose generator misses it
    returns at once, as one without anticommuting rows does.
    """

    def __init__(self, n: int, terms: Sequence[tuple[PauliString, float]], m: int = 0,
                 dtype: type = np.uint8, bound_sines: bool = True) -> None:
        self.xw = _masks_to_words([p.x for p, _ in terms], n)
        self.zw = _masks_to_words([p.z for p, _ in terms], n)
        self.coeff = np.array([c for _, c in terms], dtype=np.float64)
        self.sines = np.zeros(len(terms), dtype=np.int64)
        self.pows = np.zeros((len(terms), 2 * m), dtype=dtype)
        self.m = m
        self.bound_sines = bound_sines
        self.support = 0
        for p, _ in terms:
            self.support |= p.x | p.z
        # whether a row may weigh exactly 0: a rotation without sine children leaves
        # its zero cosine children in place, and the next one with some removes them
        self.may_hold_zeros = not self.coeff.all()

    def __len__(self) -> int:
        return self.coeff.shape[0]

    def n_paulis(self) -> int:
        return np.unique(np.concatenate([self.xw, self.zw], axis=1), axis=0).shape[0]

    def _bit(self, arr: np.ndarray, q: int) -> np.ndarray:
        w, b = divmod(q, 64)
        return (arr[:, w] >> np.uint64(b)) & np.uint64(1)

    def _set_bit(self, arr: np.ndarray, q: int, values: np.ndarray) -> None:
        w, b = divmod(q, 64)
        bit = np.uint64(1 << b)
        arr[:, w] = (arr[:, w] & ~bit) | (values.astype(np.uint64) << np.uint64(b))

    def apply_clifford(self, gate: CliffordGate) -> None:
        if gate.kind == "seq":
            for sub in reversed(gate.sequence):
                self.apply_clifford(sub)
            return
        # the gate maps a row acting on its qubits onto any of them; the others it leaves
        qubits = sum(1 << q for q in gate.qubits)
        if qubits & self.support:
            self.support |= qubits
        codes, signs = gate_table(gate.kind)
        code = np.zeros(len(self), dtype=np.int64)
        for j, q in enumerate(gate.qubits):
            code += ((self._bit(self.xw, q) + 2 * self._bit(self.zw, q))
                     << np.uint64(2 * j)).astype(np.int64)
        new_code = codes[code]
        for j, q in enumerate(gate.qubits):
            self._set_bit(self.xw, q, (new_code >> np.uint64(2 * j)) & np.uint64(1))
            self._set_bit(self.zw, q, (new_code >> np.uint64(2 * j + 1)) & np.uint64(1))
        self.coeff *= signs[code]

    def apply_rotation(self, gen: PauliString, theta: float | None,
                       policy: TruncationPolicy, stats: PropagationStats,
                       slot: int | None = None) -> None:
        """Split the rows ``gen`` anticommutes with into cosine and sine children.

        A bound angle ``theta`` multiplies the children by its cos and sin; a free
        parameter ``slot`` (symbolic mode) raises its exponent column instead.
        """
        gen_qubits = gen.x | gen.z
        if not gen_qubits & self.support:  # no row acts where gen does: all commute with it
            return
        gxw, gzw = _masks_to_words([gen.x, gen.z], gen.n)
        words = np.flatnonzero(gxw | gzw).tolist()
        # symplectic parity, read only from the words where the generator acts
        parity = np.zeros(len(self), dtype=np.uint8)
        for w in words:
            parity ^= np.bitwise_count((self.xw[:, w] & gzw[w]) ^ (self.zw[:, w] & gxw[w]))
        anti = np.flatnonzero(parity & 1)
        n_anti = anti.shape[0]
        if n_anti == 0:
            return
        stats.paths_expanded += n_anti

        ax, az = self.xw.take(anti, axis=0), self.zw.take(anti, axis=0)
        a_coeff, a_sines, a_pows = self.coeff[anti], self.sines[anti], self.pows[anti]
        sx, sz = ax ^ gxw, az ^ gzw
        new_sines = a_sines + 1 if slot is not None or self.bound_sines else a_sines
        # phase exponent of gen @ p, then sign of i * (gen @ p); off the generator's words
        # sx, sz equal ax, az and their terms cancel. The uint8 sums wrap modulo 256, a
        # multiple of 4.
        exponent = (gen.x & gen.z).bit_count() % 4
        for w in words:
            exponent = exponent + (np.bitwise_count(ax[:, w] & az[:, w])
                                   - np.bitwise_count(sx[:, w] & sz[:, w])
                                   + 2 * np.bitwise_count(ax[:, w] & gzw[w]))
        sign = np.where((exponent & 3) == 3, 1.0, -1.0)
        if slot is None:
            cos_f, sin_f = math.cos(theta), math.sin(theta)
            sin_coeff = a_coeff * sin_f * sign
        else:
            sin_coeff = a_coeff * sign

        keep = np.ones(n_anti, dtype=bool)
        if policy.kappa is not None:
            over = new_sines > policy.kappa
            stats.truncated_sine += int(over.sum())
            keep &= ~over
        if policy.max_weight is not None:
            over = keep & (_popcount_words(sx | sz) > policy.max_weight)
            stats.truncated_weight += int(over.sum())
            keep &= ~over
        if policy.coeff_floor > 0.0:
            below = keep & (np.abs(sin_coeff) < policy.coeff_floor)
            stats.truncated_coeff += int(below.sum())
            keep &= ~below
        kept = keep.any()
        if kept:  # a sine child acts only where its parent or the generator does
            self.support |= gen_qubits

        # the cosine children stay in their parents' rows
        if slot is None:
            # the floor may prune the shrunken rows (a zero floor keeps all)
            a_coeff *= cos_f
            floored = np.abs(a_coeff) < policy.coeff_floor
            n_floored = int(floored.sum())
            stats.truncated_coeff += n_floored
            # a floored child's row is zeroed here and removed with the zero rows below
            self.coeff[anti] = np.where(floored, 0.0, a_coeff)
            if not kept and not n_floored:
                self.may_hold_zeros |= not a_coeff.all()
                return
            s_pows = a_pows
            distinct = False
        else:
            self.pows[anti, slot] += 1
            if not kept:
                return
            floored = np.zeros(n_anti, dtype=bool)
            # A cosine and a sine child share a key only if their rows already hold
            # powers of this parameter; otherwise they differ in its column.
            distinct = not a_pows[:, [slot, self.m + slot]].any()
            s_pows = a_pows.copy()
            a_pows[:, slot] += 1
            s_pows[:, self.m + slot] += 1

        new = np.flatnonzero(keep)
        if not distinct:
            # A sine child p^g anticommutes with g as its parent p does, so of all rows
            # it can only meet the cosine child of another anticommuting row; as keys
            # are unique, at most one. Their sum adds two floats, which commutes.
            cols = np.flatnonzero((a_pows | s_pows).any(axis=0))
            cos_rows = np.flatnonzero(~floored)
            partner = _partners(self._keys(ax, az, a_pows[:, cols], cos_rows),
                                self._keys(sx, sz, s_pows[:, cols], new))
            met = partner >= 0
            rows, children = anti[cos_rows[partner[met]]], new[met]
            self.coeff[rows] += sin_coeff[children]
            self.sines[rows] = np.minimum(self.sines[rows], new_sines[children])
            new = new[~met]
        new = new[sin_coeff[new] != 0.0]

        # rows of weight exactly 0 go: zero sums, zero or floored cosine children, and
        # zero rows that earlier rotations without sine children left behind
        if self.may_hold_zeros or not self.coeff[anti].all():
            nonzero = self.coeff != 0.0
            self.xw, self.zw, self.coeff, self.sines, self.pows = (
                arr[nonzero] for arr in (self.xw, self.zw, self.coeff, self.sines, self.pows))
            self.may_hold_zeros = False
        if new.shape[0]:
            self.xw, self.zw, self.coeff, self.sines, self.pows = (
                np.concatenate([old, child[new]]) for old, child in zip(
                    (self.xw, self.zw, self.coeff, self.sines, self.pows),
                    (sx, sz, sin_coeff, new_sines, s_pows)))

    @staticmethod
    def _keys(xw: np.ndarray, zw: np.ndarray, pows: np.ndarray,
              rows: np.ndarray) -> list[np.ndarray]:
        """The keys of ``rows`` as parts: 2-D uint64 arrays with one row per key.

        A key is the Pauli words and ``pows``. The parts are not joined into one
        array: that copies them row by row.
        """
        # take is several times faster than fancy indexing on rows of a 2-D array
        parts = [xw.take(rows, axis=0), zw.take(rows, axis=0)]
        if pows.shape[1]:
            parts.append(pows.take(rows, axis=0).astype(np.uint64))
        return parts


_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


@functools.cache
def _hash_weights(width: int) -> np.ndarray:
    """The first ``width`` odd powers of one constant, modulo 2^64; shared, so read-only."""
    weights = np.cumprod(np.full(width, _HASH_MULTIPLIER))
    weights.flags.writeable = False
    return weights


def _row_hash(parts: list[np.ndarray]) -> np.ndarray:
    """One 64-bit hash per key, given as uint64 parts; equal keys hash equal.

    Each word's high half is folded into its low half, so that a difference in
    any bit reaches the low bits; the key's columns, part after part, are then
    weighed by odd powers of one constant and summed modulo 2^64.
    """
    weights = _hash_weights(sum(part.shape[1] for part in parts))
    columns = (column for part in parts for column in (part ^ (part >> np.uint64(32))).T)
    hashes = np.zeros(parts[0].shape[0], dtype=np.uint64)
    # column by column: an integer matmul of a few columns costs more than these products
    for column, weight in zip(columns, weights):
        hashes += column * weight
    return hashes


def _partners(left: list[np.ndarray], right: list[np.ndarray]) -> np.ndarray:
    """Per key of ``right``, the index of the ``left`` key equal to it, or -1.

    Both sides are lists of key parts, as ``_NumericFrontier._keys`` gives
    them. Keys are unique on each side. Each right key searches its hash among
    the sorted left hashes. Its candidate's parts are compared, and a key whose
    candidate differs moves on to the next left key of equal hash, so keys
    whose hashes collide still pair exactly.
    """
    left_hash, right_hash = _row_hash(left), _row_hash(right)
    order = np.argsort(left_hash)
    # a last entry no smaller than any hash keeps every search position in bounds
    sorted_hash = np.append(left_hash[order], np.iinfo(np.uint64).max)
    todo = np.argsort(right_hash)  # searching sorted queries is faster
    pos = np.searchsorted(sorted_hash, right_hash[todo])
    partner = np.full(right_hash.shape[0], -1, dtype=np.intp)
    while True:
        hit = (pos < order.shape[0]) & (sorted_hash[pos] == right_hash[todo])
        todo, pos = todo[hit], pos[hit]
        if not todo.shape[0]:
            return partner
        candidate = order[pos]
        same = np.ones(todo.shape[0], dtype=bool)
        for left_part, right_part in zip(left, right):
            same &= (left_part.take(candidate, axis=0)
                     == right_part.take(todo, axis=0)).all(axis=1)
        partner[todo[same]] = candidate[same]
        todo, pos = todo[~same], pos[~same] + 1


def _propagate(circuit: Circuit, terms: Sequence[tuple[PauliString, float]],
               policy: TruncationPolicy, stats: PropagationStats,
               alphas: np.ndarray | None) -> _NumericFrontier:
    """Back-propagate ``terms``; ``alphas=None`` keeps the free parameters symbolic."""
    if alphas is None:
        # a parameter driving r rotations reaches exponent r, which picks the column type
        uses = np.bincount([g.param.index for g in circuit.rotations if not g.param.is_fixed],
                           minlength=circuit.m)
        frontier = _NumericFrontier(circuit.n, terms, circuit.m,
                                    np.min_scalar_type(int(uses.max(initial=0))),
                                    bound_sines=False)
    else:
        frontier = _NumericFrontier(circuit.n, terms)
    for gate in reversed(circuit.gates):
        if isinstance(gate, CliffordGate):
            frontier.apply_clifford(gate)
        elif gate.param.is_fixed:
            frontier.apply_rotation(gate.generator(circuit.n), gate.param.value, policy, stats)
        elif alphas is None:
            frontier.apply_rotation(gate.generator(circuit.n), None, policy, stats,
                                    slot=gate.param.index)
        else:
            frontier.apply_rotation(gate.generator(circuit.n), float(alphas[gate.param.index]),
                                    policy, stats)
        if policy.path_cap is not None and len(frontier) > policy.path_cap:
            stats.truncated_cap += 1
            stats.terms_final = frontier.n_paulis()
            stats.monomials_final = len(frontier)
            raise PolicyOverflowError(
                f"frontier holds {len(frontier)} paths, cap is {policy.path_cap}",
                stats=stats,
            )
    return frontier


def _frontier_table(m: int, xs: np.ndarray, zs: np.ndarray, coeffs: np.ndarray,
                    pows: np.ndarray) -> tuple[MonomialTable, np.ndarray, np.ndarray]:
    """The table of rows grouped by Pauli, with each term's first row and min sine count.

    Each row is one monomial, as frontier keys are unique. A term lists its
    monomials with their factor tuples in lexicographic order.
    """
    rows = coeffs.shape[0]
    new_pauli = np.ones(rows, dtype=bool)
    new_pauli[1:] = np.any(xs[1:] != xs[:-1], axis=1) | np.any(zs[1:] != zs[:-1], axis=1)
    pauli_starts = np.flatnonzero(new_pauli)
    group = np.cumsum(new_pauli) - 1
    cos_e, sin_e = pows[:, :m], pows[:, m:]
    row_of, params = np.nonzero(cos_e | sin_e)  # row-major: a row's factors by param
    counts = np.bincount(row_of, minlength=rows)
    # one code per factor, ordered as its (param, cos, sin) tuple is; each row's codes
    # padded with -1, so that a monomial sorts before its extensions as tuples do
    base = int(pows.max(initial=0)) + 1
    keys = np.full((rows, int(counts.max(initial=0))), -1,
                   dtype=np.result_type(np.int8, np.min_scalar_type(m * base * base)))
    keys[row_of, np.arange(row_of.shape[0]) - (np.cumsum(counts) - counts)[row_of]] = (
        (params * base + cos_e[row_of, params]) * base + sin_e[row_of, params])
    order = np.lexsort((*keys.T[::-1], group))
    keys = keys[order]
    codes, fac_index = np.unique(keys[keys >= 0], return_inverse=True)
    factor_table = np.stack([codes // (base * base), codes // base % base, codes % base], axis=1)
    table = MonomialTable.from_factors(m, np.diff(pauli_starts, append=rows), coeffs[order],
                                       counts[order], fac_index, factor_table)
    return table, pauli_starts, np.minimum.reduceat(table.sine_order, pauli_starts)


def _observable(paulis: Sequence[PauliString], sines: np.ndarray,
                values: np.ndarray | MonomialTable, policy: TruncationPolicy,
                stats: PropagationStats, *, n: int, m: int, n_rotations: int,
                n_paulis_initial: int) -> PropagatedObservable:
    """The observable of one term per Pauli, in order, from its columns.

    ``values`` holds the coefficients of a numeric observable or the table of a
    symbolic one. Its counters are a copy of ``stats`` with the final counts
    read off these columns.
    """
    table = values if isinstance(values, MonomialTable) else None
    return PropagatedObservable(
        n=n, paulis=tuple(paulis), sines=sines,
        stats=replace(stats, terms_final=len(paulis),
                      monomials_final=len(paulis) if table is None else table.n_monomials),
        policy=policy, m=m, n_rotations=n_rotations, n_paulis_initial=n_paulis_initial,
        table=table, coeffs=None if table is not None else values,
    )


def _word_ints(words: np.ndarray) -> list[int]:
    """Each row of 64-bit words as one int, word ``w`` in its bits ``64 w`` on.

    The words are turned into ints one column at a time.
    """
    ints = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        ints = [high << 64 | low for high, low in zip(ints, words[:, w].tolist())]
    return ints


# --- public entry point --------------------------------------------------------------


def backpropagate(
    circuit: Circuit,
    obs: ObservableSpec,
    policy: TruncationPolicy | None = None,
    mode: str = NUMERIC,
    alphas: Sequence[float] | None = None,
) -> PropagatedObservable:
    """Back-propagate ``obs`` through ``circuit`` under ``policy``.

    Numeric mode binds the free parameters to ``alphas`` and returns one
    merged coefficient per surviving Pauli; symbolic mode returns each
    coefficient as trigonometric monomials in the free parameters. Terms are
    listed in text-lexicographic Pauli order.
    """
    policy = policy or TruncationPolicy.exact()
    if mode not in (NUMERIC, SYMBOLIC):
        raise ConfigError(f"unknown mode {mode!r}")
    if obs.n != circuit.n:
        raise DimensionError(f"observable n={obs.n} vs circuit n={circuit.n}")
    if mode == SYMBOLIC:
        if alphas is not None:
            raise ConfigError("symbolic mode takes no parameter vector")
        if policy.coeff_floor > 0.0:
            raise ConfigError("coefficient floor needs magnitudes; use numeric mode")
    else:
        alpha_arr = np.asarray([] if alphas is None else alphas, dtype=float)
        if alpha_arr.shape != (circuit.m,):
            raise DimensionError(
                f"numeric mode needs {circuit.m} parameters, got {alpha_arr.shape}"
            )
        finite_parameters(alpha_arr)
    stats = PropagationStats()
    frontier = _propagate(circuit, obs.terms, policy, stats,
                          None if mode == SYMBOLIC else alpha_arr)
    # rows of one Pauli (one row in numeric mode) end up adjacent, in text order
    nonzero = np.flatnonzero(frontier.coeff)
    order = nonzero[_text_order(circuit.n, frontier.xw[nonzero], frontier.zw[nonzero])]
    xs, zs = frontier.xw[order], frontier.zw[order]
    if mode == NUMERIC:
        sines, values = frontier.sines[order], frontier.coeff[order]
    else:
        values, firsts, sines = _frontier_table(circuit.m, xs, zs, frontier.coeff[order],
                                                frontier.pows[order])
        xs, zs = xs[firsts], zs[firsts]
    paulis = tuple(PauliString(circuit.n, x, z) for x, z in zip(_word_ints(xs), _word_ints(zs)))
    return _observable(paulis, sines, values, policy, stats, n=circuit.n, m=circuit.m,
                       n_rotations=len(circuit.rotations), n_paulis_initial=obs.n_paulis)


def restrict_sine_order(po: PropagatedObservable, kappa: int) -> PropagatedObservable:
    """Sub-surrogate keeping monomials of sine order at most ``kappa``.

    A monomial's sine order is its path's sine count, so this equals a fresh
    build at that kappa: a path cut at split time is exactly one whose
    monomial would exceed the order, and cutting it also removes all its
    descendants, which carry even higher orders. The result keeps the build's
    counters of expanded and truncated paths, and counts its own surviving
    terms and monomials. A ``kappa`` above the build's raises ``ConfigError``:
    the build holds no higher orders.
    """
    policy = replace(po.policy, kappa=kappa)  # refuses a kappa that is not an integer
    if po.policy.kappa is not None and kappa > po.policy.kappa:
        raise ConfigError(f"kappa {kappa} exceeds the build's kappa {po.policy.kappa}")
    table = po.monomial_table()
    orders = table.sine_order
    keep = orders <= kappa
    alive = np.bincount(table.mono_term[keep], minlength=po.n_paulis) > 0
    sub = table.select(keep)
    sines = np.minimum.reduceat(orders[keep], sub.term_starts[:-1])
    paulis = [p for p, kept in zip(po.paulis, alive.tolist()) if kept]
    return _observable(paulis, sines, sub, policy, po.stats, n=po.n, m=po.m,
                       n_rotations=po.n_rotations, n_paulis_initial=po.n_paulis_initial)


# --- surrogate artifact file ---------------------------------------------------------
# Version 2 stores the surrogate as columns: the Pauli texts and minimum sine counts
# of the terms, then either their coefficients (numeric mode) or the monomial table
# (symbolic mode): monomials per term, weights, factors per monomial, a table of
# distinct [param, cos, sin] factors and, per factor, its row of that table. A
# constant monomial has no factors. Version 1 lists one document per term; it is
# read by turning its terms into the same columns.

ARTIFACT_FORMAT = "landscape-patch-surrogate"
ARTIFACT_VERSION = 2
_SYMBOLIC_COLUMNS = ("term_monomials", "weights", "monomial_factors", "factor_table",
                     "factor_index")


def save_artifact(po: PropagatedObservable, path) -> None:
    """Write the surrogate as versioned JSON (gzip when the path ends in .gz)."""
    doc = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "n": po.n,
        "mode": po.mode,
        "m": po.m,
        "n_rotations": po.n_rotations,
        "n_paulis_initial": po.n_paulis_initial,
        "policy": asdict(po.policy),
        "stats": po.stats.as_dict(),
        "paulis": [p.to_text() for p in po.paulis],
        "sines": po.sines.tolist(),
    }
    if po.mode == NUMERIC:
        doc["coeffs"] = po.coeffs.tolist()
    else:
        doc.update(_table_doc(po.monomial_table()))
    # compact separators keep json on its C encoder; an indent runs the Python one
    payload = json.dumps(doc, separators=(",", ":")).encode()
    path = str(path)
    if path.endswith(".gz"):
        with gzip.open(path, "wb", compresslevel=6) as fh:
            fh.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def _table_doc(table: MonomialTable) -> dict:
    """The table's columns, leaving out the dummy factors of constant monomials."""
    real = (table.dist_cos != 0) | (table.dist_sin != 0)
    kept = real[table.fac_dist]
    fac_counts = np.diff(table.fac_starts, append=table.fac_dist.shape[0])
    fac_counts[~kept[table.fac_starts]] = 0
    distinct = np.stack([table.dist_param, table.dist_cos, table.dist_sin], axis=1)
    return {
        "term_monomials": np.diff(table.term_starts).tolist(),
        "weights": table.mono_weight.tolist(),
        "monomial_factors": fac_counts.tolist(),
        "factor_table": distinct[real].tolist(),
        "factor_index": (np.cumsum(real) - 1)[table.fac_dist[kept]].tolist(),
    }


def _json_policy(fields: dict) -> TruncationPolicy:
    """A policy read from JSON: integer (or null) cuts and a numeric coefficient floor."""
    return TruncationPolicy(**{
        key: number(value, f"policy.{key}") if key == "coeff_floor"
        else None if value is None else integer(value, f"policy.{key}")
        for key, value in fields.items()
    })


def _v1_columns(terms: list, mode: str) -> dict:
    """A version-1 artifact's term documents as version-2 columns, values unchecked."""
    columns: dict = {"paulis": [], "sines": []}
    if mode == NUMERIC:
        columns["coeffs"] = []
    else:
        columns.update({key: [] for key in _SYMBOLIC_COLUMNS})
    for raw in terms:
        if ("coeff" in raw) != (mode == NUMERIC):
            raise ValidationError(f"term {raw['pauli']} does not match mode {mode!r}")
        columns["paulis"].append(raw["pauli"])
        columns["sines"].append(raw["sines"])
        if mode == NUMERIC:
            columns["coeffs"].append(raw["coeff"])
            continue
        columns["term_monomials"].append(len(raw["monomials"]))
        for entry in raw["monomials"]:
            columns["weights"].append(entry["w"])
            columns["monomial_factors"].append(len(entry["params"]))
            columns["factor_table"].extend(entry["params"])
    if mode != NUMERIC:
        columns["factor_index"] = list(range(len(columns["factor_table"])))
    return columns


def _columns_table(m: int, n_terms: int, columns: dict) -> MonomialTable:
    """The monomial table of an artifact's symbolic columns, checked before it is built."""
    term_sizes = documents.count_array(columns["term_monomials"], "term_monomials")
    weights = documents.number_array(columns["weights"], "weights")
    fac_counts = documents.count_array(columns["monomial_factors"], "monomial_factors")
    rows = columns["factor_table"]
    if not isinstance(rows, list) or not all(isinstance(row, list) and len(row) == 3
                                             for row in rows):
        raise ValidationError("factor_table must list [param, cos, sin] rows")
    distinct = documents.integer_array(list(chain.from_iterable(rows)),
                                       "factor_table").reshape(-1, 3)
    index = documents.integer_array(columns["factor_index"], "factor_index")
    if (term_sizes.shape[0] != n_terms or weights.shape != fac_counts.shape
            or term_sizes.sum() != weights.shape[0] or fac_counts.sum() != index.shape[0]):
        raise ValidationError("the artifact's columns disagree in length")
    if index.min(initial=0) < 0 or index.max(initial=-1) >= distinct.shape[0]:
        raise ValidationError(f"a factor index is outside [0, {distinct.shape[0]})")
    params, cos_e, sin_e = distinct.T
    if (params.min(initial=0) < 0 or params.max(initial=-1) >= m
            or min(cos_e.min(initial=0), sin_e.min(initial=0)) < 0
            or np.any((cos_e == 0) & (sin_e == 0))):
        raise ValidationError(f"a factor needs a param in [0, {m}) and exponents >= 0, "
                              "not both 0")
    mono = np.repeat(np.arange(fac_counts.shape[0]), fac_counts)
    if np.any((np.diff(params[index]) <= 0) & (mono[1:] == mono[:-1])):
        raise ValidationError("a monomial's factors need distinct params in increasing order")
    return MonomialTable.from_factors(m, term_sizes, weights, fac_counts, index, distinct)


def load_artifact(path) -> PropagatedObservable:
    """Read a ``save_artifact`` file, version 1 or 2; a malformed one raises ``ValidationError``."""
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            payload = fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:  # truncated or corrupt gzip
        raise ValidationError(f"unreadable gzip artifact: {exc!r}") from None
    doc = documents.parse(payload, "surrogate artifact", ARTIFACT_FORMAT, (1, ARTIFACT_VERSION))
    with documents.fields("surrogate artifact"):
        n, mode, m = count(doc["n"], "n"), doc["mode"], count(doc["m"], "m")
        if mode not in (NUMERIC, SYMBOLIC):
            raise ValidationError(f"unknown artifact mode {mode!r}")
        columns = doc if doc["version"] == ARTIFACT_VERSION else _v1_columns(doc["terms"], mode)
        if ("coeffs" in columns) != (mode == NUMERIC):
            raise ValidationError(f"the artifact's columns do not match mode {mode!r}")
        if not isinstance(columns["paulis"], list):
            raise ValidationError("paulis must be a JSON list")
        paulis = [PauliString.from_text(text, n) for text in columns["paulis"]]
        if len(set(paulis)) != len(paulis):
            raise ValidationError("a term's Pauli is listed twice")
        sines = documents.count_array(columns["sines"], "sines")
        if sines.shape[0] != len(paulis):
            raise ValidationError("the artifact's columns disagree in length")
        if mode == NUMERIC:
            values = documents.number_array(columns["coeffs"], "coeffs")
            if values.shape != sines.shape:
                raise ValidationError("the artifact's columns disagree in length")
        else:
            values = _columns_table(m, len(paulis), columns)
        stats = PropagationStats(**{key: count(value, f"stats.{key}")
                                    for key, value in doc["stats"].items()})
        return _observable(paulis, sines, values, _json_policy(doc["policy"]), stats, n=n, m=m,
                           n_rotations=count(doc["n_rotations"], "n_rotations"),
                           n_paulis_initial=count(doc["n_paulis_initial"], "n_paulis_initial"))
