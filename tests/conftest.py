"""Shared fixtures: seeded random circuits and an independent dense oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from paulipatch import (
    AllocationPlan,
    CliffordGate,
    Circuit,
    ConfigError,
    ObservableSpec,
    ParamRef,
    PauliString,
    Rotation,
    pauli_mean_squares,
    overlap,
    worst_case_coeff_bounds,
)
from paulipatch.states import state_vector

# dense single-qubit matrices built here on purpose: tests must not reuse the
# package's own matrix table as their oracle
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
LETTER_MATS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def dense_pauli(p: PauliString) -> np.ndarray:
    """Kronecker build with qubit 0 on the least-significant basis bit."""
    mat = np.array([[1.0 + 0j]])
    for q in range(p.n):
        mat = np.kron(LETTER_MATS[p.letter(q)], mat)
    return mat


def random_mixed_circuit(rng: np.random.Generator, n: int, n_rot: int,
                         shared: bool = False) -> Circuit:
    """Clifford + rotation circuit with ``n_rot`` rotations, free or one shared angle."""
    gates = []
    cliffords_1q = ("h", "s", "sdg", "x", "y", "z")
    next_param = 0
    for _ in range(n_rot):
        roll = rng.integers(0, 3)
        if roll == 0:
            gates.append(CliffordGate(str(rng.choice(cliffords_1q)),
                                      (int(rng.integers(n)),)))
        elif roll == 1 and n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(CliffordGate(str(rng.choice(("cnot", "cz", "swap"))),
                                      (int(a), int(b))))
        size = int(rng.integers(1, min(n, 2) + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        letters = "".join(rng.choice(list("XYZ")) for _ in range(size))
        if shared:
            ref = ParamRef.shared(0)
        else:
            ref = ParamRef.free(next_param)
            next_param += 1
    # rotations interleave with the Cliffords appended above
        gates.append(Rotation(letters, qubits, ref))
    m = 1 if shared else next_param
    return Circuit(n, m, tuple(gates))


def patch_around_fixed_x(circuit: Circuit) -> Circuit:
    """``circuit`` with a shared parameter on X after each X rotation: a patch around it."""
    gates = []
    for gate in circuit.gates:
        gates.append(gate)
        if isinstance(gate, Rotation) and gate.letters == "X":
            gates.append(Rotation("X", gate.qubits, ParamRef.shared(0)))
    return Circuit(circuit.n, 1, tuple(gates))


def random_observable(rng: np.random.Generator, n: int, terms: int = 1) -> ObservableSpec:
    chosen: dict[PauliString, float] = {}
    while len(chosen) < terms:
        size = int(rng.integers(1, min(n, 3) + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        letters = "".join(rng.choice(list("XYZ")) for _ in range(size))
        p = PauliString.from_letters(letters, qubits, n)
        if p not in chosen:
            chosen[p] = float(rng.uniform(0.2, 1.0) * rng.choice((-1, 1)))
    return ObservableSpec(tuple(chosen.items()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# --- the mask-indexed dense kernels, kept as the bitwise reference -----------------------
# These are the statevector kernels the package used before its gather-free rewrite. The
# rewrite must reproduce them exactly, so tests compare with ``==``, not a tolerance.


def ref_apply_pauli_dense(batch: np.ndarray, p: PauliString) -> np.ndarray:
    """Apply ``p`` to each row through a scattered index and a parity vector."""
    dim = batch.shape[-1]
    idx = np.arange(dim, dtype=np.int64)
    counts = np.bitwise_count(idx & np.int64(p.z))
    parity = 1.0 - 2.0 * (counts & 1).astype(float)
    phase = (1j ** ((p.x & p.z).bit_count())) * parity
    out = np.empty_like(batch)
    out[..., idx ^ np.int64(p.x)] = phase * batch
    return out


def ref_apply_gate_matrix(batch: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
                          n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on ``qubits`` with ``moveaxis`` and ``einsum``."""
    shaped = batch.reshape(batch.shape[0], *([2] * n))
    axes = [n - q for q in reversed(qubits)]
    moved = np.moveaxis(shaped, axes, range(1, 1 + len(qubits)))
    head = moved.shape[: 1 + len(qubits)]
    flat = moved.reshape(batch.shape[0], mat.shape[0], -1)
    flat = np.einsum("ij,bjk->bik", mat, flat)
    moved = flat.reshape(head + moved.shape[1 + len(qubits):])
    shaped = np.moveaxis(moved, range(1, 1 + len(qubits)), axes)
    return shaped.reshape(batch.shape[0], -1)


def ref_apply_circuit(batch: np.ndarray, circuit: Circuit, alphas: np.ndarray) -> np.ndarray:
    """Run ``circuit`` on a batch of states with the reference kernels."""
    from paulipatch.pauli import gate_matrix

    n = circuit.n
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            subs = gate.sequence if gate.kind == "seq" else (gate,)
            for sub in subs:
                batch = ref_apply_gate_matrix(batch, gate_matrix(sub.kind), sub.qubits, n)
        else:
            theta = (
                np.full(batch.shape[0], gate.param.value)
                if gate.param.is_fixed
                else alphas[:, gate.param.index]
            )
            rotated = ref_apply_pauli_dense(batch, gate.generator(n))
            cos = np.cos(theta / 2.0)[:, np.newaxis]
            sin = np.sin(theta / 2.0)[:, np.newaxis]
            batch = cos * batch - 1j * sin * rotated
    return batch


def ref_expectation_batch(circuit, alphas, obs, state, chunk=64):
    """The expectation loop of the reference oracle, over 64-row chunks."""
    psi0 = state_vector(state)
    out = np.empty(alphas.shape[0])
    for start in range(0, alphas.shape[0], chunk):
        block = alphas[start:start + chunk]
        batch = np.repeat(psi0[np.newaxis, :], block.shape[0], axis=0)
        batch = ref_apply_circuit(batch, circuit, block)
        values = np.zeros(block.shape[0], dtype=complex)
        for p, coeff in obs.terms:
            values += coeff * np.einsum("bi,bi->b", batch.conj(), ref_apply_pauli_dense(batch, p))
        out[start:start + chunk] = values.real
    return out


# --- the per-row surrogate kernel, kept as the bitwise reference -------------------------
# ``MonomialTable.coefficients`` before it ran on row blocks of a distinct-factor table: one
# power per factor occurrence, one row at a time. Batched rows must reproduce it exactly.


def ref_coefficients(po, alpha_rows: np.ndarray) -> np.ndarray:
    """c_P(alpha) per row of ``alpha_rows`` and term, shape (rows, terms)."""
    term_starts: list[int] = [0]
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
            for param, cos_e, sin_e in mono.factors or ((0, 0, 0),):
                fac_param.append(param)
                fac_cos.append(cos_e)
                fac_sin.append(sin_e)
        term_starts.append(len(mono_term))
    mono_term = np.array(mono_term, dtype=np.intp)
    mono_weight = np.array(mono_weight)
    fac_param = np.array(fac_param, dtype=np.intp)
    fac_cos = np.array(fac_cos)
    fac_sin = np.array(fac_sin)
    fac_starts = np.array(fac_starts, dtype=np.intp)
    n_terms = len(term_starts) - 1
    rows = []
    for alphas in np.asarray(alpha_rows, dtype=float):
        if mono_term.shape[0] == 0:
            rows.append(np.zeros(n_terms))
            continue
        cos_v = np.cos(alphas) if po.m else np.ones(1)
        sin_v = np.sin(alphas) if po.m else np.zeros(1)
        factors = cos_v[fac_param] ** fac_cos * sin_v[fac_param] ** fac_sin
        mono_vals = np.multiply.reduceat(factors, fac_starts)
        coeffs = np.zeros(n_terms)
        np.add.at(coeffs, mono_term, mono_weight * mono_vals)
        rows.append(coeffs)
    return np.array(rows).reshape(len(rows), n_terms)


# --- the per-factor block kernel, kept as the bitwise reference --------------------------
# ``MonomialTable._monomial_blocks`` before it multiplied one factor position at a time: the
# block's distinct-factor powers gathered once per factor and multiplied per monomial with
# ``reduceat``. The level-by-level kernel must reproduce its blocks exactly.


def ref_monomial_blocks(table, alpha_rows: np.ndarray):
    """Yield (row slice, monomial values of those rows) block by block."""
    for start in range(0, alpha_rows.shape[0], table.block_rows):
        rows = slice(start, start + table.block_rows)
        block = alpha_rows[rows]
        if table.m:
            cos_v, sin_v = np.cos(block), np.sin(block)
        else:  # only the dummy factor, read at param 0
            cos_v, sin_v = np.ones((block.shape[0], 1)), np.zeros((block.shape[0], 1))
        reps = (block.shape[0], 1)
        dist = (cos_v[:, table.dist_param] ** np.tile(table.dist_cos, reps)
                * sin_v[:, table.dist_param] ** np.tile(table.dist_sin, reps))
        yield rows, np.multiply.reduceat(dist[:, table.fac_dist], table.fac_starts, axis=1)


# --- the per-branch allocation, kept as the bitwise reference ----------------------------
# ``make_allocation`` before its strategies shared one weighting path: each branch filtered,
# divided and checked its own support. The shared path must reproduce its plans exactly.


def ref_make_allocation(strategy, shots, coeffs=None, surrogate=None, r=None):
    if strategy in ("uniform", "abs-coeff"):
        if coeffs is None:
            if surrogate is None:
                raise ConfigError(f"{strategy} needs a coefficient table")
            coeffs = {p: 1.0 for p in surrogate.terms}
        support = [(p, abs(c)) for p, c in coeffs.items() if c != 0.0]
        if not support:
            raise ConfigError("allocation support is empty")
        if strategy == "uniform":
            beta = [(p, 1.0 / len(support)) for p, _ in support]
        else:
            total = sum(w for _, w in support)
            beta = [(p, w / total) for p, w in support]
    elif strategy in ("eff1norm-avg", "eff1norm-worst"):
        if surrogate is None or r is None:
            raise ConfigError(f"{strategy} needs a symbolic surrogate and half-width r")
        if strategy == "eff1norm-avg":
            squares = pauli_mean_squares(surrogate, r)
            weights = {p: math.sqrt(v) for p, v in squares.items()}
        else:
            weights = worst_case_coeff_bounds(surrogate, r)
        support = [(p, w) for p, w in weights.items() if w > 0.0]
        if not support:
            raise ConfigError("allocation support is empty")
        total = sum(w for _, w in support)
        beta = [(p, w / total) for p, w in support]
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    # exact renormalization guards the sum-to-one invariant against rounding
    norm = sum(b for _, b in beta)
    beta = [(p, b / norm) for p, b in beta]
    return AllocationPlan(tuple(beta), strategy, shots)


# --- the hand-written landscape sum, kept as the bitwise reference ------------------------
# What callers wrote out before ``PropagatedObservable.expectation``: a numeric observable's
# stored coefficients against the overlaps, in term order. ``expectation`` must equal it.


def ref_expectation(po, state) -> float:
    total = 0
    for p, term in po.terms.items():
        total += term.coefficient * overlap(state, p)
    return total
