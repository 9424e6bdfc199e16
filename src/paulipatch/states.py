"""Initial states, Pauli overlaps, and the dense statevector reference oracle.

The dense simulator is the ground truth every propagation result is checked
against. States are vectors of complex amplitudes with qubit ``q`` on basis
bit ``q``. Gates act on the ``(rows, 2, ..., 2)`` view of a batch, where
qubit ``q`` is axis ``n - q``: a Pauli flips its X/Y axes and multiplies by a
sign spanning only its Z/Y axes, and every Clifford kind but ``h`` moves
slices of its axes with a fixed index and phase. No operator matrix over all
qubits is ever built, and the kernels keep no array of size ``2**n`` between
calls.

Caps: expectation oracles run up to 14 qubits; dense state construction and
overlap evaluation are allowed up to 16 so that a Trotter-prepared 16-qubit
input state can still be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, Rotation
from .errors import DimensionError, OracleCapError, ValidationError
from .pauli import (
    CLIFFORD_1Q,
    CLIFFORD_2Q,
    CliffordGate,
    ObservableSpec,
    PauliString,
    gate_matrix,
)

DENSE_EXPECTATION_CAP = 14
DENSE_STATE_CAP = 16

# Working-array budget of one block of rows: 64 rows of a 10-qubit state. Larger blocks
# buy no speed here and raise peak memory (512 rows cost 8 MB per working array).
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AllZero:
    """The computational basis state |0...0>."""

    n: int


@dataclass(frozen=True)
class AllPlus:
    """The product state |+...+>."""

    n: int


class Dense:
    """An explicit amplitude vector, normalized to 1 within 1e-12."""

    def __init__(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        n = int(vector.size).bit_length() - 1
        if 1 << n != vector.size:
            raise ValidationError(f"amplitude count {vector.size} is not a power of 2")
        if n > DENSE_STATE_CAP:
            raise OracleCapError(f"dense states capped at {DENSE_STATE_CAP} qubits, got {n}")
        norm = float(np.linalg.norm(vector))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-12")
        self.n = n
        self.vector = vector

    @classmethod
    def from_binary_file(cls, path) -> "Dense":
        """Load amplitudes stored as little-endian complex64 pairs.

        float32 quantization perturbs the norm by ~1e-7, so the vector is
        renormalized after loading.
        """
        raw = np.fromfile(path, dtype="<c8").astype(complex)
        norm = float(np.linalg.norm(raw))
        if not 0.9 < norm < 1.1:
            raise ValidationError(f"stored state norm {norm} is not close to 1")
        return cls(raw / norm)

    def to_binary_file(self, path) -> None:
        self.vector.astype("<c8").tofile(path)


class TrotterEvolvedZero:
    """|0...0> evolved through a fully bound circuit, built densely on demand."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.m != 0:
            raise ValidationError("preparation circuit must have all angles fixed")
        if circuit.n > DENSE_STATE_CAP:
            raise OracleCapError(
                f"dense states capped at {DENSE_STATE_CAP} qubits, got {circuit.n}"
            )
        self.n = circuit.n
        self.circuit = circuit

    @cached_property
    def vector(self) -> np.ndarray:
        psi = np.zeros(1 << self.n, dtype=complex)
        psi[0] = 1.0
        return _apply_circuit(psi[np.newaxis, :], self.circuit, np.zeros((1, 0)))[0]


InitialState = AllZero | AllPlus | Dense | TrotterEvolvedZero


def state_vector(state: InitialState) -> np.ndarray:
    """Dense amplitudes of any supported state (subject to the state cap)."""
    if isinstance(state, AllZero):
        if state.n > DENSE_STATE_CAP:
            raise OracleCapError(f"dense form capped at {DENSE_STATE_CAP} qubits")
        psi = np.zeros(1 << state.n, dtype=complex)
        psi[0] = 1.0
        return psi
    if isinstance(state, AllPlus):
        if state.n > DENSE_STATE_CAP:
            raise OracleCapError(f"dense form capped at {DENSE_STATE_CAP} qubits")
        dim = 1 << state.n
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    return state.vector


# --- Pauli action on dense vectors ------------------------------------------------


def block_rows(n: int) -> int:
    """Rows of ``2**n`` complex amplitudes per block of the fixed byte budget (at least 1)."""
    return max(1, _BLOCK_BYTES // (16 << n))


def apply_pauli_dense(batch: np.ndarray, p: PauliString) -> np.ndarray:
    """Apply ``p`` to each row of a (batch, 2**n) amplitude array.

    The result is ``phase * np.flip(view, x_axes)`` on the (batch, 2, ..., 2)
    view. ``phase`` is the exact +/-1, +/-i factor of each basis state; it
    spans only the Z/Y axes (2**|z| values) and broadcasts over the rest. A
    generator without X/Y letters needs no flip.
    """
    n = p.n
    shaped = batch.reshape(batch.shape[0], *([2] * n))
    parity = np.ones((1,) * (n + 1))
    for q in range(n):
        if p.z >> q & 1:
            sign = np.array([1.0, -1.0]).reshape((1,) * (n - q) + (2,) + (1,) * q)
            parity = parity * sign
    phase = (1j ** ((p.x & p.z).bit_count())) * parity
    x_axes = tuple(n - q for q in range(n) if p.x >> q & 1)
    if x_axes:
        # out[j] is phase[j ^ x] * in[j ^ x]: flip the phase with the amplitudes
        phase, shaped = np.flip(phase, x_axes), np.flip(shaped, x_axes)
    return (phase * shaped).reshape(batch.shape[0], -1)


def _apply_gate_matrix(batch: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
                       n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on ``qubits`` (gate qubit 0 = low matrix bit)."""
    shaped = batch.reshape(batch.shape[0], *([2] * n))
    # numpy axis for qubit q is n-q (axis 0 is the batch); gate's qubit 0 must
    # land on the least-significant flattened bit, hence reversed move order.
    axes = [n - q for q in reversed(qubits)]
    moved = np.moveaxis(shaped, axes, range(1, 1 + len(qubits)))
    head = moved.shape[: 1 + len(qubits)]
    flat = moved.reshape(batch.shape[0], mat.shape[0], -1)
    flat = np.einsum("ij,bjk->bik", mat, flat)
    moved = flat.reshape(head + moved.shape[1 + len(qubits):])
    shaped = np.moveaxis(moved, range(1, 1 + len(qubits)), axes)
    return shaped.reshape(batch.shape[0], -1)


def _index_and_phase(mat: np.ndarray) -> tuple[tuple[int, ...], tuple[complex, ...]]:
    """Row ``i`` of a permutation-times-phase matrix is ``phase[i]`` at column ``index[i]``."""
    index = [int(j) for j in np.argmax(np.abs(mat), axis=1)]
    return tuple(index), tuple(mat[i, j] for i, j in enumerate(index))


_H = gate_matrix("h")
_MONOMIAL_GATES = {kind: _index_and_phase(gate_matrix(kind))
                   for kind in CLIFFORD_1Q + CLIFFORD_2Q if kind != "h"}


def _apply_clifford(batch: np.ndarray, kind: str, qubits: tuple[int, ...],
                    n: int) -> np.ndarray:
    """Apply one non-seq Clifford gate; all kinds but ``h`` move slices of their axes."""
    if kind == "h":
        return _apply_gate_matrix(batch, _H, qubits, n)
    index, phase = _MONOMIAL_GATES[kind]
    shaped = batch.reshape(batch.shape[0], *([2] * n))
    out = np.empty_like(shaped)

    def local(i: int) -> tuple:
        view: list = [slice(None)] * (n + 1)
        for bit, q in enumerate(qubits):
            view[n - q] = (i >> bit) & 1
        return tuple(view)

    for i, (j, factor) in enumerate(zip(index, phase)):
        np.multiply(factor, shaped[local(j)], out=out[local(i)])
    return out.reshape(batch.shape[0], -1)


def _apply_circuit(batch: np.ndarray, circuit: Circuit, alphas: np.ndarray) -> np.ndarray:
    """Run ``circuit`` on a batch of states; row b uses parameter row b."""
    n = circuit.n
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            for sub in gate.sequence if gate.kind == "seq" else (gate,):
                batch = _apply_clifford(batch, sub.kind, sub.qubits, n)
        else:
            theta = (
                np.full(batch.shape[0], gate.param.value)
                if gate.param.is_fixed
                else alphas[:, gate.param.index]
            )
            rotated = apply_pauli_dense(batch, gate.generator(n))
            cos = np.cos(theta / 2.0)[:, np.newaxis]
            sin = np.sin(theta / 2.0)[:, np.newaxis]
            # cos * batch - 1j * sin * rotated, with one temporary fewer
            rotated *= 1j * sin
            batch = cos * batch
            batch -= rotated
    return batch


# --- Overlaps and expectations -----------------------------------------------------


def overlap(state: InitialState, p: PauliString) -> float:
    """Tr[rho P] for the supported initial states; always in [-1, 1]."""
    if state.n != p.n:
        raise DimensionError(f"state has {state.n} qubits, Pauli has {p.n}")
    if isinstance(state, AllZero):
        return 1.0 if p.x == 0 else 0.0
    if isinstance(state, AllPlus):
        return 1.0 if p.z == 0 else 0.0
    psi = state.vector
    value = np.vdot(psi, apply_pauli_dense(psi[np.newaxis, :], p)[0])
    return float(value.real)


def evolve_state(circuit: Circuit, alphas, state: InitialState) -> Dense:
    """Dense state after running ``circuit`` at parameters ``alphas``."""
    if circuit.n != state.n:
        raise DimensionError(f"circuit has {circuit.n} qubits, state has {state.n}")
    if circuit.n > DENSE_STATE_CAP:
        raise OracleCapError(f"dense evolution capped at {DENSE_STATE_CAP} qubits")
    alphas = np.asarray(alphas, dtype=float).reshape(1, -1)
    if alphas.shape[1] != circuit.m:
        raise DimensionError(f"expected {circuit.m} parameters, got {alphas.shape[1]}")
    psi = _apply_circuit(state_vector(state)[np.newaxis, :], circuit, alphas)[0]
    return Dense(psi)


def exact_expectation(circuit: Circuit, alphas, obs: ObservableSpec,
                      state: InitialState) -> float:
    """Ground-truth Tr[O U(alpha) rho U(alpha)^dagger] via dense evolution."""
    return float(exact_expectation_batch(circuit, np.asarray(alphas, float)[np.newaxis, :],
                                         obs, state)[0])


def exact_expectation_batch(circuit: Circuit, alphas: np.ndarray, obs: ObservableSpec,
                            state: InitialState) -> np.ndarray:
    """Vectorized oracle over many parameter vectors (rows of ``alphas``).

    Rows are evolved in blocks of ``block_rows(n)``; every row's value is
    independent of the block it falls in.
    """
    if circuit.n != state.n or obs.n != circuit.n:
        raise DimensionError("circuit, observable, and state qubit counts must match")
    cap = DENSE_STATE_CAP if isinstance(state, TrotterEvolvedZero) else DENSE_EXPECTATION_CAP
    if circuit.n > cap:
        raise OracleCapError(
            f"exact expectations capped at {cap} qubits here, got {circuit.n}"
        )
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] != circuit.m:
        raise DimensionError(f"expected (draws, {circuit.m}) parameters, got {alphas.shape}")
    psi0 = state_vector(state)
    out = np.empty(alphas.shape[0])
    step = block_rows(circuit.n)
    for start in range(0, alphas.shape[0], step):
        block = alphas[start:start + step]
        batch = np.repeat(psi0[np.newaxis, :], block.shape[0], axis=0)
        batch = _apply_circuit(batch, circuit, block)
        values = np.zeros(block.shape[0], dtype=complex)
        for p, coeff in obs.terms:
            values += coeff * np.einsum("bi,bi->b", batch.conj(), apply_pauli_dense(batch, p))
        out[start:start + step] = values.real
    return out
