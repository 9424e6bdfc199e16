"""Initial states, Pauli overlaps, and the dense statevector reference oracle.

The dense simulator is the ground truth every propagation result is checked
against. States are vectors of complex amplitudes with qubit ``q`` on basis
bit ``q``. A block of rows (one state per parameter row) is held
amplitude-major, as a C-contiguous ``(2**n, rows)`` array, and gates act on
its ``(2, ..., 2, rows)`` view, where qubit ``q`` is axis ``n - 1 - q``, so
every pass runs over contiguous runs of ``rows`` amplitudes. A Pauli flips its
X/Y axes and multiplies by a phase spanning only its Z/Y axes and the row
axis; a rotation updates the block in place through one work array; every
Clifford kind but ``h`` moves slices of its axes into the work array with a
fixed index and phase, and the two arrays swap. No operator matrix over all
qubits is ever built, and the kernels keep no array of size ``2**n`` between
calls. ``Dense`` and ``TrotterEvolvedZero`` vectors are read-only, so the
in-place kernels cannot change a state.

Caps: expectation oracles run up to 14 qubits; dense state construction and
overlap evaluation are allowed up to 16 so that a Trotter-prepared 16-qubit
input state can still be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, finite_parameters
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

# Budget of each of a block's two arrays (states and work): 64 rows of a 10-qubit state.
# On the mixed10 benchmark scans 512 KB and 1 MB run alike and 256 KB and 2-4 MB slower,
# with the same bits at every size.
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
    """An explicit amplitude vector, normalized to 1 within 1e-12.

    ``vector`` is a read-only copy of the amplitudes given.
    """

    def __init__(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=complex).flatten()  # a copy the state owns
        n = int(vector.size).bit_length() - 1
        if 1 << n != vector.size:
            raise ValidationError(f"amplitude count {vector.size} is not a power of 2")
        if n > DENSE_STATE_CAP:
            raise OracleCapError(f"dense states capped at {DENSE_STATE_CAP} qubits, got {n}")
        norm = float(np.linalg.norm(vector))
        if not abs(norm - 1.0) <= 1e-12:  # also refuses a NaN norm
            raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-12")
        vector.flags.writeable = False
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
    """|0...0> evolved through a fully bound circuit, built densely on demand.

    ``vector`` is built on first use, cached and read-only.
    """

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
        psi = np.zeros((1 << self.n, 1), dtype=complex)
        psi[0] = 1.0
        vector = _apply_circuit(psi, self.circuit, np.zeros((1, 0)))[:, 0]
        vector.flags.writeable = False
        return vector


InitialState = AllZero | AllPlus | Dense | TrotterEvolvedZero


def state_vector(state: InitialState) -> np.ndarray:
    """Dense amplitudes of any supported state (subject to the state cap).

    For ``Dense`` and ``TrotterEvolvedZero`` this is the state's own read-only array.
    """
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


def _qubit_view(states: np.ndarray, n: int) -> np.ndarray:
    """The (2, ..., 2, rows) view of a (2**n, rows) array: qubit ``q`` is axis ``n - 1 - q``."""
    return states.reshape((2,) * n + (states.shape[1],), copy=False)


def apply_pauli_dense(states: np.ndarray, p: PauliString, factor=1.0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """``factor * p`` applied to each column of a C-contiguous (2**n, rows) array.

    The result is ``phase * np.flip(view, x_axes)`` on the (2, ..., 2, rows)
    view, where qubit ``q`` is axis ``n - 1 - q``. ``phase`` is the exact
    +/-1, +/-i factor of each basis state times ``factor`` (a scalar, or one
    value per column); it spans only the Z/Y axes and the row axis
    (2**|z| values per row) and broadcasts over the rest. Each phase is
    +/-1 or +/-i exactly, so folding ``factor`` into it gives the same bits
    as multiplying the result by ``factor``. A generator without X/Y letters
    needs no flip. The result is written into ``out``, a C-contiguous array
    of the same shape that does not overlap ``states`` (a new array when
    None), and returned.
    """
    n = p.n
    shaped = _qubit_view(states, n)
    parity = np.ones((1,) * (n + 1))
    for q in range(n):
        if p.z >> q & 1:
            sign = np.array([1.0, -1.0]).reshape((1,) * (n - 1 - q) + (2,) + (1,) * (q + 1))
            parity = parity * sign
    phase = (1j ** ((p.x & p.z).bit_count())) * parity * factor
    x_axes = tuple(n - 1 - q for q in range(n) if p.x >> q & 1)
    if x_axes:
        # out[j] is phase[j ^ x] * in[j ^ x]: flip the phase with the amplitudes
        phase, shaped = np.flip(phase, x_axes), np.flip(shaped, x_axes)
    if out is None:
        out = np.empty_like(states)
    np.multiply(phase, shaped, out=_qubit_view(out, n))
    return out


def _index_and_phase(mat: np.ndarray) -> tuple[tuple[int, ...], tuple[complex, ...]]:
    """Row ``i`` of a permutation-times-phase matrix is ``phase[i]`` at column ``index[i]``."""
    index = [int(j) for j in np.argmax(np.abs(mat), axis=1)]
    return tuple(index), tuple(mat[i, j] for i, j in enumerate(index))


_H = gate_matrix("h")
_MONOMIAL_GATES = {kind: _index_and_phase(gate_matrix(kind))
                   for kind in CLIFFORD_1Q + CLIFFORD_2Q if kind != "h"}


def _apply_clifford(states: np.ndarray, kind: str, qubits: tuple[int, ...], n: int,
                    out: np.ndarray) -> None:
    """Write one non-seq Clifford gate applied to the columns of ``states`` into ``out``.

    ``h`` multiplies its 2x2 matrix into the (higher qubits, 2, lower qubits
    and rows) view; every other kind moves 2**k slices of its axes with a
    fixed index and phase.
    """
    if kind == "h":
        lanes = states.reshape((1 << (n - 1 - qubits[0]), 2, -1), copy=False)
        np.einsum("ij,ajk->aik", _H, lanes, out=out.reshape(lanes.shape, copy=False))
        return
    index, phase = _MONOMIAL_GATES[kind]
    source, target = _qubit_view(states, n), _qubit_view(out, n)

    def local(i: int) -> tuple:
        view: list = [slice(None)] * (n + 1)
        for bit, q in enumerate(qubits):
            view[n - 1 - q] = (i >> bit) & 1
        return tuple(view)

    for i, (j, factor) in enumerate(zip(index, phase)):
        np.multiply(factor, source[local(j)], out=target[local(i)])


def _apply_circuit(states: np.ndarray, circuit: Circuit, alphas: np.ndarray) -> np.ndarray:
    """Run ``circuit`` on the columns of a C-contiguous (2**n, rows) array it may overwrite.

    Column b uses parameter row b. A rotation updates ``states`` in place
    through one work array; a Clifford writes into the work array and the two
    swap. Returns whichever of the two holds the result.
    """
    n = circuit.n
    work = np.empty_like(states)
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            for sub in gate.sequence if gate.kind == "seq" else (gate,):
                _apply_clifford(states, sub.kind, sub.qubits, n, out=work)
                states, work = work, states
        else:
            theta = (
                np.full(states.shape[1], gate.param.value)
                if gate.param.is_fixed
                else alphas[:, gate.param.index]
            )
            # cos * states - 1j * sin * P states, with no temporary of the block's size
            rotated = apply_pauli_dense(states, gate.generator(n), 1j * np.sin(theta / 2.0),
                                        out=work)
            states *= np.cos(theta / 2.0)
            states -= rotated
    return states


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
    value = np.vdot(psi, apply_pauli_dense(psi[:, np.newaxis], p)[:, 0])
    return float(value.real)


def _parity_signs(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(-1)^|z & k| as a (len(z), len(k)) float table."""
    return 1.0 - 2.0 * (np.bitwise_count(z[:, np.newaxis] & k[np.newaxis, :]) & 1)


def overlaps(state: InitialState, paulis) -> np.ndarray:
    """Tr[rho P] for each Pauli of ``paulis``, as one float array in their order.

    ``AllZero`` and ``AllPlus`` use ``overlap``'s mask tests. A dense state
    sorts the Paulis by X mask x and forms u[k] = conj(psi[k ^ x]) psi[k]
    once per mask; then Tr[rho P] = Re(i^|x & z| sum_k (-1)^|k & z| u[k]),
    which needs only Re u (|x & z| even) or Im u (odd). The sign splits over
    the low ``h`` and the high bits of k. So each Pauli's sum is one
    matrix-vector product of u's float view, shaped (2**(n - h), 2**(h + 1)),
    with its low-bit signs (zero on the part of u it does not use), then one
    dot product with its high-bit signs. The signs come from tables built
    per chunk of Paulis; beside u, one state's size, a chunk's arrays are
    small. Values agree with ``overlap`` to rounding (about 1e-15), not bit
    for bit.
    """
    paulis = list(paulis)
    for p in paulis:
        if p.n != state.n:
            raise DimensionError(f"state has {state.n} qubits, Pauli has {p.n}")
    if isinstance(state, AllZero):
        return np.array([1.0 if p.x == 0 else 0.0 for p in paulis])
    if isinstance(state, AllPlus):
        return np.array([1.0 if p.z == 0 else 0.0 for p in paulis])
    n = state.n
    xs = np.array([p.x for p in paulis], dtype=np.int64)
    order = np.argsort(xs, kind="stable")
    xs, zs = xs[order], np.array([p.z for p in paulis], dtype=np.int64)[order]
    # i^c for c = |x & z| mod 4 is +1, +i, -1, -i: Re picks +Re, -Im, -Re, +Im of the
    # sum, so each Pauli reads one row of part, (Re u, Im u), with its sign
    phase = np.bitwise_count(xs & zs) & 3
    sign = np.where((phase == 1) | (phase == 2), -1.0, 1.0)
    part = np.stack([phase & 1 == 0, phase & 1 == 1], axis=1) * sign[:, np.newaxis]
    h = (n + 1) // 2
    low, high = np.arange(1 << h), np.arange(1 << (n - h))
    # Paulis per chunk: the low-bit table, the largest of the chunk's arrays, is 1/32
    # of a block, so the call's peak stays near u's one state (on the 16-qubit grid
    # anchor, below that of one ``overlap`` call). Matrix-vector products, not one
    # matrix product per mask: BLAS's matrix product touched 0.75-2.5 MB of its own
    # buffers there and raised the process's peak RSS by as much.
    cols = max(1, _BLOCK_BYTES // (512 << h))
    psi = state.vector.reshape((2,) * n)  # qubit q is axis n - 1 - q
    u, u_mask = np.empty_like(psi), None
    u_rows = u.view(float).reshape(1 << (n - h), 2 << h)  # a view: row hi, entry 2 lo + c
    sums = np.empty(len(paulis))
    for start in range(0, len(paulis), cols):
        chunk = slice(start, start + cols)
        z = zs[chunk]
        # entry 2 lo + c of a row multiplies part c of u[hi * 2**h + lo]
        lows = _parity_signs(z & ((1 << h) - 1), low)[:, :, np.newaxis] * part[chunk, np.newaxis]
        lows = lows.reshape(z.size, 2 << h)
        highs = _parity_signs(z >> h, high)
        for j, x in enumerate(xs[chunk].tolist()):
            if x != u_mask:  # the Paulis of one mask are adjacent, also across chunks
                np.conjugate(psi[tuple(slice(None, None, -1) if x >> (n - 1 - axis) & 1
                                       else slice(None) for axis in range(n))], out=u)
                u *= psi
                u_mask = x
            sums[start + j] = highs[j] @ (u_rows @ lows[j])
    out = np.empty(len(paulis))
    out[order] = sums
    return out


def evolve_state(circuit: Circuit, alphas, state: InitialState) -> Dense:
    """Dense state after running ``circuit`` at parameters ``alphas``."""
    if circuit.n != state.n:
        raise DimensionError(f"circuit has {circuit.n} qubits, state has {state.n}")
    if circuit.n > DENSE_STATE_CAP:
        raise OracleCapError(f"dense evolution capped at {DENSE_STATE_CAP} qubits")
    alphas = np.asarray(alphas, dtype=float).reshape(1, -1)
    if alphas.shape[1] != circuit.m:
        raise DimensionError(f"expected {circuit.m} parameters, got {alphas.shape[1]}")
    # a copy: for Dense and TrotterEvolvedZero, state_vector is the state's own array
    psi = state_vector(state)[:, np.newaxis].copy()
    return Dense(_apply_circuit(psi, circuit, finite_parameters(alphas))[:, 0])


def exact_expectation(circuit: Circuit, alphas, obs: ObservableSpec,
                      state: InitialState) -> float:
    """Ground-truth Tr[O U(alpha) rho U(alpha)^dagger] via dense evolution."""
    return float(exact_expectation_batch(circuit, np.asarray(alphas, float)[np.newaxis, :],
                                         obs, state)[0])


def exact_expectation_batch(circuit: Circuit, alphas: np.ndarray, obs: ObservableSpec,
                            state: InitialState) -> np.ndarray:
    """Vectorized oracle over many parameter vectors (rows of ``alphas``).

    Rows are evolved in blocks of ``block_rows(n)``. Up to 13 qubits every
    row's value is independent of the block it falls in; from 14 on, einsum
    sums the rows of a multi-row block in 8192-amplitude chunks, so the last
    bits of a row's value depend on how many rows share its block.
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
    finite_parameters(alphas)
    psi0 = state_vector(state)[:, np.newaxis]
    out = np.empty(alphas.shape[0])
    step = block_rows(circuit.n)
    for start in range(0, alphas.shape[0], step):
        block = alphas[start:start + step]
        states = _apply_circuit(np.repeat(psi0, block.shape[0], axis=1), circuit, block)
        bra, ket = states.conj(), np.empty_like(states)
        values = np.zeros(block.shape[0], dtype=complex)
        for p, coeff in obs.terms:
            values += coeff * np.einsum("ib,ib->b", bra, apply_pauli_dense(states, p, out=ket))
        out[start:start + step] = values.real
    return out
