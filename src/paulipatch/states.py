"""Initial states, Pauli overlaps, and the dense statevector reference oracle.

The dense simulator is the ground truth every propagation result is checked
against. States are vectors of complex amplitudes with qubit ``q`` on basis
bit ``q``. A block of rows (one state per parameter row) is held
amplitude-major, as a C-contiguous ``(2**n, rows)`` array, and gates act on
its ``(2, ..., 2, rows)`` view, where qubit ``q`` is axis ``n - 1 - q``, so
every pass runs over contiguous runs of ``rows`` amplitudes.

A circuit is compiled once per call into a program that runs on each block.
A Pauli flips its X/Y axes and multiplies by a phase spanning only its Z/Y
axes and the row axis; a rotation updates the block in place through one
work array. Every Clifford kind but ``h`` (also inside ``seq``) joins a
pending frame, a basis permutation with exact +/-1, +/-i phases: the
rotations after it run with their generators conjugated back through it, and
the frame itself is applied, as one gather and one phase multiply, only
before an ``h`` and at the end. ``h`` and the frame write into the work
array, and the two arrays swap. The steps before a block's first rotation
whose angle differs between its rows run once, on one column. No operator
matrix over all qubits is ever built, and the kernels keep no array of size
``2**n`` between calls. Every value equals gate-by-gate application bit for
bit (up to the sign of zeros). ``Dense`` and ``TrotterEvolvedZero`` vectors
are read-only, so the in-place kernels cannot change a state.

``exact_expectation_batch`` runs its blocks on one worker per usable core
(at most one per block), each on a fixed stride of blocks: the calling thread
is worker 0 and the others are pool threads. numpy runs a block's array
kernels without the GIL, which only the Python between them and the build of
a frame's gather hold. The calling thread allocates every array of a block's
size, two per worker, and the pool threads run in copies of its context, so
its ``np.errstate`` governs their arithmetic. A call with one block starts no
thread. Every worker count gives the same bits.

Caps: expectation oracles run up to 14 qubits; dense state construction and
overlap evaluation are allowed up to 16 so that a Trotter-prepared 16-qubit
input state can still be compared exactly.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .circuits import Circuit, finite_parameters
from .errors import DimensionError, OracleCapError, ValidationError
from .pauli import (
    CLIFFORD_1Q,
    CLIFFORD_2Q,
    CliffordGate,
    ObservableSpec,
    PauliString,
    conjugate_masks,
    gate_matrix,
)

DENSE_EXPECTATION_CAP = 14
DENSE_STATE_CAP = 16

# Budget of each of a block's two arrays (states and work, later bra and ket), which the
# oracle holds once per worker, one worker per usable core: 64 rows of a 10-qubit state.
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
        vector = _run(_compile(self.circuit), psi, np.empty_like(psi), np.zeros((1, 0)))[0][:, 0]
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


def _pauli_action(p: PauliString) -> tuple[np.ndarray, tuple]:
    """``(phase, flip)`` with ``P psi = phase * view[flip]`` on the (2, ..., 2, rows) view.

    ``flip`` reverses the X/Y axes (qubit ``q`` is axis ``n - 1 - q``), so
    ``view[flip][j]`` is ``psi[j ^ x]``. ``phase`` is the exact +/-1, +/-i factor
    of each basis state, i^|x & z| (-1)^|j & z|, already flipped the same way; it
    spans only the Z/Y axes (2**|z| values) and broadcasts over the rest and the
    row axis.
    """
    n = p.n
    shape, flip = [1] * (n + 1), [slice(None)] * (n + 1)
    for q in range(n):
        if p.z >> q & 1:
            shape[n - 1 - q] = 2
        if p.x >> q & 1:
            flip[n - 1 - q] = slice(None, None, -1)
    parity = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << p.z.bit_count())) & 1)
    flip = tuple(flip)
    return ((1j ** (p.x & p.z).bit_count()) * parity).reshape(shape)[flip], flip


def apply_pauli_dense(states: np.ndarray, p: PauliString, factor=1.0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """``factor * p`` applied to each column of a C-contiguous (2**n, rows) array.

    The result is ``phase * factor * view[flip]`` from ``_pauli_action``, with
    ``factor`` a scalar or one value per column. Each phase is +/-1 or +/-i
    exactly, so folding ``factor`` into it gives the same bits as multiplying
    the result by ``factor``. The result is written into ``out``, a
    C-contiguous array of the same shape that does not overlap ``states`` (a
    new array when None), and returned.
    """
    phase, flip = _pauli_action(p)
    return _apply_action(states, phase, flip, factor, out)


def _apply_action(states: np.ndarray, phase: np.ndarray, flip: tuple, factor,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``phase * factor * view[flip]`` of ``states``, as in ``apply_pauli_dense``.

    A copy and then an in-place multiply, which numpy runs without the GIL, so
    that other threads' blocks run meanwhile. Every factor has one zero part,
    so the bits are those of one ``np.multiply`` of ``phase * factor`` and the
    flipped view.
    """
    n = states.shape[0].bit_length() - 1
    if out is None:
        out = np.empty_like(states)
    target = _qubit_view(out, n)
    np.copyto(target, _qubit_view(states, n)[flip])
    target *= phase * factor
    return out


def _index_and_phase(mat: np.ndarray) -> tuple[tuple[int, ...], tuple[complex, ...]]:
    """Row ``i`` of a permutation-times-phase matrix is ``phase[i]`` at column ``index[i]``."""
    index = [int(j) for j in np.argmax(np.abs(mat), axis=1)]
    return tuple(index), tuple(mat[i, j] for i, j in enumerate(index))


_H = gate_matrix("h")
_MONOMIAL_GATES = {kind: _index_and_phase(gate_matrix(kind))
                   for kind in CLIFFORD_1Q + CLIFFORD_2Q if kind != "h"}


def _frame(gates: list[CliffordGate], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase of the product D of monomial gates: (D psi)[j] = phase[j] psi[index[j]].

    D is applied once, to the labels 1, ..., 2**n: each gate moves 2**k slices of
    its axes with the fixed index and phase of its ``_MONOMIAL_GATES`` entry. Every
    factor is +/-1 or +/-i, so entry j ends as exactly phase[j] * (index[j] + 1):
    its magnitude is the label and the signs of its two float parts are the phase.
    """
    labels = np.arange(1, (1 << n) + 1, dtype=complex).reshape(-1, 1)  # one column
    moved = np.empty_like(labels)
    source, target = _qubit_view(labels, n), _qubit_view(moved, n)
    for gate in gates:
        index, phase = _MONOMIAL_GATES[gate.kind]
        local = []  # the view of local basis state i of the gate's qubits
        for i in range(len(index)):
            view: list = [slice(None)] * (n + 1)
            for bit, q in enumerate(gate.qubits):
                view[n - 1 - q] = (i >> bit) & 1
            local.append(tuple(view))
        for i, (j, factor) in enumerate(zip(index, phase)):
            np.multiply(factor, source[local[j]], out=target[local[i]])
        labels, moved, source, target = moved, labels, target, source
    del moved, source, target  # freed before the gather is built
    labels = labels[:, 0]
    index = np.abs(labels).astype(np.intp)
    index -= 1
    np.sign(labels.view(float), out=labels.view(float))  # labels now holds the phase
    return index, labels


def _compile(circuit: Circuit) -> list[tuple]:
    """The circuit as a program of steps that run on (2**n, rows) blocks.

    Every non-``h`` Clifford, also inside ``seq``, joins a pending frame D, a
    basis permutation with exact +/-1, +/-i phases. A rotation exp(-i theta P/2)
    after D equals D exp(-i theta D^dagger P D/2), and D^dagger P D = sign * P'
    (``conjugate_masks`` through the pending gates, last first, skipping those
    off the generator's qubits), so the rotation runs with P' and ``sign`` before
    D. D itself runs only before an ``h`` and at the end, as one gather and one
    phase multiply. The steps are:

    - ``("h", qubit)``;
    - ``("rotation", param, phase, flip, sign)``, with ``param`` the gate's
      ``ParamRef`` and ``(phase, flip)`` the ``_pauli_action`` of P';
    - ``("frame", gates)``, the monomial gates of D in order of application. Its
      gather is built by ``_frame`` when the step runs, so a deep circuit holds
      at most one array of size 2**n beyond its block.

    Each amplitude gets the same products as gate-by-gate application, since every
    moved factor is a unit: the values agree bit for bit (up to the sign of zeros).
    """
    n = circuit.n
    program: list[tuple] = []
    pending: list[tuple[int, CliffordGate]] = []  # (qubit mask, gate) in order of application
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            for sub in gate.sequence if gate.kind == "seq" else (gate,):
                if sub.kind != "h":
                    pending.append((sum(1 << q for q in sub.qubits), sub))
                    continue
                if pending:
                    program.append(("frame", [g for _, g in pending]))
                    pending = []
                program.append(("h", sub.qubits[0]))
        else:
            p = gate.generator(n)
            x, z, sign = p.x, p.z, 1
            for mask, sub in reversed(pending):
                if (x | z) & mask:
                    x, z, sub_sign = conjugate_masks(x, z, sub)
                    sign *= sub_sign
            program.append(("rotation", gate.param, *_pauli_action(PauliString(n, x, z)),
                            sign))
    if pending:
        program.append(("frame", [g for _, g in pending]))
    return program


def _run(program: list[tuple], states: np.ndarray, work: np.ndarray,
         alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``program`` on the columns of a C-contiguous (2**n, rows) array it may overwrite.

    Column b uses parameter row b. ``work`` is a C-contiguous array of the same
    shape that does not overlap ``states``. A rotation updates ``states`` in
    place through ``work``; ``h`` and a frame write into ``work`` and the two
    swap. Returns ``(result, spare)``: the one of the two that holds the result,
    then the other.
    """
    n = states.shape[0].bit_length() - 1
    for step in program:
        if step[0] == "rotation":
            _, param, phase, flip, sign = step
            theta = (np.full(states.shape[1], param.value) if param.is_fixed
                     else alphas[:, param.index])
            # cos * states - 1j * sin * P states, with no temporary of the block's size
            rotated = _apply_action(states, phase, flip, (1j * sign) * np.sin(theta / 2.0),
                                    out=work)
            states *= np.cos(theta / 2.0)
            states -= rotated
            continue
        if step[0] == "h":
            lanes = states.reshape((1 << (n - 1 - step[1]), 2, -1), copy=False)
            np.einsum("ij,ajk->aik", _H, lanes, out=work.reshape(lanes.shape, copy=False))
        else:
            index, phase = _frame(step[1], n)
            np.take(states, index, axis=0, out=work, mode="clip")  # "clip" takes no buffer
            work *= phase[:, np.newaxis]
        states, work = work, states
    return states, work


def _evolve_block(program: list[tuple], psi0: np.ndarray, block: np.ndarray,
                  states: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``psi0`` (one column) run at each row of ``block``, in the caller's two buffers.

    ``states`` and ``work`` are flat, non-overlapping complex arrays of at least
    ``2**n * rows`` entries; the block runs in C-contiguous (2**n, rows) views of
    their leading entries. The steps before the first rotation whose angle is
    not bitwise equal in all rows (compared as int64 words, so -0.0 differs from
    0.0) run once, on one column, which is then copied out to the rows. A
    one-row block runs its whole program on that column. Returns the
    ``(result, spare)`` views of ``_run``.
    """
    dim, rows = psi0.shape[0], block.shape[0]
    same = (block.view(np.int64) == block[:1].view(np.int64)).all(axis=0)
    split = next((i for i, step in enumerate(program) if step[0] == "rotation"
                  and not step[1].is_fixed and not same[step[1].index]), len(program))
    head = states[:dim].reshape((dim, 1), copy=False)
    np.copyto(head, psi0)
    column, spare = _run(program[:split], head, work[:dim].reshape((dim, 1), copy=False),
                         block[:1])
    if rows == 1:
        return column, spare
    # the rows go to the buffer that holds the spare column; the other is their work array
    target, other = (work, states) if column is head else (states, work)
    rows_view = target[:dim * rows].reshape((dim, rows), copy=False)
    np.copyto(rows_view, column)
    return _run(program[split:], rows_view, other[:dim * rows].reshape((dim, rows), copy=False),
                block)


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
    (evolved,) = evolve_states(circuit, np.asarray(alphas, dtype=float).reshape(1, -1), state)
    return evolved


def evolve_states(circuit: Circuit, alphas: np.ndarray, state: InitialState) -> Iterator[Dense]:
    """Dense states after running ``circuit`` at each row of ``alphas``, in row order.

    The circuit is compiled once, and the rows run one block of ``block_rows(n)``
    after another, in the calling thread, through the block kernel of
    ``exact_expectation_batch`` and two arrays allocated once per call; each
    state is a copy of its column and equals ``evolve_state`` at its row bit for
    bit.
    """
    if circuit.n != state.n:
        raise DimensionError(f"circuit has {circuit.n} qubits, state has {state.n}")
    if circuit.n > DENSE_STATE_CAP:
        raise OracleCapError(f"dense evolution capped at {DENSE_STATE_CAP} qubits")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] != circuit.m:
        raise DimensionError(f"expected (rows, {circuit.m}) parameters, got {alphas.shape}")
    finite_parameters(alphas)
    blocks = _evolved_blocks(circuit, alphas, state)
    return (Dense(states[:, b]) for states in blocks for b in range(states.shape[1]))


def _evolved_blocks(circuit: Circuit, alphas: np.ndarray,
                    state: InitialState) -> Iterator[np.ndarray]:
    """The evolved (2**n, rows) blocks of ``block_rows(n)`` rows, from one compiled program.

    Each block is a view of two arrays the generator reuses: read it before
    asking for the next.
    """
    program = _compile(circuit)
    psi0 = state_vector(state)[:, np.newaxis]
    step = block_rows(circuit.n)
    states, work = np.empty((2, psi0.shape[0] * min(step, alphas.shape[0])), dtype=complex)
    for start in range(0, alphas.shape[0], step):
        yield _evolve_block(program, psi0, alphas[start:start + step], states, work)[0]


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def exact_expectation(circuit: Circuit, alphas, obs: ObservableSpec,
                      state: InitialState) -> float:
    """Ground-truth Tr[O U(alpha) rho U(alpha)^dagger] via dense evolution."""
    return float(exact_expectation_batch(circuit, np.asarray(alphas, float)[np.newaxis, :],
                                         obs, state)[0])


def exact_expectation_batch(circuit: Circuit, alphas: np.ndarray, obs: ObservableSpec,
                            state: InitialState) -> np.ndarray:
    """Vectorized oracle over many parameter vectors (rows of ``alphas``).

    Rows are evolved in blocks of ``block_rows(n)``, through one program
    compiled for the call. In each block the steps before the first rotation
    whose angle is not bitwise equal in all its rows run once, on one column,
    which is then copied out to the rows; rows that share a long prefix of
    angles, as parameter-shift points do, share most of the work.

    The blocks run on ``min(usable cores, blocks)`` workers, worker w taking
    blocks w, w + workers, ...: worker 0 is the calling thread, and the others
    are threads that run in copies of its context and end before the call
    returns. The two arrays of each worker are allocated here, in the calling
    thread. A block's bra is its evolved states conjugated in place, and each
    term's P|psi> goes into the spare array. A single block starts no thread.

    Every worker count gives the same bits. Up to 13 qubits every row's value
    is independent of the block it falls in; from 14 on, einsum sums the rows
    of a multi-row block in 8192-amplitude chunks, so the last bits of a row's
    value depend on how many rows share its block (the blocks do not depend on
    the worker count).
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
    program = _compile(circuit)
    psi0 = state_vector(state)[:, np.newaxis]
    terms = [(coeff, *_pauli_action(p)) for p, coeff in obs.terms]
    step = block_rows(circuit.n)
    starts = range(0, alphas.shape[0], step)
    workers = min(_usable_cores(), len(starts))
    # each worker's two arrays, allocated in this thread: glibc keeps what a worker thread
    # frees in that thread's arena, where it stays resident
    buffers = np.empty((workers, 2, psi0.shape[0] * min(step, alphas.shape[0])), dtype=complex)
    out = np.empty(alphas.shape[0])

    def expectations(worker: int) -> None:
        for start in starts[worker::workers]:
            block = alphas[start:start + step]
            bra, ket = _evolve_block(program, psi0, block, *buffers[worker])
            np.conjugate(bra, out=bra)
            bra_view, ket_view = _qubit_view(bra, circuit.n), _qubit_view(ket, circuit.n)
            values = np.zeros(block.shape[0], dtype=complex)
            for coeff, phase, flip in terms:
                # P psi as in _apply_action, its copy read from the bra: conjugating
                # twice gives psi's bits back
                np.conjugate(bra_view[flip], out=ket_view)
                ket_view *= phase
                values += coeff * np.einsum("ib,ib->b", bra, ket)
            out[start:start + block.shape[0]] = values.real

    if workers <= 1:
        for worker in range(workers):
            expectations(worker)
        return out
    from concurrent.futures import ThreadPoolExecutor

    # this thread is worker 0; numpy keeps its error state in a context variable, so the
    # others run in copies of this thread's context
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, expectations, worker)
                   for worker in range(1, workers)]
        expectations(0)
        for future in futures:
            future.result()
    return out
