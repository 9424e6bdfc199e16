"""Bit-packed n-qubit Pauli algebra.

A Pauli string is stored as two mask integers (``x``, ``z``) with qubit ``q``
at bit ``q``; the letter on a qubit is I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).
Python ints give word-parallel popcounts for commutation checks at any qubit
count. Signs stay outside ``PauliString``: products return a phase in
{+1, +i, -1, -i} and Clifford conjugation a sign in {+1, -1}.

Clifford conjugation uses per-kind lookup tables generated once at import
time from dense matrices, so the tables themselves are derived artifacts
rather than hand-written constants.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, ValidationError

_LETTERS = "IXZY"  # indexed by code = x_bit + 2*z_bit
_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASES = (1, 1j, -1, -1j)

CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")
CLIFFORD_2Q = ("cnot", "cz", "swap")
CLIFFORD_KINDS = CLIFFORD_1Q + CLIFFORD_2Q + ("seq",)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator without sign, as (x, z) bit masks."""

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError(f"qubit count must be >= 0, got {self.n}")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValidationError(
                f"masks must fit in {self.n} bits, got x={self.x:#x} z={self.z:#x}"
            )

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "PauliString":
        """Parse dense text like ``"ZZII"``; index 0 is the leftmost character."""
        if not isinstance(text, str):
            raise ValidationError(f"expected Pauli text, got {text!r}")
        text = text.strip().upper()
        if n is None:
            n = len(text)
        if len(text) != n:
            raise ValidationError(f"expected {n} letters, got {len(text)}")
        x = z = 0
        for q, letter in enumerate(text):
            if letter not in _LETTER_TO_BITS:
                raise ValidationError(f"unknown Pauli letter {letter!r} at position {q}")
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    @classmethod
    def from_sparse(cls, text: str, n: int) -> "PauliString":
        """Parse sparse text like ``"Z0 Z1"`` or ``"X3 Y5"`` on ``n`` qubits."""
        x = z = 0
        for token in text.split():
            match = re.fullmatch(r"([IXYZixyz])(\d+)", token)
            if match is None:
                raise ValidationError(f"bad sparse Pauli token {token!r}")
            letter, q = match.group(1).upper(), int(match.group(2))
            if q >= n:
                raise ValidationError(f"qubit {q} out of range for n={n}")
            xb, zb = _LETTER_TO_BITS[letter]
            if (x | z) >> q & 1 and letter != "I":
                raise ValidationError(f"qubit {q} assigned twice")
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    @classmethod
    def from_letters(cls, letters: str, qubits: Iterable[int], n: int) -> "PauliString":
        """Place ``letters[i]`` on ``qubits[i]``; all other qubits are identity."""
        qubits = list(qubits)
        if len(letters) != len(qubits):
            raise ValidationError(
                f"{len(letters)} letters for {len(qubits)} qubits"
            )
        x = z = 0
        for letter, q in zip(letters.upper(), qubits):
            if not 0 <= q < n:
                raise DimensionError(f"qubit {q} out of range for n={n}")
            if letter not in _LETTER_TO_BITS:
                raise ValidationError(f"unknown Pauli letter {letter!r}")
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    def letter(self, q: int) -> str:
        if not 0 <= q < self.n:
            raise DimensionError(f"qubit {q} out of range for n={self.n}")
        return _LETTERS[(self.x >> q & 1) + 2 * (self.z >> q & 1)]

    def to_text(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def support(self) -> tuple[int, ...]:
        mask = self.x | self.z
        return tuple(q for q in range(self.n) if mask >> q & 1)

    def __str__(self) -> str:
        return self.to_text()


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic inner product parity of ``p`` and ``q`` is even."""
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} vs {q.n}")
    return (((p.x & q.z).bit_count() ^ (p.z & q.x).bit_count()) & 1) == 0


def phase_exponent(px: int, pz: int, qx: int, qz: int) -> int:
    """Exponent k of the phase i^k in the product (px, pz) @ (qx, qz) of Pauli masks."""
    # Each Hermitian letter is i^(x*z) X^x Z^z; collecting reordering signs
    # gives the exponent below (mod 4).
    return (
        (px & pz).bit_count()
        + (qx & qz).bit_count()
        - ((px ^ qx) & (pz ^ qz)).bit_count()
        + 2 * (pz & qx).bit_count()
    ) % 4


def multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Operator product ``p @ q`` as ``(phase, result)`` with phase in {1, i, -1, -i}."""
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} vs {q.n}")
    return (_PHASES[phase_exponent(p.x, p.z, q.x, q.z)],
            PauliString(p.n, p.x ^ q.x, p.z ^ q.z))


# --- Clifford gates and their conjugation tables -------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.diag([1.0, 1.0j])
_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

# Qubit j of a gate sits on tensor-factor j with basis index sum(b_j << j),
# i.e. qubit 0 is the least-significant bit.
_GATE_MATRICES: dict[str, np.ndarray] = {
    "h": _H,
    "s": _S,
    "sdg": _S.conj().T,
    "x": _PAULI_MATS["X"],
    "y": _PAULI_MATS["Y"],
    "z": _PAULI_MATS["Z"],
    # control = gate qubit 0, target = gate qubit 1
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _local_pauli_matrix(code: int, nq: int) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for j in range(nq):
        local = _LETTERS[(code >> (2 * j)) & 3]
        mat = np.kron(_PAULI_MATS[local], mat)  # qubit j on bit j (LSB first)
    return mat


def _build_table(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation table for ``kind``: code -> (new code, sign).

    Codes pack the local letters of the gate's qubits, two bits per qubit
    (x_bit + 2*z_bit), gate qubit 0 in the low bits. The local Paulis Q are an
    orthogonal basis, so C^dagger P C = sum_Q Tr(Q C^dagger P C) / d Q; for a
    Clifford C exactly one coefficient is nonzero, and it is the sign.
    """
    gate = _GATE_MATRICES[kind]
    nq = 1 if gate.shape[0] == 2 else 2
    size = 4**nq
    paulis = np.stack([_local_pauli_matrix(code, nq) for code in range(size)])
    conj = gate.conj().T @ paulis @ gate
    expansion = np.einsum("qij,pji->pq", paulis, conj) / 2**nq  # [code, cand]
    out_code = np.abs(expansion).argmax(axis=1)
    out_sign = expansion[np.arange(size), out_code].real.round()
    if not np.allclose(expansion, np.eye(size)[out_code] * out_sign[:, None], atol=1e-12):
        raise AssertionError(f"{kind} does not map every code to a signed Pauli")
    return out_code.astype(np.uint64), out_sign.astype(np.int8)


_TABLES: dict[str, tuple[np.ndarray, np.ndarray]] = {
    kind: _build_table(kind) for kind in CLIFFORD_1Q + CLIFFORD_2Q
}


# the same tables as tuples of Python ints, read one Pauli at a time by ``conjugate_masks``
_INT_TABLES = {kind: (tuple(codes.tolist()), tuple(signs.tolist()))
               for kind, (codes, signs) in _TABLES.items()}


def gate_table(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation lookup arrays ``(new_code, sign)`` for a generator kind."""
    try:
        return _TABLES[kind]
    except KeyError:
        raise ValidationError(f"unknown Clifford kind {kind!r}") from None


def gate_matrix(kind: str) -> np.ndarray:
    """Dense unitary of a generator kind (gate qubit 0 on the low basis bit)."""
    try:
        return _GATE_MATRICES[kind].copy()
    except KeyError:
        raise ValidationError(f"unknown Clifford kind {kind!r}") from None


@dataclass(frozen=True)
class CliffordGate:
    """A Clifford generator, or a composite given as a sub-circuit of generators.

    A ``seq`` gate applies its ``sequence`` in order, like a circuit fragment;
    its qubit list is the union of the constituents' supports.
    """

    kind: str
    qubits: tuple[int, ...]
    sequence: tuple["CliffordGate", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CLIFFORD_KINDS:
            raise ValidationError(f"unknown Clifford kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"duplicate qubits in {self.qubits}")
        if self.kind in CLIFFORD_1Q and len(self.qubits) != 1:
            raise ValidationError(f"{self.kind} takes 1 qubit, got {len(self.qubits)}")
        if self.kind in CLIFFORD_2Q and len(self.qubits) != 2:
            raise ValidationError(f"{self.kind} takes 2 qubits, got {len(self.qubits)}")
        if self.kind == "seq":
            if not all(g.kind != "seq" for g in self.sequence):
                raise ValidationError("seq gates must not nest")
            object.__setattr__(self, "sequence", tuple(self.sequence))
            if set(self.qubits) != {q for g in self.sequence for q in g.qubits}:
                raise ValidationError(f"seq qubits {self.qubits} differ from its sub-gates'")
        elif self.sequence:
            raise ValidationError("only seq gates carry a sequence")


def conjugate_masks(x: int, z: int, gate: CliffordGate) -> tuple[int, int, int]:
    """Heisenberg map ``C^dagger P C`` on the masks of ``P``: ``(x, z, sign)``."""
    if gate.kind == "seq":
        # C = g_k ... g_1 (sub-circuit order), so conjugation folds from the
        # last generator inward.
        sign = 1
        for sub in reversed(gate.sequence):
            x, z, s = conjugate_masks(x, z, sub)
            sign *= s
        return x, z, sign
    codes, signs = _INT_TABLES[gate.kind]
    code = 0
    for j, q in enumerate(gate.qubits):
        code |= ((x >> q & 1) + 2 * (z >> q & 1)) << (2 * j)
    new_code = codes[code]
    for j, q in enumerate(gate.qubits):
        bit = 1 << q
        x = (x & ~bit) | (((new_code >> (2 * j)) & 1) << q)
        z = (z & ~bit) | (((new_code >> (2 * j + 1)) & 1) << q)
    return x, z, signs[code]


# --- Observables ----------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSpec:
    """A Hermitian observable as a weighted sum of distinct Pauli strings."""

    terms: tuple[tuple[PauliString, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((p, float(c)) for p, c in self.terms))
        if not self.terms:
            raise ValidationError("observable must have at least one term")
        n = self.terms[0][0].n
        seen: set[tuple[int, int]] = set()
        for p, c in self.terms:
            if p.n != n:
                raise DimensionError("observable terms act on different qubit counts")
            if c == 0.0 or not math.isfinite(c):
                raise ValidationError(f"coefficient for {p} must be finite and nonzero, got {c}")
            key = (p.x, p.z)
            if key in seen:
                raise ValidationError(f"duplicate Pauli term {p}")
            seen.add(key)

    @classmethod
    def from_mapping(cls, terms: Mapping[PauliString, float]) -> "ObservableSpec":
        return cls(tuple(terms.items()))

    @classmethod
    def single(cls, pauli: PauliString, coeff: float = 1.0) -> "ObservableSpec":
        return cls(((pauli, coeff),))

    @property
    def n(self) -> int:
        return self.terms[0][0].n

    @property
    def n_paulis(self) -> int:
        return len(self.terms)

    @cached_property
    def norm1(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    @cached_property
    def norm2(self) -> float:
        return float(np.sqrt(sum(c * c for _, c in self.terms)))

    def __iter__(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self.terms)
