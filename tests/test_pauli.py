"""Pauli algebra against an exhaustive dense-matrix oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulipatch import (
    Circuit,
    CliffordGate,
    DimensionError,
    ObservableSpec,
    PauliString,
    ValidationError,
    commutes,
    multiply,
)
from paulipatch.pauli import (
    CLIFFORD_1Q,
    CLIFFORD_2Q,
    _local_pauli_matrix,
    conjugate_masks,
    gate_matrix,
    gate_table,
)

from conftest import dense_pauli

PHASES = (1, 1j, -1, -1j)


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield PauliString.from_text("".join(letters))


def test_text_round_trip():
    p = PauliString.from_text("ZZIXY")
    assert p.to_text() == "ZZIXY"
    assert p.letter(0) == "Z" and p.letter(3) == "X"
    assert p.weight == 4
    assert p.support() == (0, 1, 3, 4)


def test_sparse_parse():
    assert PauliString.from_sparse("Z0 Z1", 4) == PauliString.from_text("ZZII")
    assert PauliString.from_sparse("X3 Y1", 4) == PauliString.from_text("IYIX")
    with pytest.raises(ValidationError):
        PauliString.from_sparse("Z9", 4)
    with pytest.raises(ValidationError):
        PauliString.from_sparse("Q1", 4)


def test_mask_bounds_validated():
    with pytest.raises(ValidationError):
        PauliString(2, 4, 0)


def test_commutes_single_qubit_anticommutation():
    assert not commutes(PauliString.from_text("X"), PauliString.from_text("Z"))


def test_commutes_disjoint_supports():
    assert commutes(PauliString.from_text("XI"), PauliString.from_text("IZ"))


def test_commutes_xy_vs_yx():
    assert commutes(PauliString.from_text("XY"), PauliString.from_text("YX"))


def test_commutes_dimension_error():
    with pytest.raises(DimensionError):
        commutes(PauliString.from_text("X"), PauliString.from_text("XX"))


@pytest.mark.parametrize("n", [1, 2])
def test_commutes_matches_dense_commutator(n):
    for p in all_paulis(n):
        mp = dense_pauli(p)
        for q in all_paulis(n):
            mq = dense_pauli(q)
            dense_commutes = np.allclose(mp @ mq - mq @ mp, 0)
            assert commutes(p, q) == dense_commutes


def test_multiply_involution():
    for p in all_paulis(2):
        phase, result = multiply(p, p)
        assert phase == 1 and result.is_identity


def test_multiply_zx_xz():
    phase, res = multiply(PauliString.from_text("Z"), PauliString.from_text("X"))
    assert phase == 1j and res == PauliString.from_text("Y")
    phase, res = multiply(PauliString.from_text("X"), PauliString.from_text("Z"))
    assert phase == -1j and res == PauliString.from_text("Y")


@pytest.mark.parametrize("n", [1, 2])
def test_multiply_matches_dense_product(n):
    for p in all_paulis(n):
        for q in all_paulis(n):
            phase, res = multiply(p, q)
            assert np.allclose(dense_pauli(p) @ dense_pauli(q),
                               phase * dense_pauli(res))


def test_multiply_associative_exhaustive_1q():
    ps = list(all_paulis(1))
    for a, b, c in itertools.product(ps, repeat=3):
        ph_bc, bc = multiply(b, c)
        ph_left, left = multiply(a, bc)
        ph_ab, ab = multiply(a, b)
        ph_right, right = multiply(ab, c)
        assert left == right
        assert ph_bc * ph_left == ph_ab * ph_right


def test_multiply_associative_sampled_2q(rng):
    ps = list(all_paulis(2))
    for _ in range(200):
        a, b, c = (ps[rng.integers(len(ps))] for _ in range(3))
        ph_bc, bc = multiply(b, c)
        ph_left, left = multiply(a, bc)
        ph_ab, ab = multiply(a, b)
        ph_right, right = multiply(ab, c)
        assert left == right and ph_bc * ph_left == ph_ab * ph_right


@pytest.mark.parametrize("n", [1, 2])
def test_commutes_iff_product_phases_agree(n):
    for p in all_paulis(n):
        for q in all_paulis(n):
            assert commutes(p, q) == (multiply(p, q)[0] == multiply(q, p)[0])


@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1),
       st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_multiply_masks_are_xor(x1, z1, x2, z2):
    p = PauliString(8, x1, z1)
    q = PauliString(8, x2, z2)
    _, res = multiply(p, q)
    assert res.x == x1 ^ x2 and res.z == z1 ^ z2
    assert commutes(p, q) == commutes(q, p)


# --- Clifford conjugation -------------------------------------------------------------


def conjugate(p, gate):
    """``C^dagger P C`` as a (Pauli, sign) pair, through the mask-level map."""
    x, z, sign = conjugate_masks(p.x, p.z, gate)
    return PauliString(p.n, x, z), sign


def test_conjugate_identity_sequence():
    p = PauliString.from_text("XZ")
    assert conjugate(p, CliffordGate("seq", (), ())) == (p, 1)


def test_conjugate_h_on_x():
    pauli, sign = conjugate(PauliString.from_text("X"), CliffordGate("h", (0,)))
    assert (pauli, sign) == (PauliString.from_text("Z"), 1)


def test_conjugate_cnot_x_control():
    pauli, sign = conjugate(PauliString.from_text("XI"), CliffordGate("cnot", (0, 1)))
    assert (pauli, sign) == (PauliString.from_text("XX"), 1)


@pytest.mark.parametrize("kind", CLIFFORD_1Q)
def test_single_qubit_tables_match_dense(kind):
    gate_mat = gate_matrix(kind)
    for p in all_paulis(1):
        pauli, sign = conjugate(p, CliffordGate(kind, (0,)))
        expected = gate_mat.conj().T @ dense_pauli(p) @ gate_mat
        assert np.allclose(expected, sign * dense_pauli(pauli))


@pytest.mark.parametrize("kind", CLIFFORD_2Q)
def test_two_qubit_tables_match_dense(kind):
    gate_mat = gate_matrix(kind)
    for p in all_paulis(2):
        pauli, sign = conjugate(p, CliffordGate(kind, (0, 1)))
        expected = gate_mat.conj().T @ dense_pauli(p) @ gate_mat
        assert np.allclose(expected, sign * dense_pauli(pauli))


def _searched_table(kind):
    """Conjugation table found by trying every signed local Pauli per code."""
    gate = gate_matrix(kind)
    nq = 1 if gate.shape[0] == 2 else 2
    size = 4**nq
    out_code = np.zeros(size, dtype=np.uint64)
    out_sign = np.zeros(size, dtype=np.int8)
    for code in range(size):
        conj = gate.conj().T @ _local_pauli_matrix(code, nq) @ gate
        for cand, sign in itertools.product(range(size), (1, -1)):
            if np.allclose(conj, sign * _local_pauli_matrix(cand, nq), atol=1e-12):
                out_code[code] = cand
                out_sign[code] = sign
                break
        else:
            raise AssertionError(f"{kind} did not map code {code} to a signed Pauli")
    return out_code, out_sign


@pytest.mark.parametrize("kind", CLIFFORD_1Q + CLIFFORD_2Q)
def test_conjugation_tables_match_searched_reference(kind):
    codes, signs = gate_table(kind)
    ref_codes, ref_signs = _searched_table(kind)
    assert (codes.dtype, signs.dtype) == (ref_codes.dtype, ref_signs.dtype)
    assert codes.tolist() == ref_codes.tolist()
    assert signs.tolist() == ref_signs.tolist()


def test_conjugation_leaves_off_support_letters(rng):
    p = PauliString.from_text("XYZIX")
    for kind, qubits in (("h", (2,)), ("cnot", (1, 3)), ("swap", (0, 4))):
        pauli, _ = conjugate(p, CliffordGate(kind, qubits))
        for q in range(5):
            if q not in qubits:
                assert pauli.letter(q) == p.letter(q)


def test_conjugate_sequence_matches_dense():
    # seq([h0, cnot01]) as a sub-circuit: the CNOT is applied after the H
    seq = CliffordGate("seq", (0, 1),
                       (CliffordGate("h", (0,)), CliffordGate("cnot", (0, 1))))
    unitary = gate_matrix("cnot") @ np.kron(np.eye(2), gate_matrix("h"))
    for p in all_paulis(2):
        pauli, sign = conjugate(p, seq)
        expected = unitary.conj().T @ dense_pauli(p) @ unitary
        assert np.allclose(expected, sign * dense_pauli(pauli))


def test_gate_validation():
    with pytest.raises(ValidationError):
        CliffordGate("h", (0, 1))
    with pytest.raises(ValidationError):
        CliffordGate("cnot", (1, 1))
    with pytest.raises(ValidationError):
        CliffordGate("toffoli", (0, 1))
    # masks carry no qubit count; a gate outside the register is refused by its circuit
    with pytest.raises(ValidationError):
        Circuit(1, 0, (CliffordGate("h", (3,)),))
    # a seq gate's qubits must be exactly the union of its sub-gates' qubits
    with pytest.raises(ValidationError):
        CliffordGate("seq", (0,), (CliffordGate("h", (1,)),))
    with pytest.raises(ValidationError):
        CliffordGate("seq", (0, 1), (CliffordGate("h", (1,)),))


@pytest.mark.parametrize("kind", CLIFFORD_1Q + CLIFFORD_2Q)
def test_conjugate_masks_signs_are_exact(kind):
    qubits = (0,) if kind in CLIFFORD_1Q else (0, 1)
    for p in all_paulis(len(qubits)):
        sign = conjugate(p, CliffordGate(kind, qubits))[1]
        assert type(sign) is int and sign in (1, -1)


# --- observables -----------------------------------------------------------------------


def test_observable_norms():
    obs = ObservableSpec(((PauliString.from_text("ZZ"), 3.0),
                          (PauliString.from_text("XI"), -4.0)))
    assert obs.n_paulis == 2
    assert obs.norm1 == 7.0
    assert obs.norm2 == 5.0


def test_observable_rejects_duplicates_and_zeros():
    z = PauliString.from_text("Z")
    with pytest.raises(ValidationError):
        ObservableSpec(((z, 1.0), (z, 2.0)))
    with pytest.raises(ValidationError):
        ObservableSpec(((z, 0.0),))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            ObservableSpec(((z, bad),))
