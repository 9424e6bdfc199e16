"""Stabilizer overlaps and the dense statevector oracle."""

import concurrent.futures
import itertools
import threading

import numpy as np
import pytest

from paulipatch import (
    AllPlus,
    AllZero,
    Circuit,
    CliffordGate,
    Dense,
    DimensionError,
    ObservableSpec,
    OracleCapError,
    ParamRef,
    PauliString,
    Rotation,
    TrotterEvolvedZero,
    ValidationError,
    build_taylor,
    build_tfi_trotter,
    evolve_state,
    exact_expectation,
    exact_expectation_batch,
    exact_oracle,
    grid,
    overlap,
    overlaps,
)
from paulipatch import states, taylor
from paulipatch.pauli import CLIFFORD_1Q, CLIFFORD_2Q
from paulipatch.states import block_rows, evolve_states, state_vector

from conftest import (
    random_mixed_circuit,
    random_observable,
    ref_apply_circuit,
    ref_apply_pauli_dense,
    ref_expectation_batch,
)


def test_allzero_overlaps():
    assert overlap(AllZero(2), PauliString.from_text("ZZ")) == 1.0
    assert overlap(AllZero(2), PauliString.from_text("XI")) == 0.0
    assert overlap(AllZero(2), PauliString.from_text("IY")) == 0.0
    assert overlap(AllZero(2), PauliString.from_text("II")) == 1.0


def test_allplus_overlaps():
    assert overlap(AllPlus(2), PauliString.from_text("XX")) == 1.0
    assert overlap(AllPlus(2), PauliString.from_text("ZI")) == 0.0


def test_overlap_dimension_error():
    with pytest.raises(DimensionError):
        overlap(AllZero(2), PauliString.from_text("Z"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dense_allzero_matches_stabilizer_rule(n):
    dense = Dense(state_vector(AllZero(n)))
    for letters in itertools.product("IXYZ", repeat=n):
        p = PauliString.from_text("".join(letters))
        expected = 1.0 if p.x == 0 else 0.0
        assert overlap(dense, p) == pytest.approx(expected, abs=1e-12)


def test_dense_normalization_enforced():
    with pytest.raises(ValidationError):
        Dense(np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        Dense(np.zeros(3))
    for bad in (np.nan, np.inf):  # a NaN norm compares false with any tolerance
        with pytest.raises(ValidationError):
            Dense(np.array([bad, 0.0]))
        with pytest.raises(ValidationError):
            Dense(np.array([1.0, complex(0.0, bad)]))


def test_norm_preserved_over_thousand_gates(rng):
    c = random_mixed_circuit(rng, n=5, n_rot=1000)
    psi = evolve_state(c, rng.uniform(-np.pi, np.pi, c.m), AllZero(5))
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-10


def test_identity_circuit_expectation():
    c = Circuit(1, 0, ())
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    assert exact_expectation(c, [], obs, AllZero(1)) == pytest.approx(1.0)


def test_rz_on_plus_gives_cosine():
    c = Circuit(1, 1, (Rotation("Z", (0,), ParamRef.free(0)),))
    obs = ObservableSpec.single(PauliString.from_text("X"))
    for alpha in (0.0, np.pi / 3, 1.1, -0.7):
        assert exact_expectation(c, [alpha], obs, AllPlus(1)) == pytest.approx(
            np.cos(alpha), abs=1e-12
        )
    assert exact_expectation(c, [np.pi / 3], obs, AllPlus(1)) == pytest.approx(0.5)


def test_batch_matches_single(rng):
    c = random_mixed_circuit(rng, n=4, n_rot=8)
    obs = random_observable(rng, 4, terms=3)
    alphas = rng.uniform(-np.pi, np.pi, size=(11, c.m))
    batch = exact_expectation_batch(c, alphas, obs, AllZero(4))
    singles = [exact_expectation(c, a, obs, AllZero(4)) for a in alphas]
    assert np.allclose(batch, singles, atol=1e-12)


def test_expectation_cap_and_trotter_exception():
    big = Circuit(15, 0, ())
    obs = ObservableSpec.single(PauliString.from_letters("Z", [0], 15))
    with pytest.raises(OracleCapError):
        exact_expectation(big, [], obs, AllZero(15))

    prep16 = build_tfi_trotter(grid(4, 4), layers=1, dt=0.1, binding="fixed")
    rho = TrotterEvolvedZero(prep16)
    c16 = Circuit(16, 0, ())
    obs16 = ObservableSpec.single(PauliString.from_letters("Z", [5], 16))
    value = exact_expectation(c16, [], obs16, rho)  # allowed via the state cap
    assert -1.0 <= value <= 1.0

    with pytest.raises(OracleCapError):
        TrotterEvolvedZero(Circuit(17, 0, ()))


def test_trotter_state_requires_bound_circuit():
    c = Circuit(2, 1, (Rotation("X", (0,), ParamRef.free(0)),))
    with pytest.raises(ValidationError):
        TrotterEvolvedZero(c)


def test_dense_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = Dense(raw / np.linalg.norm(raw))
    path = tmp_path / "state.bin"
    state.to_binary_file(path)
    loaded = Dense.from_binary_file(path)
    assert loaded.n == 3
    assert abs(np.linalg.norm(loaded.vector) - 1.0) < 1e-12
    assert np.allclose(loaded.vector, state.vector, atol=1e-6)


# --- bitwise equality with the reference kernels -------------------------------------


def every_gate_circuit(rng, n, n_rot):
    """A random Clifford+rotation circuit followed by every Clifford kind, a seq gate,
    X, Y and Z generators (and two-qubit ones when n > 1), and a fixed rotation."""
    base = random_mixed_circuit(rng, n, n_rot)
    gates = list(base.gates)
    gates += [CliffordGate(kind, (int(rng.integers(n)),)) for kind in CLIFFORD_1Q]
    if n > 1:
        for kind in CLIFFORD_2Q:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(CliffordGate(kind, (int(a), int(b))))
        gates.append(CliffordGate("seq", (0, 1), (CliffordGate("h", (0,)),
                                                  CliffordGate("cnot", (0, 1)),
                                                  CliffordGate("s", (1,)))))
    else:
        gates.append(CliffordGate("seq", (0,), (CliffordGate("h", (0,)),
                                                CliffordGate("sdg", (0,)))))
    m = base.m
    for letters in ("X", "Y", "Z") + (("XY", "ZZ", "YX", "ZX") if n > 1 else ()):
        qubits = tuple(int(q) for q in rng.choice(n, size=len(letters), replace=False))
        gates.append(Rotation(letters, qubits, ParamRef.free(m)))
        m += 1
    gates.append(Rotation("Y", (n - 1,), ParamRef.fixed(0.37)))
    return Circuit(n, m, tuple(gates))


def random_dense(rng, n):
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Dense(raw / np.linalg.norm(raw))


# 16 qubits is the grid anchor's shape: one row per block
@pytest.mark.parametrize("kind, n", [(kind, n) for n in (1, 3, 10)
                                     for kind in ("zero", "plus", "dense", "trotter")]
                         + [("trotter", 16)])
def test_expectation_batch_matches_reference_kernels(n, kind):
    rng = np.random.default_rng(9100 + n)
    short = n == 16
    circuit = every_gate_circuit(rng, n, n_rot=3 if short else 12)
    obs = random_observable(rng, n, terms=min(4, 3 * n))
    if kind == "zero":
        state = AllZero(n)
    elif kind == "plus":
        state = AllPlus(n)
    elif kind == "dense":
        state = random_dense(rng, n)
    else:
        prep = every_gate_circuit(rng, n, n_rot=2 if short else 6)
        state = TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))
        psi = np.zeros((1, 1 << n), dtype=complex)
        psi[0, 0] = 1.0
        assert np.array_equal(state.vector, ref_apply_circuit(psi, state.circuit,
                                                              np.zeros((1, 0)))[0])
    # 70 rows cross the 64-row block of a 10-qubit batch, 6 rows make six 16-qubit blocks.
    # einsum sums a 2**16-amplitude row in another order when rows share a chunk, so the
    # 16-qubit reference runs one row at a time, as the oracle's blocks do.
    assert block_rows(16) == 1
    alphas = rng.uniform(-np.pi, np.pi, size=(6 if short else 70, circuit.m))
    got = exact_expectation_batch(circuit, alphas, obs, state)
    assert np.array_equal(got, ref_expectation_batch(circuit, alphas, obs, state,
                                                     chunk=1 if short else 64))
    assert exact_expectation(circuit, alphas[5], obs, state) == got[5]
    evolved = evolve_state(circuit, alphas[3], state)
    want = ref_apply_circuit(state_vector(state)[np.newaxis, :], circuit, alphas[3:4])[0]
    assert np.array_equal(evolved.vector, want)


MONOMIAL_1Q = tuple(kind for kind in CLIFFORD_1Q if kind != "h")


def monomial_run_circuit(rng, n, m):
    """A fixed rotation, then ``m`` free rotations in groups of three after an ``h``.

    Each group carries nine monomial Cliffords (every kind but h), so runs of at least
    eight lie between the h gates, and every other group ends in a seq gate that puts h
    between monomial gates.
    """
    def monomial():
        if n > 1 and rng.integers(2):
            a, b = rng.choice(n, size=2, replace=False)
            return CliffordGate(str(rng.choice(CLIFFORD_2Q)), (int(a), int(b)))
        return CliffordGate(str(rng.choice(MONOMIAL_1Q)), (int(rng.integers(n)),))

    gates = [Rotation("Y", (n - 1,), ParamRef.fixed(0.41))]
    for index in range(m):
        if index % 3 == 0:
            gates.append(CliffordGate("h", (int(rng.integers(n)),)))
        gates += [monomial() for _ in range(3)]
        size = int(rng.integers(1, min(n, 2) + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        letters = "".join(rng.choice(list("XYZ"), size=size))
        gates.append(Rotation(letters, qubits, ParamRef.free(index)))
        if index % 6 == 5:
            if n > 1:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                parts = (CliffordGate("s", (a,)), CliffordGate("h", (a,)),
                         CliffordGate("cnot", (a, b)), CliffordGate("y", (b,)))
                gates.append(CliffordGate("seq", (a, b), parts))
            else:
                parts = (CliffordGate("x", (0,)), CliffordGate("h", (0,)),
                         CliffordGate("sdg", (0,)))
                gates.append(CliffordGate("seq", (0,), parts))
    return Circuit(n, m, tuple(gates))


def taylor_like_rows(rng, m, order):
    """Shift points in ``build_taylor``'s first-seen order, then two special blocks.

    The points shift the centre by +/- pi/2 or +/- pi in one or two coordinates. After
    them come 128 copies of the centre, which fill at least one 64-row block, and copies
    of it whose zero coordinate is 0.0 or -0.0 in turn.
    """
    center = rng.uniform(-0.3, 0.3, size=m)
    center[m // 2] = 0.0
    offsets = {}
    for k in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(m), k):
            kvec = [0] * m
            for param in combo:
                kvec[param] += 1
            for offset in taylor._shift_combinations(kvec):
                offsets.setdefault(offset, None)
    points = center + (np.pi / 2.0) * np.array(list(offsets), dtype=float)
    signed = np.repeat(center[np.newaxis, :], 6, axis=0)
    signed[1::2, m // 2] = -0.0
    return np.concatenate([points, np.repeat(center[np.newaxis, :], 128, axis=0), signed])


# at 10 qubits and m = 20, rows 41-118 are the order-2 points whose first shifted
# parameter is 0, a run across the first 64-row block; 16 qubits take one row per block
@pytest.mark.parametrize("kind, n", [(kind, n) for n in (1, 3, 10)
                                     for kind in ("zero", "plus", "dense", "trotter")]
                         + [("trotter", 16)])
def test_rows_sharing_leading_angles_match_reference_kernels(n, kind):
    rng = np.random.default_rng(9800 + n)
    big = n == 16
    m = 3 if big else {1: 4, 3: 9, 10: 20}[n]
    circuit = monomial_run_circuit(rng, n, m)
    obs = random_observable(rng, n, terms=min(3, 3 * n))
    if kind == "zero":
        state = AllZero(n)
    elif kind == "plus":
        state = AllPlus(n)
    elif kind == "dense":
        state = random_dense(rng, n)
    else:
        prep = monomial_run_circuit(rng, n, 3 if big else 6)
        state = TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))
        psi = np.zeros((1, 1 << n), dtype=complex)
        psi[0, 0] = 1.0
        assert np.array_equal(state.vector, ref_apply_circuit(psi, state.circuit,
                                                              np.zeros((1, 0)))[0])
    alphas = taylor_like_rows(rng, m, order=1 if big else 2)
    if big:
        alphas = alphas[[0, 1, 2, 5, -2, -1]]
    got = exact_expectation_batch(circuit, alphas, obs, state)
    assert np.array_equal(got, ref_expectation_batch(circuit, alphas, obs, state,
                                                     chunk=block_rows(n)))
    singles = np.array([exact_expectation(circuit, row, obs, state) for row in alphas])
    assert np.array_equal(got, singles)
    for row in (1, len(alphas) // 3, len(alphas) - 1):
        evolved = evolve_state(circuit, alphas[row], state)
        want = ref_apply_circuit(state_vector(state)[np.newaxis, :], circuit,
                                 alphas[row:row + 1])[0]
        assert np.array_equal(evolved.vector, want)


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(states, "_usable_cores", lambda: cores)


# blocks hold 8 rows at 3 qubits (a smaller budget), 64 at 10, 4 at 14 and 1 at 16; the
# 14-qubit values may depend on the block shape, which no worker count changes
@pytest.mark.parametrize("n, kind", [(3, "plus"), (10, "dense"), (14, "zero"), (16, "trotter")])
def test_expectation_batch_is_the_same_for_every_worker_count(monkeypatch, n, kind):
    rng = np.random.default_rng(9900 + n)
    if n == 3:
        monkeypatch.setattr(states, "_BLOCK_BYTES", 1 << 10)
    big = n >= 14
    m = 3 if big else {3: 9, 10: 20}[n]
    circuit = monomial_run_circuit(rng, n, m)
    obs = random_observable(rng, n, terms=3)
    if kind == "plus":
        state = AllPlus(n)
    elif kind == "dense":
        state = random_dense(rng, n)
    elif kind == "zero":
        state = AllZero(n)
    else:
        prep = monomial_run_circuit(rng, n, 3)
        state = TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))
    step = block_rows(n)
    shared = taylor_like_rows(rng, m, order=1 if big else 2)
    if n == 16:
        shared = shared[[0, 1, 2, 5, -2, -1]]
    batches = [rng.uniform(-np.pi, np.pi, size=(2 * step + 3, m)),  # ends in a partial block
               rng.uniform(-np.pi, np.pi, size=(step + 1, m)),  # fewer blocks than 3 workers
               rng.uniform(-np.pi, np.pi, size=(2, m)),  # fewer rows than workers
               shared]
    center = rng.uniform(-0.3, 0.3, size=m)
    got, entries = {}, {}
    for cores in (1, 2, 3):
        use_cores(monkeypatch, cores)
        got[cores] = [exact_expectation_batch(circuit, alphas, obs, state) for alphas in batches]
        entries[cores] = build_taylor(exact_oracle(circuit, obs, state), center, kappa=2).entries
    for cores in (2, 3):
        assert all(np.array_equal(a, b) for a, b in zip(got[cores], got[1]))
        assert entries[cores] == entries[1]
    if not big:  # evolve_states reuses its two arrays from block to block
        alphas = batches[0]
        evolved = np.array([e.vector for e in evolve_states(circuit, alphas, state)])
        start = np.repeat(state_vector(state)[np.newaxis, :], alphas.shape[0], axis=0)
        assert np.array_equal(evolved, ref_apply_circuit(start, circuit, alphas))


def recorded_kernel(monkeypatch):
    """Record (thread id, numpy's overflow mode) at each block the oracle runs."""
    seen = []
    kernel = states._evolve_block

    def recording(*args):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return kernel(*args)

    monkeypatch.setattr(states, "_evolve_block", recording)
    return seen


def test_no_worker_thread_outlives_an_oracle_call(monkeypatch):
    rng = np.random.default_rng(9950)
    n = 10
    circuit = monomial_run_circuit(rng, n, 6)
    obs = random_observable(rng, n, terms=3)
    alphas = rng.uniform(-np.pi, np.pi, size=(3 * block_rows(n) + 1, circuit.m))
    seen = recorded_kernel(monkeypatch)
    use_cores(monkeypatch, 2)
    before = threading.active_count()
    exact_expectation_batch(circuit, alphas, obs, AllZero(n))
    assert threading.active_count() == before
    threads = {ident for ident, _ in seen}  # the calling thread is one of the two workers
    assert len(seen) == 4 and len(threads) == 2 and threading.get_ident() in threads


def test_a_one_block_call_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-block call started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    use_cores(monkeypatch, 2)
    rng = np.random.default_rng(9960)
    n = 4
    circuit = monomial_run_circuit(rng, n, 3)
    obs = random_observable(rng, n, terms=2)
    prep = monomial_run_circuit(rng, n, 2)
    state = TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))
    before = threading.active_count()
    assert state.vector.shape == (1 << n,)
    exact_expectation(circuit, np.zeros(circuit.m), obs, state)
    exact_oracle(circuit, obs, state)(np.zeros(circuit.m))
    exact_expectation_batch(circuit, rng.uniform(size=(block_rows(n), circuit.m)), obs, state)
    assert threading.active_count() == before


def test_workers_run_under_the_callers_error_state(monkeypatch):
    rng = np.random.default_rng(9970)
    n = 10
    circuit = monomial_run_circuit(rng, n, 6)
    obs = random_observable(rng, n, terms=2)
    alphas = rng.uniform(-np.pi, np.pi, size=(2 * block_rows(n), circuit.m))
    seen = recorded_kernel(monkeypatch)
    use_cores(monkeypatch, 2)
    with np.errstate(over="raise"):
        exact_expectation_batch(circuit, alphas, obs, AllZero(n))
    assert len({ident for ident, _ in seen}) == 2
    assert [over for _, over in seen] == ["raise", "raise"]


@pytest.mark.parametrize("n", [3, 10])
def test_dense_overlap_matches_reference_kernel(n):
    rng = np.random.default_rng(9200 + n)
    state = random_dense(rng, n)
    if n == 3:
        paulis = [PauliString.from_text("".join(t)) for t in itertools.product("IXYZ", repeat=3)]
    else:
        paulis = [PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                  for _ in range(60)]
    for p in paulis:
        want = np.vdot(state.vector, ref_apply_pauli_dense(state.vector[np.newaxis, :], p)[0])
        assert overlap(state, p) == float(want.real)


def random_paulis(rng, n, count):
    """Random Paulis on ``n`` qubits, with identity and pure-Z/pure-X ones mixed in."""
    def mask():
        return int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)

    paulis = [PauliString(n, mask(), mask()) for _ in range(count)]
    return paulis + [PauliString.identity(n), PauliString(n, 0, (1 << n) - 1),
                     PauliString(n, (1 << n) - 1, 0)]


@pytest.mark.parametrize("state", [AllZero(5), AllPlus(5), AllZero(127), AllPlus(127)])
def test_stabilizer_overlaps_equal_overlap(state):
    rng = np.random.default_rng(9500 + state.n)
    paulis = random_paulis(rng, state.n, 40)
    got = overlaps(state, paulis)
    assert got.dtype == float and got.shape == (len(paulis),)
    assert got.tolist() == [overlap(state, p) for p in paulis]


@pytest.mark.parametrize("kind", ["dense", "trotter"])
@pytest.mark.parametrize("n", range(1, 13))
def test_dense_overlaps_match_overlap(n, kind):
    rng = np.random.default_rng(9600 + n)
    if kind == "dense":
        state = random_dense(rng, n)
    else:
        prep = every_gate_circuit(rng, n, n_rot=4)
        state = TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))
    # few X masks with many Z masks each, and many X masks with one or two each
    paulis = random_paulis(rng, n, 60) + [
        PauliString(n, int(x), int(rng.integers(1 << n)))
        for x in rng.integers(1 << n, size=3) for _ in range(20)]
    got = overlaps(state, paulis)
    want = np.array([overlap(state, p) for p in paulis])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_dense_overlaps_of_every_three_qubit_pauli():
    # all 64 Paulis: the identity, every X mask, and the +/-i phases of the Y letters
    state = random_dense(np.random.default_rng(9700), 3)
    paulis = [PauliString.from_text("".join(t)) for t in itertools.product("IXYZ", repeat=3)]
    got = overlaps(state, paulis)
    want = np.array([overlap(state, p) for p in paulis])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert abs(got[0] - 1.0) <= 1e-15  # Tr[rho] = 1


def test_dense_overlaps_at_sixteen_qubits():
    rng = np.random.default_rng(9716)
    state = random_dense(rng, 16)
    # 300 Paulis over 6 X masks
    paulis = [PauliString(16, int(x), int(rng.integers(1 << 16)))
              for x in rng.integers(1 << 16, size=6) for _ in range(50)]
    got = overlaps(state, paulis)
    want = np.array([overlap(state, p) for p in paulis])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_dense_overlaps_split_a_large_group_into_column_blocks(monkeypatch):
    # a 64 KiB budget gives chunks of 16 Paulis at 6 qubits: 70 Paulis of one X mask, with
    # two of another mask on each side, take 5 chunks, and the mask's u outlives each cut
    rng = np.random.default_rng(9706)
    state = random_dense(rng, 6)
    paulis = [PauliString(6, x, int(z)) for x in (0b101101, 0b000011, 0b110000)
              for z in rng.integers(64, size=70 if x == 0b101101 else 2)]
    monkeypatch.setattr(states, "_BLOCK_BYTES", 1 << 16)
    got = overlaps(state, paulis)
    assert np.max(np.abs(got - [overlap(state, p) for p in paulis])) <= 1e-15


@pytest.mark.parametrize("state", [AllZero(3), AllPlus(3),
                                   Dense(np.full(8, 1 / np.sqrt(8)))])
def test_overlaps_of_no_paulis_and_of_the_wrong_size(state):
    assert overlaps(state, []).shape == (0,)
    with pytest.raises(DimensionError):
        overlaps(state, [PauliString.from_text("ZZZ"), PauliString.from_text("ZZ")])


# --- refusals and read-only state vectors ----------------------------------------------


def one_rotation_circuit():
    return Circuit(1, 1, (Rotation("X", (0,), ParamRef.free(0)),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expectation_batch_refuses_non_finite_parameters(bad):
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    with pytest.raises(ValidationError):
        exact_expectation_batch(one_rotation_circuit(), np.array([[0.1], [bad]]), obs,
                                AllZero(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expectation_refuses_non_finite_parameters(bad):
    obs = ObservableSpec.single(PauliString.from_text("Z"))
    with pytest.raises(ValidationError):
        exact_expectation(one_rotation_circuit(), [bad], obs, AllZero(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_state_refuses_non_finite_parameters(bad):
    with pytest.raises(ValidationError):
        evolve_state(one_rotation_circuit(), [bad], AllZero(1))
    with pytest.raises(DimensionError):
        evolve_state(one_rotation_circuit(), [bad, 0.1], AllZero(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_angle_refuses_non_finite_values(bad):
    with pytest.raises(ValidationError):
        ParamRef.fixed(bad)
    with pytest.raises(ValidationError):
        one_rotation_circuit().bind([bad])


def test_dense_keeps_a_copy_of_its_amplitudes():
    raw = np.array([1.0, 0.0], dtype=complex)
    state = Dense(raw)
    assert not np.shares_memory(raw, state.vector)
    raw[0] = 0.5
    assert state.vector[0] == 1.0


def test_state_vectors_are_read_only_and_survive_the_oracle():
    rng = np.random.default_rng(9300)
    n = 3
    circuit = every_gate_circuit(rng, n, n_rot=4)
    prep = every_gate_circuit(rng, n, n_rot=2)
    obs = random_observable(rng, n, terms=3)
    alphas = rng.uniform(-np.pi, np.pi, size=(5, circuit.m))
    for state in (random_dense(rng, n),
                  TrotterEvolvedZero(prep.bind(rng.uniform(-np.pi, np.pi, prep.m)))):
        before = state.vector.copy()
        with pytest.raises(ValueError):
            state.vector[0] = 0.0
        evolve_state(circuit, alphas[0], state)
        exact_expectation_batch(circuit, alphas, obs, state)
        for p, _ in obs.terms:
            overlap(state, p)
        assert state.vector.tobytes() == before.tobytes()
