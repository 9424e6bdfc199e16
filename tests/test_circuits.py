"""Circuit IR, topologies, ramps, Trotter builders, and JSON interchange."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from paulipatch import (
    Circuit,
    ObservableSpec,
    ParamRef,
    PauliString,
    RampSpec,
    Rotation,
    ValidationError,
    build_tfi_trotter,
    chain,
    grid,
    heavyhex127,
    parse_circuit,
    parse_observable,
    ramp_value,
)
from paulipatch.circuits import FIXED, FREE, SHARED, Topology, circuit_to_json, observable_to_json
from paulipatch.states import AllZero, state_vector, evolve_state

from conftest import dense_pauli, random_mixed_circuit


# --- ramps ------------------------------------------------------------------------------


def test_ramp_endpoints():
    assert ramp_value("linear", 1.0, 1.0) == 1.0
    assert ramp_value("square", 0.5, 1.0) == 0.25


def test_tanh_ramp_is_not_exactly_zero_at_start():
    value = ramp_value("tanh", 0.0, 1.0)
    assert value == pytest.approx((math.tanh(-3) + 1) / 2)
    assert 0.002 < value < 0.003


@pytest.mark.parametrize("kind", ["linear", "square", "tanh"])
def test_ramp_monotone_on_grid(kind):
    t_f = 7.0
    ts = np.linspace(0.0, t_f, 1000)
    values = [ramp_value(kind, t, t_f) for t in ts]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] <= min(values) and values[-1] >= max(values)


def test_ramp_domain_errors():
    with pytest.raises(ValidationError):
        ramp_value("linear", -0.1, 1.0)
    with pytest.raises(ValidationError):
        ramp_value("linear", 1.5, 1.0)
    with pytest.raises(ValidationError):
        ramp_value("cubic", 0.5, 1.0)


# --- topologies --------------------------------------------------------------------------


def test_chain_and_grid_edges():
    assert chain(4).edges == ((0, 1), (1, 2), (2, 3))
    g = grid(2, 3)
    assert g.n == 6
    assert len(g.edges) == 7  # 4 horizontal + 3 vertical


def test_heavyhex_invariants():
    hh = heavyhex127()
    assert hh.n == 127
    assert len(hh.edges) == 144
    assert max(hh.degrees()) == 3
    assert (62, 63) in hh.edges  # the mid-lattice observable edge


def test_topology_validation():
    with pytest.raises(ValidationError):
        Topology(3, ((0, 0),))
    with pytest.raises(ValidationError):
        Topology(3, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError):
        Topology(3, ((0, 5),))


# --- Trotter builders ----------------------------------------------------------------------


def test_gate_counts_paper_configs():
    c = build_tfi_trotter(grid(4, 4), layers=4, dt=0.1, binding=FIXED)
    assert len(c.gates) == 160 and c.m == 0
    c = build_tfi_trotter(heavyhex127(), layers=50, dt=0.3,
                          ramp=RampSpec("linear", 15.0), binding=FIXED)
    assert len(c.gates) == 13550
    c = build_tfi_trotter(chain(2), layers=1, dt=0.25, binding=FREE)
    assert len(c.gates) == 3 and c.m == 3


def test_gate_count_formula():
    top = grid(2, 3)
    for layers in (1, 2, 5):
        c = build_tfi_trotter(top, layers=layers, dt=0.1, binding=FIXED)
        assert len(c.gates) == layers * (top.n + len(top.edges))


def test_shared_binding_single_parameter():
    c = build_tfi_trotter(chain(3), layers=2, dt=0.1, binding=SHARED)
    assert c.m == 1
    assert all(g.param.kind == SHARED and g.param.index == 0 for g in c.rotations)


def test_trotter_angles_match_hamiltonian_step():
    """One fixed Trotter layer: the X sublayer hits the state first, then ZZ."""
    top = chain(3)
    dt = 0.17
    h = [1.0, 0.7, 1.3]
    jc = [0.9, 1.1]
    c = build_tfi_trotter(top, layers=1, dt=dt, h=h, j=jc, binding=FIXED)
    psi = evolve_state(c, [], AllZero(3)).vector

    n = 3
    hx = sum(-h[i] * dense_pauli(PauliString.from_letters("X", [i], n)) for i in range(n))
    hzz = sum(-jc[k] * dense_pauli(PauliString.from_letters("ZZ", e, n))
              for k, e in enumerate(top.edges))
    expected = expm(-1j * dt * hzz) @ expm(-1j * dt * hx) @ state_vector(AllZero(3))
    assert np.allclose(psi, expected, atol=1e-12)


def test_ramped_angles_sampled_at_layer_end():
    t_f = 2.0
    dt = 1.0
    c = build_tfi_trotter(chain(2), layers=2, dt=dt, ramp=RampSpec("linear", t_f),
                          binding=FIXED)
    rots = c.rotations
    # layer 1 at t=1: g=0.5 -> X angle -2*0.5, ZZ angle -2*0.5
    assert rots[0].letters == "X" and rots[0].param.value == pytest.approx(-1.0)
    assert rots[2].letters == "ZZ" and rots[2].param.value == pytest.approx(-1.0)
    # layer 2 at t=2: g=1 -> X angle 0, ZZ angle -2
    assert rots[3].param.value == pytest.approx(0.0)
    assert rots[5].param.value == pytest.approx(-2.0)


def test_builder_validation():
    with pytest.raises(ValidationError):
        build_tfi_trotter(chain(3), layers=0, dt=0.1)
    with pytest.raises(ValidationError):
        build_tfi_trotter(chain(3), layers=1, dt=-0.1)
    with pytest.raises(ValidationError):
        build_tfi_trotter(chain(3), layers=1, dt=0.1, h=[1.0])


# --- circuit structure -----------------------------------------------------------------------


def test_circuit_validation():
    rot = Rotation("X", (0,), ParamRef.free(0))
    with pytest.raises(ValidationError):
        Circuit(1, 1, (Rotation("X", (3,), ParamRef.free(0)),))
    with pytest.raises(ValidationError):
        Circuit(1, 1, (Rotation("X", (0,), ParamRef.free(5)),))
    with pytest.raises(ValidationError):
        Circuit(1, 2, (rot,))  # parameter 1 never referenced
    with pytest.raises(ValidationError):
        Rotation("I", (0,), ParamRef.free(0))


def test_bind_bakes_parameters():
    c = Circuit(2, 2, (Rotation("X", (0,), ParamRef.free(0)),
                       Rotation("ZZ", (0, 1), ParamRef.free(1))))
    bound = c.bind([0.3, -0.4])
    assert bound.m == 0
    assert bound.rotations[0].param.value == pytest.approx(0.3)
    assert bound.rotations[1].param.value == pytest.approx(-0.4)


# --- JSON interchange --------------------------------------------------------------------------


def test_minimal_document_round_trip():
    doc = json.dumps({"n": 1, "m": 1,
                      "gates": [{"type": "rot", "pauli": "X", "qubits": [0], "param": 0}]})
    c = parse_circuit(doc)
    assert c.n == 1 and len(c.gates) == 1
    assert parse_circuit(circuit_to_json(c)) == c


def test_parse_rejects_out_of_range_param():
    doc = json.dumps({"n": 1, "m": 1,
                      "gates": [{"type": "rot", "pauli": "X", "qubits": [0], "param": 1}]})
    with pytest.raises(ValidationError) as err:
        parse_circuit(doc)
    assert "gates[0].param" in str(err.value)


def test_parse_rejects_bad_qubit_with_path():
    doc = json.dumps({"n": 2, "m": 0,
                      "gates": [{"type": "clifford", "kind": "h", "qubits": [4]}]})
    with pytest.raises(ValidationError) as err:
        parse_circuit(doc)
    assert "gates[0].qubits[0]" in str(err.value)


def _rotation_doc(**gate):
    return {"n": 2, "m": 1,
            "gates": [{"type": "rot", "pauli": "X", "qubits": [0], "param": 0},
                      {"type": "rot", "pauli": "Z", "qubits": [1], **gate}]}


@pytest.mark.parametrize("doc,path", [
    ({**_rotation_doc(value=0.5), "n": True}, "n"),
    ({**_rotation_doc(value=0.5), "n": 2.0}, "n"),
    ({**_rotation_doc(value=0.5), "m": True}, "m"),
    (_rotation_doc(value=0.5, qubits=[True]), "gates[1].qubits[0]"),
    (_rotation_doc(value=0.5, qubits=[1.0]), "gates[1].qubits[0]"),
    ({**_rotation_doc(param=True), "m": 2}, "gates[1].param"),
    (_rotation_doc(param="0"), "gates[1].param"),
    (_rotation_doc(value=True), "gates[1].value"),
    (_rotation_doc(value="0.5"), "gates[1].value"),
    (_rotation_doc(value=math.nan), "gates[1].value"),
    (_rotation_doc(value=-math.inf), "gates[1].value"),
    (_rotation_doc(param=0, shared="no"), "gates[1].shared"),
    (_rotation_doc(param=0, shared=1), "gates[1].shared"),
    ({"n": 2, "m": 0, "gates": [{"type": "clifford", "kind": "h", "qubits": [False]}]},
     "gates[0].qubits[0]"),
], ids=["bool-n", "float-n", "bool-m", "bool-qubit", "float-qubit", "bool-param",
        "string-param", "bool-value", "string-value", "nan-value", "infinite-value",
        "string-shared", "int-shared", "bool-clifford-qubit"])
def test_parse_circuit_rejects_mistyped_numbers(doc, path):
    with pytest.raises(ValidationError) as err:
        parse_circuit(json.dumps(doc))
    assert err.value.path == path


@pytest.mark.parametrize("doc", [
    {"n": 2, "terms": 5},
    {"n": 2, "terms": [{"pauli": "Z", "qubits": 5}]},
    {"n": 2, "terms": [{"pauli": "Z", "qubits": [True]}]},
    {"n": 2, "terms": [{"pauli": "Z", "qubits": [7]}]},
    {"n": 2, "terms": [{"pauli": "ZZ", "coeff": True}]},
    {"n": 2, "terms": [{"pauli": "ZZ", "coeff": "0.5"}]},
    {"n": 2, "terms": [{"pauli": "ZZ", "coeff": math.inf}]},
    {"n": 2, "terms": [{"pauli": "ZZ", "coeff": math.nan}]},
    {"n": True, "terms": [{"pauli": "Z"}]},
    {"n": 2.0, "terms": [{"pauli": "ZZ"}]},
    {"terms": [{"pauli": "ZZ"}]},
    [{"pauli": "ZZ"}],
], ids=["int-terms", "int-qubits", "bool-qubit", "qubit-out-of-range", "bool-coeff",
        "string-coeff", "infinite-coeff", "nan-coeff", "bool-n", "float-n", "missing-n",
        "not-an-object"])
def test_parse_observable_rejects_mistyped_fields(doc):
    with pytest.raises(ValidationError):
        parse_observable(json.dumps(doc))


def test_builder_output_round_trips(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        c = random_mixed_circuit(local, n=4, n_rot=6, shared=bool(seed % 2))
        assert parse_circuit(circuit_to_json(c)) == c
    trotter = build_tfi_trotter(grid(2, 2), layers=2, dt=0.1,
                                ramp=RampSpec("tanh", 3.0), binding=FIXED)
    assert parse_circuit(circuit_to_json(trotter)) == trotter


def test_observable_json_round_trip():
    obs = ObservableSpec(((PauliString.from_sparse("Z0 Z1", 4), 0.5),
                          (PauliString.from_sparse("X2", 4), -1.5)))
    assert parse_observable(observable_to_json(obs)) == obs
    sparse_doc = json.dumps({"n": 3, "terms": [{"pauli": "Z0 Z2", "coeff": 2.0}]})
    parsed = parse_observable(sparse_doc)
    assert parsed.terms[0][0] == PauliString.from_text("ZIZ")
