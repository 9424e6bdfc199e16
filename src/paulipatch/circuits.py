"""Circuit intermediate representation and experiment-family builders.

Circuits are ordered gate lists; the leftmost gate is applied first to the
state. Rotation gates implement ``exp(-i*theta*P/2)`` where ``theta`` comes
from a ``ParamRef``: a free parameter slot, a shared slot referenced by
several gates, or a baked-in fixed angle.

Builders cover Trotterized transverse-field Ising dynamics on a few built-in
topologies, including the 127-site heavy-hex lattice and the annealing ramps
used for Kibble-Zurek scans.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import documents
from .documents import integer, number
from .errors import DimensionError, ValidationError
from .pauli import CliffordGate, ObservableSpec, PauliString

FREE = "free"
SHARED = "shared"
FIXED = "fixed"


def finite_parameters(alphas):
    """``alphas`` (one value or an array), refused when a parameter is NaN or infinite."""
    if not np.isfinite(alphas).all():
        raise ValidationError("parameters must be finite")
    return alphas


@dataclass(frozen=True)
class ParamRef:
    """Reference of a rotation angle to a parameter slot or a fixed value."""

    kind: str
    index: int | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind in (FREE, SHARED):
            if self.index is None or self.index < 0 or self.value is not None:
                raise ValidationError(f"{self.kind} ref needs a nonnegative index only")
        elif self.kind == FIXED:
            if self.value is None or self.index is not None:
                raise ValidationError("fixed ref needs a value only")
            object.__setattr__(self, "value", finite_parameters(float(self.value)))
        else:
            raise ValidationError(f"unknown param kind {self.kind!r}")

    @classmethod
    def free(cls, index: int) -> "ParamRef":
        return cls(FREE, index=index)

    @classmethod
    def shared(cls, index: int) -> "ParamRef":
        return cls(SHARED, index=index)

    @classmethod
    def fixed(cls, value: float) -> "ParamRef":
        return cls(FIXED, value=value)

    @property
    def is_fixed(self) -> bool:
        return self.kind == FIXED


@dataclass(frozen=True)
class Rotation:
    """Pauli rotation ``exp(-i*theta*P/2)`` with ``P`` given on its support."""

    letters: str
    qubits: tuple[int, ...]
    param: ParamRef

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "letters", self.letters.upper())
        if len(self.letters) != len(self.qubits):
            raise ValidationError(
                f"{len(self.letters)} letters for {len(self.qubits)} qubits"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"duplicate qubits in {self.qubits}")
        if set(self.letters) - set("XYZ"):
            raise ValidationError(
                f"rotation generator must be non-identity on its qubits: {self.letters!r}"
            )

    def generator(self, n: int) -> PauliString:
        return PauliString.from_letters(self.letters, self.qubits, n)


Gate = CliffordGate | Rotation


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n`` qubits with ``m`` free/shared parameters."""

    n: int
    m: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        referenced: set[int] = set()
        for i, gate in enumerate(self.gates):
            for q in gate.qubits:
                if not 0 <= q < self.n:
                    raise ValidationError(
                        f"qubit {q} out of range for n={self.n}", path=f"gates[{i}]"
                    )
            if isinstance(gate, Rotation) and not gate.param.is_fixed:
                if gate.param.index >= self.m:
                    raise ValidationError(
                        f"param index {gate.param.index} >= m={self.m}",
                        path=f"gates[{i}]",
                    )
                referenced.add(gate.param.index)
        if referenced != set(range(self.m)):
            missing = sorted(set(range(self.m)) - referenced)
            raise ValidationError(f"parameter indices never referenced: {missing}")

    @property
    def rotations(self) -> tuple[Rotation, ...]:
        return tuple(g for g in self.gates if isinstance(g, Rotation))

    def bind(self, alphas: Sequence[float]) -> "Circuit":
        """Bake a full parameter vector in, returning an all-fixed circuit."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (self.m,):
            raise DimensionError(f"expected {self.m} parameters, got {alphas.shape}")
        gates: list[Gate] = []
        for gate in self.gates:
            if isinstance(gate, Rotation) and not gate.param.is_fixed:
                gates.append(
                    Rotation(gate.letters, gate.qubits,
                             ParamRef.fixed(float(alphas[gate.param.index])))
                )
            else:
                gates.append(gate)
        return Circuit(self.n, 0, tuple(gates))


# --- Topologies -----------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """A set of sites plus undirected coupling edges (i < j, no duplicates)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canon = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValidationError(f"self edge ({i},{j})")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i},{j}) out of range for n={self.n}")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValidationError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(canon))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def chain(n: int) -> Topology:
    return Topology(n, tuple((i, i + 1) for i in range(n - 1)))


def grid(rows: int, cols: int) -> Topology:
    """Nearest-neighbour square grid, row-major site indexing."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                edges.append((s, s + 1))
            if r + 1 < rows:
                edges.append((s, s + cols))
    return Topology(rows * cols, tuple(edges))


def heavyhex127() -> Topology:
    """The 127-site heavy-hex lattice: 7 long rows joined by 4-qubit bridges.

    Row lengths are 14, 15, 15, 15, 15, 15, 14; each pair of adjacent rows is
    joined through 4 bridge sites, giving 144 edges and maximum degree 3.
    """
    row_lengths = [14, 15, 15, 15, 15, 15, 14]
    row_start: list[int] = []
    pos = 0
    for r, length in enumerate(row_lengths):
        row_start.append(pos)
        pos += length
        if r < 6:
            pos += 4  # bridge sites between this row and the next
    assert pos == 127

    edges: list[tuple[int, int]] = []
    for r, length in enumerate(row_lengths):
        base = row_start[r]
        edges.extend((base + c, base + c + 1) for c in range(length - 1))

    for r in range(6):
        bridge_base = row_start[r] + row_lengths[r]
        top_cols = [0, 4, 8, 12] if r % 2 == 0 else [2, 6, 10, 14]
        for k, col in enumerate(top_cols):
            bridge = bridge_base + k
            below = col - 1 if r == 5 else col  # bottom row is offset by one
            edges.append((row_start[r] + col, bridge))
            edges.append((bridge, row_start[r + 1] + below))
    return Topology(127, tuple(edges))


# --- Annealing ramps --------------------------------------------------------------

RAMP_KINDS = ("linear", "square", "tanh")


def ramp_value(kind: str, t: float, t_f: float) -> float:
    """Interpolation factor g(t) in [0, t_f] for the named annealing ramp."""
    if kind not in RAMP_KINDS:
        raise ValidationError(f"unknown ramp kind {kind!r}")
    if t_f <= 0:
        raise ValidationError(f"t_f must be positive, got {t_f}")
    if not 0 <= t <= t_f * (1 + 1e-12):
        raise ValidationError(f"t={t} outside [0, {t_f}]")
    s = t / t_f
    if kind == "linear":
        return s
    if kind == "square":
        return s * s
    # tanh sweeps the centre part of a rescaled tanh; note g(0) is ~0.0025,
    # not exactly 0 -- we keep the printed closed form verbatim.
    return 0.5 * (math.tanh(-3.0 * (1.0 - s) + 3.0 * s) + 1.0)


# --- TFI Trotter / HVA builders ---------------------------------------------------


@dataclass(frozen=True)
class RampSpec:
    """An annealing ramp, evaluated at the end time of each Trotter layer."""

    kind: str
    t_f: float

    def __post_init__(self) -> None:
        if self.kind not in RAMP_KINDS:
            raise ValidationError(f"unknown ramp kind {self.kind!r}")


def _as_coeff_array(value: float | Sequence[float], count: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValidationError(f"{name} must be scalar or length {count}, got {arr.shape}")
    return arr


def build_tfi_trotter(
    top: Topology,
    layers: int,
    dt: float,
    h: float | Sequence[float] = 1.0,
    j: float | Sequence[float] = 1.0,
    ramp: RampSpec | None = None,
    binding: str = FIXED,
) -> Circuit:
    """Trotter circuit for the transverse-field Ising Hamiltonian on ``top``.

    Each layer applies one X rotation per site, then one ZZ rotation per edge.
    With ``binding="fixed"`` the angles realize one first-order Trotter step
    ``exp(-i*dt*H)`` of ``H = -sum_i h_i X_i - sum_<ij> J_ij Z_i Z_j`` (angle
    ``-2*dt*coeff`` per term in the exp(-i*theta*P/2) convention); a ramp
    reweights the two sublayers by ``1-g(t)`` and ``g(t)``. ``binding="free"``
    gives every rotation its own parameter (the HVA), ``binding="shared"``
    parametrizes every rotation by one common angle.
    """
    if layers < 1:
        raise ValidationError(f"layers must be >= 1, got {layers}")
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if top.n == 0 or not top.edges:
        raise ValidationError("topology must have sites and edges")
    if binding not in (FREE, SHARED, FIXED):
        raise ValidationError(f"unknown binding {binding!r}")

    h_arr = _as_coeff_array(h, top.n, "h")
    j_arr = _as_coeff_array(j, len(top.edges), "J")

    gates: list[Gate] = []
    next_free = 0
    for layer in range(1, layers + 1):
        if ramp is None:
            g = 0.0
            x_scale, zz_scale = 1.0, 1.0
        else:
            g = ramp_value(ramp.kind, min(layer * dt, ramp.t_f), ramp.t_f)
            x_scale, zz_scale = 1.0 - g, g

        for site in range(top.n):
            angle = -2.0 * dt * x_scale * h_arr[site]
            gates.append(Rotation("X", (site,), _bind(binding, angle, next_free)))
            if binding == FREE:
                next_free += 1
        for e, (a, b) in enumerate(top.edges):
            angle = -2.0 * dt * zz_scale * j_arr[e]
            gates.append(Rotation("ZZ", (a, b), _bind(binding, angle, next_free)))
            if binding == FREE:
                next_free += 1

    if binding == FREE:
        m = next_free
    elif binding == SHARED:
        m = 1
    else:
        m = 0
    return Circuit(top.n, m, tuple(gates))


def _bind(binding: str, angle: float, next_free: int) -> ParamRef:
    if binding == FIXED:
        return ParamRef.fixed(angle)
    if binding == SHARED:
        return ParamRef.shared(0)
    return ParamRef.free(next_free)


# --- JSON interchange -------------------------------------------------------------

_CLIFFORD_JSON_KINDS = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ValidationError(message, path=path)


def circuit_to_json(circuit: Circuit) -> str:
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            if gate.kind == "seq":
                raise ValidationError("seq gates have no JSON form; list generators")
            gates.append({"type": "clifford", "kind": gate.kind, "qubits": list(gate.qubits)})
        else:
            entry: dict = {"type": "rot", "pauli": gate.letters, "qubits": list(gate.qubits)}
            if gate.param.is_fixed:
                entry["value"] = gate.param.value
            else:
                entry["param"] = gate.param.index
                if gate.param.kind == SHARED:
                    entry["shared"] = True
            gates.append(entry)
    return json.dumps({"n": circuit.n, "m": circuit.m, "gates": gates}, indent=1)


def parse_circuit(document: str) -> Circuit:
    """Parse and structurally validate the circuit JSON schema."""
    doc = documents.parse(document, "circuit")
    with documents.fields("circuit"):
        n, m = integer(doc["n"], "n"), integer(doc["m"], "m")
        _require(n >= 0, "n must be nonnegative", "n")
        _require(m >= 0, "m must be nonnegative", "m")
        _require(isinstance(doc["gates"], list), "gates must be a list", "gates")
        gates: list[Gate] = []
        for i, raw in enumerate(doc["gates"]):
            path = f"gates[{i}]"
            _require(isinstance(raw, dict), "gate must be an object", path)
            kind = raw.get("type")
            _require(kind in ("clifford", "rot"), f"unknown gate type {kind!r}", path)
            qubits = tuple(integer(q, f"{path}.qubits[{k}]")
                           for k, q in enumerate(raw["qubits"]))
            for k, q in enumerate(qubits):
                _require(0 <= q < n, f"qubit {q} out of range for n={n}", f"{path}.qubits[{k}]")
            try:
                if kind == "clifford":
                    gkind = raw.get("kind")
                    _require(gkind in _CLIFFORD_JSON_KINDS, f"unknown kind {gkind!r}", path)
                    gates.append(CliffordGate(gkind, qubits))
                else:
                    letters = raw.get("pauli")
                    _require(isinstance(letters, str), "pauli must be a string", f"{path}.pauli")
                    has_param = "param" in raw
                    has_value = "value" in raw
                    _require(has_param != has_value, "need exactly one of param/value", path)
                    if has_param:
                        idx = integer(raw["param"], f"{path}.param")
                        _require(0 <= idx < m, f"param index {idx} >= m={m}", f"{path}.param")
                        shared = raw.get("shared", False)
                        _require(isinstance(shared, bool), "shared must be a boolean",
                                 f"{path}.shared")
                        ref = ParamRef.shared(idx) if shared else ParamRef.free(idx)
                    else:
                        ref = ParamRef.fixed(number(raw["value"], f"{path}.value"))
                    gates.append(Rotation(letters, qubits, ref))
            except ValidationError as exc:
                if not exc.path:
                    raise ValidationError(str(exc), path=path) from None
                raise
        return Circuit(n, m, tuple(gates))


def observable_to_json(obs: ObservableSpec) -> str:
    terms = []
    for p, c in obs.terms:
        support = p.support()
        terms.append(
            {
                "pauli": "".join(p.letter(q) for q in support) or "I",
                "qubits": list(support) or [0],
                "coeff": c,
            }
        )
    return json.dumps({"n": obs.n, "terms": terms}, indent=1)


def parse_observable(document: str, n: int | None = None) -> ObservableSpec:
    """Parse observable JSON; Pauli text may be dense or sparse ("Z0 Z1")."""
    doc = documents.parse(document, "observable")
    with documents.fields("observable"):
        if n is None:
            n = integer(doc["n"], "n")
        terms: list[tuple[PauliString, float]] = []
        for i, raw in enumerate(doc["terms"]):
            path = f"terms[{i}]"
            _require(isinstance(raw, dict), "term must be an object", path)
            text = raw.get("pauli")
            _require(isinstance(text, str), "pauli must be a string", f"{path}.pauli")
            coeff = number(raw.get("coeff", 1.0), f"{path}.coeff")
            qubits = [integer(q, f"{path}.qubits[{k}]")
                      for k, q in enumerate(raw.get("qubits", ()))]
            try:
                if " " in text.strip() or re.match(r"^[IXYZixyz]\d", text.strip()):
                    pauli = PauliString.from_sparse(text, n)
                elif "qubits" in raw:
                    pauli = PauliString.from_letters(text, qubits, n)
                else:
                    pauli = PauliString.from_text(text, n)
            except (ValidationError, DimensionError) as exc:
                raise ValidationError(str(exc), path=path) from None
            terms.append((pauli, coeff))
        return ObservableSpec(tuple(terms))
