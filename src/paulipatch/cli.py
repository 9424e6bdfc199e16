"""Batch command-line driver for the landscape-patch experiments.

Every command writes machine-readable CSV/JSON plus a run manifest
(``<out>.manifest.json``) echoing the full configuration, seed, and wall-clock
timings. CSV bytes are reproducible for a fixed configuration and seed; the
manifest id (a hash of the configuration) is stamped into the first CSV line.

Exit codes: 0 success, 2 validation error (a malformed option value included), 3 policy
overflow, 4 oracle cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, documents
from .circuits import (
    RAMP_KINDS,
    RampSpec,
    Topology,
    build_tfi_trotter,
    chain,
    grid,
    heavyhex127,
    parse_circuit,
    parse_observable,
)
from .errors import (
    ConfigError,
    HypothesisViolationError,
    OracleCapError,
    PolicyOverflowError,
    ValidationError,
)
from .measurement import (
    STRATEGIES,
    estimate,
    make_allocation,
    shadow_estimate,
    simulate_direct,
    simulate_shadows,
)
from .pauli import ObservableSpec, PauliString
from .propagation import (
    NUMERIC,
    SYMBOLIC,
    TruncationPolicy,
    backpropagate,
    path_stats,
    restrict_sine_order,
    save_artifact,
)
from .states import (
    AllPlus,
    AllZero,
    Dense,
    TrotterEvolvedZero,
    exact_expectation_batch,
)
from .surrogate import SurrogateEvaluator, bound_mse_truncation
from .taylor import (
    build_taylor,
    derivative_growth_gamma,
    eval_taylor,
    evaluation_budget_bound,
    exact_oracle,
    sampled_oracle,
    taylor_bounds,
    unique_derivative_count,
)

SEED_ENV = "PAULIPATCH_SEED"


# --- manifest and CSV plumbing --------------------------------------------------------


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    timings: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    @property
    def manifest_id(self) -> str:
        config = {k: v for k, v in self.config.items() if k != "out"}
        canonical = json.dumps(
            {"command": self.command, "config": config, "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def write(self, out_path: str) -> None:
        doc = {
            "manifest_id": self.manifest_id,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "timings": self.timings,
            "outputs": self.outputs,
            "versions": {"paulipatch": __version__, "numpy": np.__version__},
        }
        with open(out_path + ".manifest.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str, header: list[str], rows: list[tuple], manifest: RunManifest) -> None:
    with open(path, "w") as fh:
        fh.write(f"# manifest={manifest.manifest_id}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    manifest.outputs.append(os.path.basename(path))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_state(spec: str, n: int):
    """Parse ``--state``: all-zero | all-plus | dense:FILE | trotter:FILE."""
    if spec == "all-zero":
        return AllZero(n)
    if spec == "all-plus":
        return AllPlus(n)
    if spec.startswith("dense:"):
        state = Dense.from_binary_file(spec[len("dense:"):])
        if state.n != n:
            raise ValidationError(f"dense state has n={state.n}, expected {n}")
        return state
    if spec.startswith("trotter:"):
        prep = parse_circuit(_read(spec[len("trotter:"):]))
        if prep.n != n:
            raise ValidationError(f"preparation circuit has n={prep.n}, expected {n}")
        return TrotterEvolvedZero(prep)
    raise ValidationError(f"unknown state spec {spec!r}")


def _load_topology(spec: str) -> Topology:
    """Parse ``--topology``: chain:N | grid:RxC | heavyhex127."""
    if spec == "heavyhex127":
        return heavyhex127()
    if spec.startswith("chain:"):
        return chain(int(spec[len("chain:"):]))
    if spec.startswith("grid:"):
        rows, cols = spec[len("grid:"):].lower().split("x")
        return grid(int(rows), int(cols))
    raise ValidationError(f"unknown topology {spec!r}")


# --- commands ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    manifest = RunManifest("build", _echo(args), args.seed)
    circuit = parse_circuit(_read(args.circuit))
    obs = parse_observable(_read(args.observable), n=circuit.n)
    policy = TruncationPolicy(kappa=args.kappa, max_weight=args.max_weight,
                              path_cap=args.path_cap)
    t0 = time.perf_counter()
    po = backpropagate(circuit, obs, policy, mode=SYMBOLIC)
    manifest.timings["build_s"] = time.perf_counter() - t0
    save_artifact(po, args.out)
    manifest.outputs.append(os.path.basename(args.out))
    manifest.write(args.out)
    stats = path_stats(po)
    print(json.dumps(stats, indent=1))
    if any(g.param.is_fixed for g in circuit.rotations):
        # a fixed rotation branches without raising the sine count: the bound does not hold
        print(f"surviving paths {stats['paths_surviving']}")
    else:
        print(f"surviving paths {stats['paths_surviving']} vs per-Pauli bound "
              f"{stats['bound_exp_per_pauli']:.3g} (x {stats['n_paulis_initial']} Paulis)")
    return 0


def cmd_rmse_sweep(args) -> int:
    manifest = RunManifest("rmse-sweep", _echo(args), args.seed)
    circuit = parse_circuit(_read(args.circuit))
    obs = parse_observable(_read(args.observable), n=circuit.n)
    state = _load_state(args.state, circuit.n)

    rng = np.random.Generator(np.random.Philox(args.seed))
    t0 = time.perf_counter()
    full = backpropagate(circuit, obs,
                         TruncationPolicy(kappa=args.kappa_max, max_weight=args.max_weight),
                         mode=SYMBOLIC)
    manifest.timings["build_s"] = time.perf_counter() - t0

    rows = []
    m_rot = len(circuit.rotations)
    for r in args.r:
        alphas = rng.uniform(-r, r, size=(args.samples, circuit.m))
        t0 = time.perf_counter()
        exact = exact_expectation_batch(circuit, alphas, obs, state)
        manifest.timings[f"oracle_s_r{r:g}"] = time.perf_counter() - t0
        for kappa in range(args.kappa_max + 1):
            po = restrict_sine_order(full, kappa)
            ev = SurrogateEvaluator(po, state)
            approx = ev.values(alphas)
            rmse = float(np.sqrt(np.mean((approx - exact) ** 2)))
            try:
                bound = math.sqrt(bound_mse_truncation(m_rot, r, kappa, obs.norm1).value)
            except HypothesisViolationError:
                bound = float("nan")
            rows.append((r, kappa, po.n_paulis, ev.n_monomials, rmse, bound))
    write_csv(args.out, ["r", "kappa", "n_paulis", "n_monomials", "rmse", "bound_rmse"],
              rows, manifest)
    manifest.write(args.out)
    return 0


def cmd_shot_compare(args) -> int:
    manifest = RunManifest("shot-compare", _echo(args), args.seed)
    circuit = parse_circuit(_read(args.circuit))
    obs = parse_observable(_read(args.observable), n=circuit.n)
    state = _load_state(args.state, circuit.n)

    po = backpropagate(circuit, obs,
                       TruncationPolicy(kappa=args.kappa, max_weight=args.max_weight),
                       mode=SYMBOLIC)
    ev = SurrogateEvaluator(po, state)
    rng = np.random.Generator(np.random.Philox(args.seed))
    r = args.r
    if r > 0:
        alphas = rng.uniform(-r, r, size=(args.alpha_draws, circuit.m))
    else:
        alphas = np.zeros((1, circuit.m))
    exact = exact_expectation_batch(circuit, alphas, obs, state)
    approx = ev.values(alphas)
    rmse_trunc = float(np.sqrt(np.mean((approx - exact) ** 2)))
    coeff_rows = ev.coefficient_rows(alphas)

    rows = []
    for strategy in args.strategies:
        if strategy == "abs-coeff":
            raise ValidationError(
                "abs-coeff targets single-point estimation; patch comparison "
                "strategies are uniform, eff1norm-avg, eff1norm-worst, shadows"
            )
        for shots in args.shots:
            sq_sum = 0.0
            count = 0
            for rep in range(args.repeats):
                seed = int(rng.integers(2**31 - 1))
                if strategy == "shadows":
                    records = simulate_shadows(state, shots, seed)
                    d_est = np.array([shadow_estimate(records, p) for p in ev.paulis])
                    for a_idx in range(alphas.shape[0]):
                        est = float(coeff_rows[a_idx] @ d_est)
                        sq_sum += (est - exact[a_idx]) ** 2
                        count += 1
                else:
                    plan = make_allocation(strategy, shots,
                                           coeffs={p: 1.0 for p in ev.paulis},
                                           surrogate=po, r=max(r, 1e-6))
                    records = simulate_direct(state, plan, seed)
                    for a_idx in range(alphas.shape[0]):
                        coeffs = dict(zip(ev.paulis, coeff_rows[a_idx]))
                        est = estimate(records, coeffs, plan)
                        sq_sum += (est - exact[a_idx]) ** 2
                        count += 1
            rows.append((strategy, shots, math.sqrt(sq_sum / count), rmse_trunc,
                         po.n_paulis))
    write_csv(args.out, ["strategy", "shots", "rmse_total", "rmse_truncation", "n_paulis"],
              rows, manifest)
    manifest.write(args.out)
    return 0


def cmd_kz_scan(args) -> int:
    manifest = RunManifest("kz-scan", _echo(args), args.seed)
    top = _load_topology(args.topology)
    i, j = args.obs_edge
    if (min(i, j), max(i, j)) not in top.edges:
        raise ValidationError(f"({i},{j}) is not an edge of the topology")
    obs = ObservableSpec.single(
        PauliString.from_letters("ZZ", (i, j), top.n)
    )
    policy = TruncationPolicy(kappa=args.kappa, max_weight=args.max_weight)
    plus = AllPlus(top.n)
    rows = []
    for ramp_kind in args.ramp:
        for t_f in args.tf:
            fixed = args.layers is not None
            layers = args.layers if fixed else max(1, round(t_f / args.dt))
            dt = t_f / layers if fixed else args.dt
            circuit = build_tfi_trotter(top, layers=layers, dt=dt,
                                        ramp=RampSpec(ramp_kind, t_f), binding="fixed")
            t0 = time.perf_counter()
            po = backpropagate(circuit, obs, policy, mode=NUMERIC)
            build_s = time.perf_counter() - t0
            manifest.timings[f"build_s_{ramp_kind}_tf{t_f:g}"] = build_s
            t0 = time.perf_counter()
            value = po.expectation(plus)
            manifest.timings[f"eval_s_{ramp_kind}_tf{t_f:g}"] = time.perf_counter() - t0
            rows.append((ramp_kind, t_f, layers, 1.0 - value,
                         math.sqrt(po.norm2_sq()), po.n_paulis))
    write_csv(args.out, ["ramp", "t_f", "layers", "n_def", "retained_norm2", "n_paulis"],
              rows, manifest)
    manifest.write(args.out)
    return 0


def cmd_taylor(args) -> int:
    manifest = RunManifest("taylor", _echo(args), args.seed)
    circuit = parse_circuit(_read(args.circuit))
    obs = parse_observable(_read(args.observable), n=circuit.n)
    state = _load_state(args.state, circuit.n)
    center = (np.array(documents.numbers(_read(args.center), "center"))
              if args.center else np.zeros(circuit.m))
    if center.shape != (circuit.m,):
        raise ValidationError(f"center has {center.shape[0]} entries, expected {circuit.m}")
    oracle = (sampled_oracle(circuit, obs, state, args.shots, args.seed)
              if args.shots is not None else exact_oracle(circuit, obs, state))

    t0 = time.perf_counter()
    ts = build_taylor(oracle, center, args.order)
    manifest.timings["build_s"] = time.perf_counter() - t0

    from scipy.stats import qmc

    gamma = derivative_growth_gamma(circuit)
    sampler = qmc.Sobol(d=circuit.m, scramble=True,
                        seed=np.random.Generator(np.random.Philox(args.seed)))
    points = center + (2.0 * sampler.random(args.scan_points) - 1.0) * args.r
    exact = exact_expectation_batch(circuit, points, obs, state)
    approx = np.array([eval_taylor(ts, p) for p in points])
    max_err = float(np.max(np.abs(approx - exact)))
    bound = taylor_bounds("worst", circuit.m, args.r, args.order, gamma, obs.norm1)

    with open(args.out, "w") as fh:
        fh.write(ts.to_json())
    manifest.outputs.append(os.path.basename(args.out))
    report = {
        "max_scan_error": max_err,
        "worst_case_bound": bound.value,
        "gamma": gamma,
        "unique_derivatives": unique_derivative_count(circuit.m, args.order),
        "evaluations": ts.ledger.evaluations,
        "evaluation_budget": evaluation_budget_bound(circuit.m, args.order,
                                                     ts.ledger.n_d_max),
    }
    report_path = args.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    manifest.outputs.append(os.path.basename(report_path))
    manifest.write(args.out)
    print(json.dumps(report, indent=1))
    return 0


# --- argument parsing --------------------------------------------------------------------


def _option(convert, accept, what: str):
    """An argparse type: ``convert`` the text, and refuse a value ``accept`` turns down."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _comma_list(item):
    """An argparse type: a comma list of ``item`` values."""
    return lambda text: [item(part) for part in text.split(",")]


_COUNT = _option(int, lambda value: value >= 1, "an integer >= 1")
_ORDER = _option(int, lambda value: value >= 0, "an integer >= 0")
_POSITIVE = _option(float, lambda value: 0 < value < math.inf, "a finite number > 0")
_HALF_WIDTH = _option(float, lambda value: 0 <= value < math.inf, "a finite number >= 0")
_RAMP = _option(str, RAMP_KINDS.__contains__, "a ramp: " + ", ".join(RAMP_KINDS))
_SHOT_STRATEGIES = (*STRATEGIES, "shadows")
_STRATEGY = _option(str, _SHOT_STRATEGIES.__contains__,
                    "a strategy: " + ", ".join(_SHOT_STRATEGIES))


def _topology(spec: str) -> str:
    """A ``--topology`` spec that ``_load_topology`` reads."""
    try:
        _load_topology(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected chain:N, grid:RxC or heavyhex127, got {spec!r}") from None
    return spec


def _echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get(SEED_ENV, "2024")),
                   help=f"rng seed (default from ${SEED_ENV} or 2024)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulipatch",
        description="Surrogate and simulate patches of quantum expectation landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="back-propagate symbolically and write an artifact")
    p.add_argument("--circuit", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--kappa", type=int, default=None, help="max sine order")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--path-cap", type=int, default=None)
    p.add_argument("--out", required=True, help="artifact path (.json or .json.gz)")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rmse-sweep", help="truncation RMSE vs exact over patches")
    p.add_argument("--circuit", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--state", default="all-zero",
                   help="all-zero | all-plus | dense:FILE | trotter:FILE")
    p.add_argument("--r", type=_comma_list(_HALF_WIDTH), required=True,
                   help="comma list of patch half-widths")
    p.add_argument("--kappa-max", type=_ORDER, required=True, dest="kappa_max")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--samples", type=_COUNT, default=200)
    p.add_argument("--out", required=True, help="CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_rmse_sweep)

    p = sub.add_parser("shot-compare", help="total RMSE per allocation strategy and budget")
    p.add_argument("--circuit", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--state", default="all-zero")
    p.add_argument("--strategies", type=_comma_list(_STRATEGY), default="uniform,eff1norm-avg",
                   help="comma list: uniform,abs-coeff,eff1norm-avg,eff1norm-worst,shadows")
    p.add_argument("--shots", type=_comma_list(_COUNT), required=True,
                   help="comma list of shot budgets")
    p.add_argument("--repeats", type=_COUNT, default=10)
    p.add_argument("--alpha-draws", type=_COUNT, default=20, dest="alpha_draws")
    p.add_argument("--r", type=_HALF_WIDTH, default=0.1,
                   help="patch half-width; 0 compares at the center alone")
    p.add_argument("--kappa", type=int, default=6)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_shot_compare)

    p = sub.add_parser("kz-scan", help="defect density vs annealing time per ramp")
    p.add_argument("--topology", type=_topology, required=True,
                   help="chain:N | grid:RxC | heavyhex127")
    p.add_argument("--dt", type=_POSITIVE, default=0.3)
    p.add_argument("--layers", type=_COUNT, default=None,
                   help="fixed layer count (dt then becomes t_f/layers); default t_f/dt")
    p.add_argument("--ramp", type=_comma_list(_RAMP), default="linear",
                   help="comma list: linear,square,tanh")
    p.add_argument("--tf", type=_comma_list(_POSITIVE), required=True,
                   help="comma list of final times")
    p.add_argument("--obs-edge", type=int, nargs=2, required=True, dest="obs_edge")
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_kz_scan)

    p = sub.add_parser("taylor", help="build a Taylor patch surrogate and report errors")
    p.add_argument("--circuit", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--state", default="all-zero")
    p.add_argument("--center", default=None, help="JSON file with the center vector")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--shots", type=_COUNT, default=None,
                   help="per-evaluation shot budget (default: exact oracle)")
    p.add_argument("--r", type=_HALF_WIDTH, default=0.05, help="scan half-width")
    p.add_argument("--scan-points", type=_COUNT, default=128, dest="scan_points")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_taylor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolicyOverflowError as exc:
        print(f"policy overflow: {exc}", file=sys.stderr)
        if exc.stats is not None:
            print(json.dumps(exc.stats.as_dict(), indent=1), file=sys.stderr)
        return 3
    except OracleCapError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, ConfigError, HypothesisViolationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
