"""Command line front end: run experiments, compare variants, verify runs.

Configuration is one JSON document:

    {
      "problem": {"builtin": "affine-monotone-small"},
      "noise":   {"kind": "gaussian", "sd": 0.1},
      "solver":  {"variant": "risfbf", "alpha_bar": 0.1, "nu": 0.01,
                  "max_iters": 5000, "tol": 1e-6,
                  "batch": {"scale": 1.0, "growth": 1.2}},
      "seed": 0, "reps": 10, "out": "results"
    }

The problem source is exactly one of "builtin" (named test game),
"instance" (inline instance document), "instance_path" (path to an
instance document), or "cournot" (generator settings). "noise" may be
null, which selects the instance's own sampling model when it has one
and exact gradients otherwise. "variants" or "alpha_sweep" select the
families run by the compare command.

Commands: run, compare, verify, gen cournot. Exit codes: 0 success,
1 failed checks or a failed run, 2 invalid configuration (with a JSON
error object on stderr). The GNES_LOG environment variable sets the
log level.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError, DimensionMismatchError, GnesError, check_field_types, is_list, is_number,
    read_section,
)
from .instances import builtin_document, load_document
from .solver import VARIANTS, SolverParams, diagnostics_check, run, solve_ground_truth
from .stochastic import (
    AdditiveGaussianOracle,
    BatchSchedule,
    SamplingOracle,
    ZeroNoiseOracle,
)

logger = logging.getLogger(__name__)

_SOURCES = ("builtin", "instance", "instance_path", "cournot")
_NOISE_KINDS = ("zero", "gaussian")


@dataclass
class RunConfig:
    """One fully validated experiment description.

    Each field is checked on construction, so the Python API refuses
    what a configuration document refuses, naming the same field.
    problem is required and solver defaults to SolverParams(); variants
    and alpha_sweep are stored as tuples. Every replication seed, seed
    to seed + reps - 1, must fit in an unsigned 64-bit word.
    """

    problem: dict | None = None
    solver: SolverParams = dataclasses.field(default_factory=SolverParams)
    noise: dict | None = None
    seed: int = 0
    reps: int = 1
    out: str = "out"
    variants: tuple[str, ...] | None = None
    alpha_sweep: tuple[float, ...] | None = None

    def __post_init__(self):
        check_field_types(self, skip=("problem", "noise", "variants", "alpha_sweep"), coerce=True)
        if self.problem is None:
            raise ConfigurationError("a problem source is required", field="problem")
        if len(read_section(self.problem, _SOURCES, "problem")) != 1:
            raise ConfigurationError(
                f"problem must contain exactly one of: {', '.join(_SOURCES)}",
                field="problem",
            )
        if not isinstance(self.solver, SolverParams):
            raise ConfigurationError("solver must be a SolverParams", field="solver")
        noise = self.noise
        if noise is not None:
            if read_section(noise, ("kind", "sd"), "noise").get("kind") not in _NOISE_KINDS:
                raise ConfigurationError(
                    f"noise kind must be one of: {', '.join(_NOISE_KINDS)}", field="noise"
                )
            if "sd" in noise and (noise["kind"] == "zero" or not is_number(noise["sd"])):
                raise ConfigurationError(
                    "zero noise takes no parameters; gaussian takes sd, a finite number",
                    field="noise",
                )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in an unsigned 64-bit word", field="seed")
        if self.reps < 1:
            raise ConfigurationError("replication count must be >= 1", field="reps")
        if self.seed + self.reps - 1 >= 2**64:
            raise ConfigurationError("the last seed, seed + reps - 1, must fit in 64 bits", field="reps")
        if self.variants is not None:
            if not is_list(self.variants):
                raise ConfigurationError("variants must be a list", field="variants")
            self.variants = tuple(self.variants)
            bad = [str(v) for v in self.variants if v not in VARIANTS]
            if bad:
                raise ConfigurationError(f"unknown variants: {', '.join(bad)}", field="variants")
        sweep = self.alpha_sweep
        if sweep is not None:
            if not (is_list(sweep) and all(map(is_number, sweep))):
                raise ConfigurationError(
                    "alpha_sweep must be a list of finite numbers", field="alpha_sweep"
                )
            self.alpha_sweep = sweep = tuple(map(float, sweep))
            if not sweep:
                raise ConfigurationError("the inertia sweep is empty", field="alpha_sweep")
            if any(not 0.0 <= a < 1.0 for a in sweep):
                raise ConfigurationError(
                    "inertia sweep values must lie in [0, 1)", field="alpha_sweep"
                )
            if self.variants is not None:
                raise ConfigurationError(
                    "give either variants or alpha_sweep, not both", field="variants"
                )


def _parse_solver(doc) -> SolverParams:
    kwargs = dict(read_section(doc, SolverParams, "solver"))
    if "batch" in kwargs:
        try:
            kwargs["batch"] = BatchSchedule(**read_section(kwargs["batch"], BatchSchedule, "batch"))
        except ConfigurationError as exc:
            raise ConfigurationError(str(exc), field="batch") from None
    return SolverParams(**kwargs)


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw configuration document into a RunConfig."""
    doc = copy.deepcopy(read_section(doc, RunConfig, "config"))
    if "solver" in doc:
        doc["solver"] = _parse_solver(doc["solver"])
    return RunConfig(**doc)


def serialize_config(config: RunConfig) -> dict:
    """JSON-ready document; parse(serialize(c)) == c."""
    return dataclasses.asdict(config)


def resolve_problem(config: RunConfig, allow_nonmonotone: bool = False):
    """Build (problem, graph, instance oracle or None) from the source."""
    src = config.problem
    if "builtin" in src:
        doc = builtin_document(str(src["builtin"]))
    elif "instance" in src:
        doc = copy.deepcopy(src["instance"])
    elif "instance_path" in src:
        doc = _read_json(str(src["instance_path"]))
    else:
        doc = {"kind": "cournot", "config": copy.deepcopy(src["cournot"])}
    if isinstance(doc, dict) and doc.get("kind") == "cournot" and allow_nonmonotone:
        cfg = doc.get("config")
        if isinstance(cfg, dict):
            doc = dict(doc, config=dict(cfg, allow_nonmonotone=True))
    return load_document(doc)


def resolve_oracle(config: RunConfig, problem, instance_oracle) -> SamplingOracle:
    """Pick the sampling model: explicit noise section, else instance default."""
    noise = config.noise
    if noise is None:
        if instance_oracle is not None:
            return instance_oracle
        return ZeroNoiseOracle(problem)
    if noise["kind"] == "zero":
        return ZeroNoiseOracle(problem)
    return AdditiveGaussianOracle(problem, sd=float(noise.get("sd", 0.1)))


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        # mkstemp makes the file private; give it the mode that opening
        # the path directly would have given under the current umask
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


_TRACE_HEADER = ["k", "r_psi", "res", "consensus_gap", "feas_gap", "step_norm"]
_DIAG_HEADER = ["dm", "dn", "h", "delta"]


def trace_rows(trace, report=None):
    """CSV rows of a trace; recursion columns appended when a report is given."""
    rows = []
    for i, k in enumerate(trace.ks):
        row = [
            k,
            trace.r_psi[i],
            trace.res[i],
            trace.consensus_gap[i],
            trace.feas_gap[i],
            trace.step_norm[i],
        ]
        if report is not None:
            if k < len(report.dm):
                row.extend([report.dm[k], report.dn[k], report.h[k], report.delta[k]])
            else:
                row.extend([math.nan] * 4)
        rows.append(row)
    return rows


def write_trace(path: str, trace, report=None):
    header = _TRACE_HEADER + (_DIAG_HEADER if report is not None else [])
    write_csv(path, header, trace_rows(trace, report))


def _replications(problem, graph, oracle, params, config: RunConfig, reference=None):
    """Run the replications with seeds base, base + 1, ...: (r, trace, summary row).

    reference is passed to every run, for the recursion checks of a
    diagnostics run.
    """
    for r in range(config.reps):
        seed = config.seed + r
        t0 = time.perf_counter()
        _, trace = run(problem, graph, oracle, params, seed=seed, reference=reference)
        wall = time.perf_counter() - t0
        yield r, trace, {
            "seed": seed,
            "iterations": trace.iterations,
            "final_r_psi": trace.final_r_psi,
            "final_res": trace.final_res,
            "final_consensus_gap": trace.final_consensus_gap,
            "final_feas_gap": trace.final_feas_gap,
            "wall_time_s": wall,
            "trace_hash": trace.state_hash,
        }


def _aggregate_rows(traces) -> list:
    """Mean and min/max envelopes of res and r_psi on the shared iteration grid."""
    length = min(len(t.ks) for t in traces)
    grid = traces[0].ks[:length]
    for t in traces[1:]:
        if t.ks[:length] != grid:
            raise ConfigurationError(
                "replications recorded different iteration grids", field="trace_every"
            )
    res = np.array([t.res[:length] for t in traces])
    r_psi = np.array([t.r_psi[:length] for t in traces])
    rows = []
    for i, k in enumerate(grid):
        rows.append([
            k,
            res[:, i].mean(), res[:, i].min(), res[:, i].max(),
            r_psi[:, i].mean(), r_psi[:, i].min(), r_psi[:, i].max(),
        ])
    return rows


_AGGREGATE_HEADER = [
    "k",
    "res_mean", "res_min", "res_max",
    "r_psi_mean", "r_psi_min", "r_psi_max",
]


def cmd_run(config: RunConfig, allow_nonmonotone: bool = False) -> int:
    """One variant, R replications with consecutive seeds, CSV + JSON output."""
    problem, graph, instance_oracle = resolve_problem(config, allow_nonmonotone)
    oracle = resolve_oracle(config, problem, instance_oracle)
    params = config.solver
    reference = None
    if params.diagnostics:
        reference, _ = solve_ground_truth(problem, graph)
    out = config.out
    traces = []
    replications = []
    for r, trace, summary in _replications(problem, graph, oracle, params, config, reference):
        report = diagnostics_check(trace, reference) if reference is not None else None
        write_trace(os.path.join(out, f"trace_rep{r}.csv"), trace, report)
        traces.append(trace)
        replications.append(summary)
        print(
            f"rep {r} seed {summary['seed']}: iterations={trace.iterations} "
            f"res={trace.final_res:.6e} r_psi={trace.final_r_psi:.6e}"
        )
    write_csv(os.path.join(out, "aggregate.csv"), _AGGREGATE_HEADER, _aggregate_rows(traces))
    write_json(os.path.join(out, "summary.json"), {
        "command": "run",
        "config": serialize_config(config),
        "replications": replications,
        "wall_time_s": sum(r["wall_time_s"] for r in replications),
    })
    print(f"wrote {os.path.join(out, 'summary.json')}")
    return 0


def _compare_points(config: RunConfig) -> list:
    # compare reads no recursion checks, so its runs evaluate none
    base = dataclasses.replace(config.solver, diagnostics=False)
    if config.variants is not None:
        if len(config.variants) < 2:
            raise ConfigurationError(
                "compare needs at least two variants or an inertia sweep",
                field="variants",
            )
        return [
            (v, dataclasses.replace(base, variant=v))
            for v in config.variants
        ]
    if config.alpha_sweep is not None:
        # fixed full relaxation; outside the coupled schedule, so the
        # admissibility precheck is advisory for these points
        return [
            (
                f"risfbf_a{a:g}",
                dataclasses.replace(
                    base,
                    variant="risfbf",
                    alpha_bar=a,
                    rho_fixed=1.0,
                    enforce_admissibility=False,
                ),
            )
            for a in config.alpha_sweep
        ]
    raise ConfigurationError(
        "compare needs a variants list or an alpha_sweep", field="variants"
    )


def cmd_compare(config: RunConfig, allow_nonmonotone: bool = False) -> int:
    """Variant families on one instance and shared seeds, long-format CSV."""
    points = _compare_points(config)
    problem, graph, instance_oracle = resolve_problem(config, allow_nonmonotone)
    oracle = resolve_oracle(config, problem, instance_oracle)
    out = config.out
    rows = []
    families = []
    for label, params in points:
        replications = []
        for r, trace, summary in _replications(problem, graph, oracle, params, config):
            for i, k in enumerate(trace.ks):
                rows.append([label, r, k, trace.res[i], trace.r_psi[i]])
            replications.append(summary)
        families.append({
            "variant": label,
            "alpha_bar": params.alpha_bar,
            "replications": replications,
        })
        final = np.array([rep["final_res"] for rep in replications])
        print(f"{label}: mean final res={final.mean():.6e}")
    write_csv(
        os.path.join(out, "compare.csv"),
        ["variant", "replication", "k", "res", "r_psi"],
        rows,
    )
    write_json(os.path.join(out, "summary.json"), {
        "command": "compare",
        "config": serialize_config(config),
        "families": families,
    })
    print(f"wrote {os.path.join(out, 'summary.json')}")
    return 0


def _least(slacks: np.ndarray) -> float:
    """Smallest slack of a check, its margin; 0.0 for a run without iterations."""
    return float(slacks.min()) if slacks.size else 0.0


def cmd_verify(config: RunConfig, allow_nonmonotone: bool = False) -> int:
    """Check the per-iteration recursion inequalities along one run."""
    params = dataclasses.replace(config.solver, diagnostics=True, trace_every=1)
    problem, graph, instance_oracle = resolve_problem(config, allow_nonmonotone)
    oracle = resolve_oracle(config, problem, instance_oracle)
    reference, _ = solve_ground_truth(problem, graph)
    _, trace = run(problem, graph, oracle, params, seed=config.seed, reference=reference)
    report = diagnostics_check(trace, reference)
    tol = report.tol

    checks = [
        ("fundamental_recursion", report.fr_violations, _least(report.fr_slack)),
        ("step_residual_bound", report.yzg_violations, _least(report.yzg_slack)),
        ("energy_nonnegative", report.h_violations, _least(report.h)),
        ("coupling", report.coupling_violations, _least(-report.coupling)),
    ]
    # only Y_k passes through the resolvent each iteration; the relaxed
    # X_{k+1} and the extrapolated Z_k can dip below zero in the
    # multiplier block, so the sign check applies to Y_k alone
    floors = np.array(trace.recursion.multiplier_floor, dtype=np.float64)
    checks.append(("multiplier_sign", np.flatnonzero(floors < -tol), _least(floors)))
    if isinstance(oracle, ZeroNoiseOracle) and trace.r_psi:
        progress = trace.r_psi[0] - trace.final_r_psi
        checks.append(("residual_progress", np.flatnonzero([progress < -tol]), progress))

    failed = []
    print(f"{'check':<24}{'violations':>12}{'worst_slack':>16}  status")
    for name, violations, worst in checks:
        bad = len(violations) > 0
        status = "FAIL" if bad else "pass"
        print(f"{name:<24}{len(violations):>12}{worst:>16.3e}  {status}")
        if bad:
            failed.append((name, violations, worst))
    for name, violations, worst in failed:
        print(f"{name}: first violation at k={int(violations[0])}, worst slack {worst:.6e}")

    out = config.out
    write_trace(os.path.join(out, "verify_trace.csv"), trace, report)
    write_json(os.path.join(out, "verify_report.json"), {
        "command": "verify",
        "config": serialize_config(config),
        "iterations": trace.iterations,
        "final_r_psi": trace.final_r_psi,
        "final_res": trace.final_res,
        "trace_hash": trace.state_hash,
        "tolerance": tol,
        "checks": [
            {
                "name": name,
                "violations": int(len(violations)),
                "first_violation_k": int(violations[0]) if len(violations) else None,
                "worst_slack": worst,
            }
            for name, violations, worst in checks
        ],
    })
    return 1 if failed else 0


def cmd_gen_cournot(seed: int | None, out: str | None, base: dict | None,
                    allow_nonmonotone: bool = False) -> int:
    """Emit a benchmark instance document for the given generator seed."""
    from .cournot import CournotConfig

    overrides = {} if seed is None else {"seed": seed}
    if allow_nonmonotone:
        overrides["allow_nonmonotone"] = True
    config = CournotConfig.from_settings({} if base is None else base, **overrides)
    doc = {"kind": "cournot", "config": dataclasses.asdict(config)}
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)
        print(f"wrote {out}")
    return 0


def _load_config(args) -> RunConfig:
    """The --config document with the command line overrides written into it."""
    if args.config is None:
        raise ConfigurationError("--config is required", field="config")
    doc = _read_json(args.config)
    if isinstance(doc, dict):
        for name in ("seed", "out", "reps"):
            if getattr(args, name) is not None:
                doc[name] = getattr(args, name)
        solver = doc.setdefault("solver", {})
        if isinstance(solver, dict):
            if args.variant is not None:
                solver["variant"] = args.variant
            if args.diagnostics:
                solver["diagnostics"] = True
    return parse_config(doc)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration document")
    common.add_argument("--seed", type=int, help="base replication seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--variant", choices=VARIANTS, help="solver variant override")
    common.add_argument("--reps", type=int, metavar="R", help="replication count")
    common.add_argument("--diagnostics", action="store_true",
                        help="check the recursion inequalities along the run "
                             "and emit their columns")
    common.add_argument("--allow-nonmonotone", action="store_true",
                        help="permit generator settings that break monotonicity")

    parser = argparse.ArgumentParser(
        prog="gnes",
        description="Distributed equilibrium seeking under shared constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run one variant over replications")
    sub.add_parser("compare", parents=[common], help="run variant or inertia families")
    sub.add_parser("verify", parents=[common], help="check recursion inequalities")
    gen = sub.add_parser("gen", help="emit instance documents")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_cournot = gen_sub.add_parser("cournot", help="market benchmark instance")
    gen_cournot.add_argument("--seed", type=int, help="generator seed")
    gen_cournot.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    gen_cournot.add_argument("--config", metavar="PATH",
                             help="JSON with generator settings to start from")
    gen_cournot.add_argument("--allow-nonmonotone", action="store_true",
                             help="permit generator settings that break monotonicity")
    return parser


def _configure_logging():
    level_name = os.environ.get("GNES_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            base = _read_json(args.config) if args.config else None
            return cmd_gen_cournot(args.seed, args.out, base, args.allow_nonmonotone)
        config = _load_config(args)
        if args.command == "run":
            return cmd_run(config, args.allow_nonmonotone)
        if args.command == "compare":
            return cmd_compare(config, args.allow_nonmonotone)
        return cmd_verify(config, args.allow_nonmonotone)
    except (ConfigurationError, DimensionMismatchError) as exc:
        _emit_error(exc)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    except GnesError as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", None)
    if field is not None:
        payload["field"] = field
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
