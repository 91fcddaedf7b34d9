"""Configuration schema, command entry points, exit codes, and output files."""

import copy
import csv
import dataclasses
import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnes.cli import RunConfig, main, parse_config, serialize_config
from gnes.errors import ConfigurationError
from gnes.instances import builtin_document
from gnes.solver import SolverParams


def base_doc(**overrides):
    doc = {
        "problem": {"builtin": "affine-tiny"},
        "solver": {"variant": "sfbf", "max_iters": 50, "tol": 0.0},
        "seed": 0,
        "reps": 1,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


ROUND_TRIP_DOCS = [
    base_doc(),
    base_doc(solver={"variant": "risfbf", "alpha_bar": 0.2, "steps": [0.1, 0.1, 0.2]}),
    base_doc(problem={"builtin": "affine-two-firms"}, solver={"steps": [[0.1, 0.2], 0.1, 0.1]}),
    base_doc(solver={"batch": {"scale": 2.0, "growth": 1.5}}, noise={"kind": "zero"}),
    base_doc(noise={"kind": "gaussian", "sd": 0.25}, reps=3, out="elsewhere"),
    base_doc(variants=["risfbf", "sfbf", "sfb"]),
    base_doc(alpha_sweep=[0.0, 0.1, 0.3]),
    base_doc(seed=2**64 - 2, reps=2),
    {"problem": {"builtin": "affine-tiny"}},
]


@pytest.mark.parametrize("doc", ROUND_TRIP_DOCS)
def test_config_round_trip(doc):
    config = parse_config(doc)
    assert parse_config(serialize_config(config)) == config


_TOP_LEVEL_FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {"solver"}


def config_entry_points(field):
    """parse_config, and for a top-level field also a direct RunConfig call."""
    yield parse_config
    if field in _TOP_LEVEL_FIELDS:
        yield lambda doc: RunConfig(**dict(doc, solver=SolverParams(**doc["solver"])))


def assert_fields(cases):
    for doc, field in cases:
        for entry in config_entry_points(field):
            with pytest.raises(ConfigurationError) as info:
                entry(doc)
            assert info.value.field == field, (entry, doc)


def test_config_rejections():
    no_problem = base_doc()
    del no_problem["problem"]
    cases = [
        (base_doc(extra=1), "config"),
        ({**base_doc(), 1: 0, "x": 0}, "config"),
        (base_doc(solver=None), "solver"),
        (no_problem, "problem"),
        (base_doc(problem=None), "problem"),
        (base_doc(solver={"gamma": 0.1}), "solver"),
        (base_doc(problem={}), "problem"),
        (base_doc(problem={"builtin": "affine-tiny", "cournot": {}}), "problem"),
        (base_doc(problem={"source": "affine-tiny"}), "problem"),
        (base_doc(noise={"kind": "poisson"}), "noise"),
        (base_doc(noise={"kind": "zero", "sd": 0.1}), "noise"),
        (base_doc(noise={"kind": "gaussian", "mean": 1.0}), "noise"),
        (base_doc(seed=-1), "seed"),
        (base_doc(seed=2**64), "seed"),
        (base_doc(reps=0), "reps"),
        (base_doc(seed=2**64 - 1, reps=2), "reps"),
        (base_doc(variants=["sfbf", "newton"]), "variants"),
        (base_doc(alpha_sweep=[0.5, 1.0]), "alpha_sweep"),
        (base_doc(alpha_sweep=[]), "alpha_sweep"),
        (base_doc(variants=["risfbf", "sfbf"], alpha_sweep=[0.1]), "variants"),
        (base_doc(solver={"steps": [0.1, 0.2]}), "steps"),
        (base_doc(solver={"batch": {"scale": 1.0, "rate": 2.0}}), "batch"),
        (base_doc(solver={"batch": [1.0, 2.0]}), "batch"),
    ]
    assert_fields(cases)


def test_config_type_errors_name_the_field():
    cases = [
        (base_doc(seed="abc"), "seed"),
        (base_doc(seed=1.5), "seed"),
        (base_doc(reps=True), "reps"),
        (base_doc(solver={"max_iters": "10"}), "max_iters"),
        (base_doc(solver={"alpha_bar": "0.1"}), "alpha_bar"),
        (base_doc(solver={"tol_res": [1e-4]}), "tol_res"),
        (base_doc(solver={"diagnostics": "yes"}), "diagnostics"),
        (base_doc(solver={"steps": [0.1, "a", 0.1]}), "steps"),
        (base_doc(solver={"steps": "fast"}), "steps"),
        (base_doc(solver={"batch": {"scale": "1"}}), "batch"),
        (base_doc(noise={"kind": "gaussian", "sd": "0.1"}), "noise"),
        (base_doc(variants="risfbf"), "variants"),
        (base_doc(alpha_sweep=[0.1, None]), "alpha_sweep"),
        (base_doc(alpha_sweep=[10**400]), "alpha_sweep"),
        (base_doc(out=3), "out"),
        (base_doc(reps=2.0), "reps"),
        (base_doc(problem=["builtin"]), "problem"),
        (base_doc(noise="gaussian"), "noise"),
    ]
    assert_fields(cases)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_FUZZ_PATHS = [
    ("problem",), ("problem", "builtin"), ("solver",), ("noise",), ("noise", "kind"),
    ("noise", "sd"), ("seed",), ("reps",), ("out",), ("variants",), ("alpha_sweep",),
    ("unknown",),
] + [("solver", name) for name in (
    "variant", "alpha_bar", "nu", "steps", "max_iters", "tol", "tol_res", "batch",
    "diagnostics", "trace_every", "rho_fixed", "rho_scale", "enforce_admissibility",
)] + [("solver", "batch", "scale"), ("solver", "batch", "growth")]


@settings(max_examples=300, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(_FUZZ_PATHS), _JSON_VALUES | st.just(KeyError)),
        min_size=1, max_size=3,
    ),
)
def test_parse_config_raises_only_configuration_errors(mutations):
    doc = base_doc(
        solver={"variant": "risfbf", "steps": [0.1, 0.1, 0.1], "batch": {"scale": 1.0}},
        noise={"kind": "gaussian", "sd": 0.1},
        alpha_sweep=[0.0, 0.1],
    )
    for path, value in mutations:
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if value is KeyError:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value)
    try:
        config = parse_config(doc)
    except ConfigurationError:
        return
    assert isinstance(config, RunConfig)


def test_command_line_overrides_equal_file_values(tmp_path, capsys):
    out = str(tmp_path / "d")
    doc = base_doc(solver={"variant": "risfbf", "max_iters": 20, "tol": 0.0})
    flags = ["--seed", "3", "--reps", "2", "--variant", "sfbf", "--out", out]
    assert main(["run", "--config", write_config(tmp_path, doc)] + flags) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        from_flags = json.load(fh)["config"]
    doc = base_doc(solver={"variant": "sfbf", "max_iters": 20, "tol": 0.0}, seed=3, reps=2, out=out)
    assert main(["run", "--config", write_config(tmp_path, doc, "file.json")]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["config"] == from_flags


def test_config_type_error_exits_2_with_json_error(tmp_path, capsys):
    for doc, field in (
        (base_doc(seed="abc"), "seed"),
        (base_doc(solver={"max_iters": "10"}), "max_iters"),
        (base_doc(solver={"alpha_bar": "0.1"}), "alpha_bar"),
    ):
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert err["field"] == field


def _affine_doc(**changes):
    """affine-monotone-small with keys replaced, or dropped when the value is None."""
    doc = builtin_document("affine-monotone-small")
    for key, value in changes.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


_M = builtin_document("affine-monotone-small")["M"]
_MALFORMED_AFFINE = {
    "string in M": (_affine_doc(M=[["x"] + _M[0][1:]] + _M[1:]), "M"),
    "ragged M": (_affine_doc(M=[_M[0][:-1]] + _M[1:]), "M"),
    "M not a matrix": (_affine_doc(M={"a": 1.0}), "M"),
    "NaN in M": (_affine_doc(M=[[math.nan] + _M[0][1:]] + _M[1:]), "M"),
    "infinite M": (_affine_doc(M=[[math.inf] + _M[0][1:]] + _M[1:]), "M"),
    "NaN in q": (_affine_doc(q=[math.nan, -1.0, -1.5, -1.0, -1.0, -0.5]), "q"),
    "short q": (_affine_doc(q=[-2.0, -1.0]), "q"),
    "dims a string": (_affine_doc(dims="abc"), "dims"),
    "fractional dims": (_affine_doc(dims=[2.5, 2, 1.5]), "dims"),
    "boolean dims": (_affine_doc(dims=[True, 2, 2]), "dims"),
    "num_constraints a string": (_affine_doc(num_constraints="two"), "num_constraints"),
    "lipschitz_ell a string": (_affine_doc(lipschitz_ell="x"), "lipschitz_ell"),
    "short box_lo": (_affine_doc(box_lo=[[0.0, 0.0], [0.0, 0.0]]), "box_lo"),
    "string box entry": (_affine_doc(box_hi=[[1.0, 1.0], [1.0, 1.0], "x"]), "box_hi"),
    "NaN box bound": (_affine_doc(box_hi=[[math.nan, 1.0], [1.0, 1.0], [1.0, 1.0]]), "box_hi"),
    "string in b": (_affine_doc(b=[["a", 4.0], [0.4, 4.0], [0.4, 4.0]]), "b"),
    "missing D": (_affine_doc(D=None), "D"),
    "graph weights a string": (_affine_doc(graph={"weights": "abc"}), "graph"),
    "graph weight a string": (_affine_doc(graph={"name": "ring", "weight": "heavy"}), "graph"),
    "graph not a mapping": (_affine_doc(graph=3), "graph"),
    "negative graph seed": (_affine_doc(graph={"name": "erdos-renyi", "p": 0.5, "seed": -1}), "seed"),
    "instance not a mapping": (3, "instance"),
    "misspelt lipschitz_ell": (_affine_doc(lipschitz_el=50.0), "instance"),
    "misspelt graph weight": (_affine_doc(graph={"name": "ring", "wieght": 2.0}), "graph"),
    "graph weights and a name": (
        _affine_doc(graph={"weights": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                           "name": "ring"}),
        "graph",
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_AFFINE))
def test_malformed_affine_document_exits_2_with_json_error(tmp_path, capsys, name):
    doc, field = _MALFORMED_AFFINE[name]
    out = tmp_path / "o"
    path = write_config(tmp_path, base_doc(problem={"instance": doc}, out=str(out)))
    assert main(["run", "--config", path]) == 2
    text = capsys.readouterr().err
    assert "Traceback" not in text
    err = json.loads(text)
    assert (err["error"], err["field"]) == ("ConfigurationError", field)
    assert not out.exists()


def test_overflowing_batch_schedule_exits_2_with_json_error(tmp_path, capsys):
    # (k + 1)^300 overflows a float after about ten iterations
    out = tmp_path / "o"
    doc = base_doc(
        problem={"builtin": "affine-two-firms"},
        solver={"max_iters": 50, "batch": {"growth": 300}},
        noise={"kind": "gaussian", "sd": 0.1},
        out=str(out),
    )
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    text = capsys.readouterr().err
    assert "Traceback" not in text
    err = json.loads(text)
    assert (err["error"], err["field"]) == ("ConfigurationError", "batch")
    assert not out.exists()


def test_infinite_box_bound_in_affine_document_runs(tmp_path, capsys):
    doc = _affine_doc(box_lo=[[-math.inf, 0.0], [0.0, 0.0], [0.0, 0.0]])
    path = write_config(tmp_path, base_doc(problem={"instance": doc}, out=str(tmp_path / "o")))
    assert main(["run", "--config", path]) == 0


@pytest.mark.parametrize("settings,field", [
    ({"seed": "abc"}, "seed"),
    ({"participation": 5}, "participation"),
    ({"demand_q": "x"}, "demand_q"),
    ({"cost_sd": -1.0}, "cost_sd"),
])
def test_cournot_setting_type_error_exits_2_and_writes_nothing(tmp_path, capsys, settings, field):
    out = tmp_path / "o"
    doc = base_doc(problem={"cournot": settings}, out=str(out))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("ConfigurationError", field)
    assert not out.exists()
    inst = tmp_path / "inst.json"
    gen = write_config(tmp_path, settings, "settings.json")
    assert main(["gen", "cournot", "--config", gen, "--out", str(inst)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("ConfigurationError", field)
    assert not inst.exists()


@pytest.mark.parametrize("settings,field", [
    ({"cap_mean": -100.0, "cap_sd": 0.0}, "cap_mean"),
    ({"cap_mean": 0.0, "cap_sd": 0.0, "cap_floor": -10.0}, "cap_mean"),
    ({"cap_mean": 0.0, "cap_sd": 50.0, "cap_floor": -10.0}, "cap_floor"),
])
def test_capacities_without_room_exit_2_naming_the_setting(tmp_path, capsys, settings, field):
    # every box the single point 0 names cap_mean; a negative capacity
    # (an empty box [0, cap]) names cap_floor
    out = tmp_path / "o"
    doc = base_doc(problem={"cournot": settings}, out=str(out))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    text = capsys.readouterr().err
    assert "Traceback" not in text
    err = json.loads(text)
    assert (err["error"], err["field"]) == ("ConfigurationError", field)
    assert not out.exists()


def test_cournot_settings_that_are_not_a_mapping_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    doc = base_doc(problem={"cournot": [1]}, out=str(out))
    path = write_config(tmp_path, doc)
    gen = write_config(tmp_path, [1], "settings.json")
    for argv in (["run", "--config", path, "--allow-nonmonotone"], ["gen", "cournot", "--config", gen]):
        assert main(argv) == 2
        text = capsys.readouterr().err
        assert "Traceback" not in text
        assert json.loads(text)["field"] == "config"
    assert not out.exists()


def test_output_files_follow_the_umask(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_doc(out=str(out)))
    previous = os.umask(0o022)
    try:
        assert main(["run", "--config", path]) == 0
    finally:
        os.umask(previous)
    for name in ("trace_rep0.csv", "aggregate.csv", "summary.json"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644, name
    # no partial files are left behind
    assert sorted(os.listdir(out)) == ["aggregate.csv", "summary.json", "trace_rep0.csv"]


def test_run_writes_traces_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_doc(reps=2, out=str(out)))
    assert main(["run", "--config", path]) == 0
    header, rows = read_csv(out / "trace_rep0.csv")
    assert header == ["k", "r_psi", "res", "consensus_gap", "feas_gap", "step_norm"]
    assert (out / "trace_rep1.csv").exists()
    agg_header, agg_rows = read_csv(out / "aggregate.csv")
    assert agg_header == [
        "k", "res_mean", "res_min", "res_max", "r_psi_mean", "r_psi_min", "r_psi_max",
    ]
    assert len(agg_rows) == len(rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "run"
    assert len(summary["replications"]) == 2
    assert summary["replications"][0]["seed"] == 0
    assert summary["replications"][1]["seed"] == 1
    for rep in summary["replications"]:
        assert set(rep) >= {"iterations", "final_res", "final_r_psi", "trace_hash"}
    assert "rep 0 seed 0" in capsys.readouterr().out


def test_run_with_diagnostics_adds_columns(tmp_path):
    out = tmp_path / "out"
    doc = base_doc(
        solver={"variant": "risfbf", "alpha_bar": 0.1, "max_iters": 40, "tol": 0.0},
        out=str(out),
    )
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path, "--diagnostics"]) == 0
    header, rows = read_csv(out / "trace_rep0.csv")
    assert header == [
        "k", "r_psi", "res", "consensus_gap", "feas_gap", "step_norm",
        "dm", "dn", "h", "delta",
    ]
    assert all(len(r) == 10 for r in rows)


def test_cli_overrides_beat_config(tmp_path):
    out = tmp_path / "alt"
    path = write_config(tmp_path, base_doc(out=str(tmp_path / "ignored")))
    code = main([
        "run", "--config", path, "--seed", "7", "--reps", "2",
        "--out", str(out), "--variant", "sfb",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["config"]["reps"] == 2
    assert summary["config"]["solver"]["variant"] == "sfb"
    assert summary["replications"][0]["seed"] == 7


def test_compare_variants(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(
        problem={"builtin": "affine-monotone-small"},
        solver={"alpha_bar": 0.1, "max_iters": 30, "tol": 0.0, "trace_every": 10},
        variants=["risfbf", "sfbf", "sfb"],
        reps=2,
        out=str(out),
        noise={"kind": "gaussian", "sd": 0.05},
    )
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["variant", "replication", "k", "res", "r_psi"]
    labels = sorted({r[0] for r in rows})
    assert labels == ["risfbf", "sfb", "sfbf"]
    # 3 variants x 2 replications x 3 recorded iterations
    assert len(rows) == 18
    summary = json.loads((out / "summary.json").read_text())
    assert [f["variant"] for f in summary["families"]] == ["risfbf", "sfbf", "sfb"]
    assert "mean final res" in capsys.readouterr().out


def test_compare_inertia_sweep(tmp_path):
    out = tmp_path / "out"
    doc = base_doc(
        solver={"max_iters": 20, "tol": 0.0, "trace_every": 10},
        alpha_sweep=[0.0, 0.05, 0.2],
        out=str(out),
    )
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path]) == 0
    _, rows = read_csv(out / "compare.csv")
    assert sorted({r[0] for r in rows}) == ["risfbf_a0", "risfbf_a0.05", "risfbf_a0.2"]
    summary = json.loads((out / "summary.json").read_text())
    assert [f["alpha_bar"] for f in summary["families"]] == [0.0, 0.05, 0.2]


def test_compare_needs_a_family(tmp_path, capsys):
    path = write_config(tmp_path, base_doc(out=str(tmp_path / "o")))
    assert main(["compare", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "variants"
    single = write_config(
        tmp_path, base_doc(variants=["sfbf", "sfbf"], out=str(tmp_path / "o")), "c2.json"
    )
    assert main(["compare", "--config", single]) == 0


def test_verify_passes_on_sound_configuration(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(
        problem={"builtin": "affine-monotone-small"},
        solver={"variant": "risfbf", "alpha_bar": 0.1, "max_iters": 60, "tol": 0.0},
        noise={"kind": "gaussian", "sd": 0.05},
        out=str(out),
    )
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 0
    text = capsys.readouterr().out
    for name in (
        "fundamental_recursion", "step_residual_bound", "energy_nonnegative",
        "coupling", "multiplier_sign",
    ):
        assert name in text
    assert "FAIL" not in text
    header, rows = read_csv(out / "verify_trace.csv")
    assert header[-4:] == ["dm", "dn", "h", "delta"]
    # trace_every is forced to 1 for the check
    assert len(rows) == 60
    report = json.loads((out / "verify_report.json").read_text())
    assert report["command"] == "verify"
    assert all(c["violations"] == 0 for c in report["checks"])
    assert all(c["first_violation_k"] is None for c in report["checks"])


def test_verify_reports_real_margins(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(
        problem={"builtin": "affine-two-firms"},
        solver={"variant": "risfbf", "alpha_bar": 0.1, "max_iters": 60, "tol": 0.0},
        noise={"kind": "gaussian", "sd": 0.05},
        out=str(out),
    )
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    report = json.loads((out / "verify_report.json").read_text())
    margins = {c["name"]: c["worst_slack"] for c in report["checks"]}
    # a passing check reports how far its tightest iteration stays from the bound
    for name in ("fundamental_recursion", "step_residual_bound", "energy_nonnegative", "coupling"):
        assert margins[name] > 0.0, name


def test_verify_reports_zero_noise_progress(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(
        solver={"variant": "sfbf", "max_iters": 50, "tol": 0.0},
        noise={"kind": "zero"},
        out=str(out),
    )
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 0
    assert "residual_progress" in capsys.readouterr().out


def test_verify_flags_broken_relaxation(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(
        problem={"builtin": "affine-monotone-small"},
        solver={
            "variant": "risfbf", "alpha_bar": 0.1, "max_iters": 60, "tol": 0.0,
            "rho_scale": 2.0, "enforce_admissibility": False,
        },
        out=str(out),
    )
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "coupling: first violation at k=" in text
    report = json.loads((out / "verify_report.json").read_text())
    coupling = next(c for c in report["checks"] if c["name"] == "coupling")
    assert coupling["violations"] > 0
    assert coupling["first_violation_k"] is not None


def test_verify_rejects_plain_forward_backward(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_doc(solver={"variant": "sfb"}, out=str(out)))
    assert main(["verify", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("ConfigurationError", "variant")
    assert not out.exists()
    assert main(["run", "--config", path, "--diagnostics"]) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "variant"
    assert not out.exists()


def test_compare_with_diagnostics_runs_a_forward_backward_family(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_doc(variants=["risfbf", "sfb"], out=str(out))
    path = write_config(tmp_path, doc)
    assert main(["compare", "--config", path, "--diagnostics"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [f["variant"] for f in summary["families"]] == ["risfbf", "sfb"]
    assert summary["config"]["solver"]["diagnostics"] is True


def test_gen_then_run(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "cournot", "--seed", "5", "--out", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    assert doc["kind"] == "cournot"
    assert doc["config"]["seed"] == 5
    capsys.readouterr()
    out = tmp_path / "out"
    run_doc = base_doc(
        problem={"instance_path": str(inst)},
        solver={"variant": "sfbf", "max_iters": 10, "tol": 0.0, "trace_every": 5},
        out=str(out),
    )
    path = write_config(tmp_path, run_doc)
    assert main(["run", "--config", path]) == 0
    assert (out / "summary.json").exists()


def test_gen_writes_to_stdout(capsys):
    assert main(["gen", "cournot", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 2


def test_error_exit_codes(tmp_path, capsys):
    assert main(["run"]) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "config"
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()
    unknown = write_config(tmp_path, base_doc(problem={"builtin": "no-such-game"}))
    assert main(["run", "--config", unknown]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "message" in err
    seeded = write_config(tmp_path, base_doc(), "ok.json")
    assert main(["run", "--config", seeded, "--seed", "-3"]) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "seed"
    assert main(["run", "--config", seeded, "--reps", "0"]) == 2
    capsys.readouterr()
    number = tmp_path / "number.json"
    number.write_text("3")
    cournot = {"kind": "cournot", "config": {"seed": 0}, "extra": 1}
    for problem in ({"instance_path": str(number)}, {"instance": cournot}):
        path = write_config(tmp_path, base_doc(problem=problem), "instance.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        text = capsys.readouterr().err
        assert "Traceback" not in text
        assert json.loads(text)["field"] == "instance"
