"""End-to-end tests of the JSON-config benchmark harness."""

import csv
import json
import math
import os
from itertools import zip_longest

import pytest

from uapd import cli, problems
from uapd.cli import main
from uapd.flow import integrate
from uapd.solver import SolverConfig, TRACE_COLUMNS, solve

import helpers


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def qp_config(**overrides):
    cfg = {
        "instance": {"kind": "synthetic_qp", "n": 8, "m": 3, "mu": 0.5, "seed": 12},
        "solver": {"max_iterations": 50},
        "output": "smoke",
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_solve_writes_trace_and_summary(tmp_path):
    cfg = write_config(tmp_path / "run.json", qp_config())
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "smoke_trace.csv")
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == 52  # header + K + 1 records
    for row in rows[1:]:
        for cell in row:
            if cell:
                assert math.isfinite(float(cell))
    with open(tmp_path / "out" / "smoke_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["variant"] == "uapd"
    assert summary["iterations"] == 50
    assert summary["instance_kind"] == "synthetic_qp"
    assert summary["seed"] == 12
    assert summary["line_search_total"] >= 0
    assert math.isfinite(summary["objective"])
    assert math.isfinite(summary["final_beta"])


def test_solve_is_deterministic_up_to_wall_time(tmp_path):
    cfg = write_config(tmp_path / "run.json", qp_config())
    assert main(["solve", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", cfg, "--out", str(tmp_path / "b")]) == 0
    rows_a = read_csv(tmp_path / "a" / "smoke_trace.csv")
    rows_b = read_csv(tmp_path / "b" / "smoke_trace.csv")
    wall = list(TRACE_COLUMNS).index("wall_time_s")
    for ra, rb in zip(rows_a, rows_b):
        stripped_a = [c for i, c in enumerate(ra) if i != wall]
        stripped_b = [c for i, c in enumerate(rb) if i != wall]
        assert stripped_a == stripped_b


def test_solve_zero_budget_gives_initial_record_only(tmp_path):
    cfg = write_config(tmp_path / "run.json",
                       qp_config(solver={"max_iterations": 0}))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "smoke_trace.csv")
    assert len(rows) == 2
    assert rows[1][0] == "0"


def test_solve_fixed_tolerance_variant(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        qp_config(variant="fixed_tolerance", eps=1e-3))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "smoke_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["variant"] == "fixed_tolerance"
    assert summary["eps"] == pytest.approx(1e-3)


def test_uapd_summary_omits_the_eps_it_does_not_use(tmp_path):
    cfg = write_config(tmp_path / "run.json", qp_config(variant="uapd", eps=1))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "smoke_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["variant"] == "uapd"
    assert "eps" not in summary


def test_instance_can_come_from_a_relative_path(tmp_path):
    write_config(tmp_path / "inst.json",
                 {"kind": "matrix_game", "m": 5, "n": 7, "seed": 3})
    cfg = write_config(tmp_path / "run.json",
                       {"instance": "inst.json",
                        "solver": {"max_iterations": 20}, "output": "game"})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "game_trace.csv")
    assert len(rows) == 22


def test_instance_can_be_a_serialized_snapshot(tmp_path):
    game = problems.make_matrix_game(4, 6, seed=9)
    snapshot = problems.instance_to_dict(game)
    cfg = write_config(tmp_path / "run.json",
                       {"instance": snapshot, "solver": {"max_iterations": 15},
                        "output": "snap"})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "snap_trace.csv")


def test_instance_file_errors_exit_2_with_one_error_line(tmp_path, capsys):
    (tmp_path / "inst.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"kind": "caf\u00e9"}'.encode("latin-1"))
    (tmp_path / "inst_dir").mkdir()
    for name, message in (("inst.json", "not valid JSON"), ("absent.json", "not found"),
                          ("latin1.json", "not valid JSON"), ("inst_dir", "cannot read")):
        cfg = write_config(tmp_path / "run.json", {"instance": name})
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert name in err


@pytest.mark.parametrize("out", ["a_file", "a_file/below"])
def test_unusable_out_exits_2_before_solving(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path / "run.json", qp_config())
    assert main(["solve", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--out" in err and err.count("\n") == 1
    assert calls == []


def test_operator_norm_overflow_exits_2_with_one_error_line(tmp_path, capsys):
    doc = problems.instance_to_dict(problems.make_basis_pursuit(1, 2, seed=2, sparsity=1))
    doc["A"] = [[1.7e308, 1e308]]  # ||A|| exceeds the float range
    cfg = write_config(tmp_path / "run.json", {"instance": doc})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1


def test_beta0_is_an_unknown_solver_field(tmp_path, capsys):
    # the paper fixes beta0, delta's scale and the cap; the instance owns mu and ||A||
    for name in ("beta0", "mu", "A_norm", "delta_scale", "line_search_cap"):
        cfg = write_config(tmp_path / "run.json", qp_config(solver={name: 1.0}))
        assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown solver fields ['{name}']\n"
    # a variant is spelled by its name only; a dict exits 2 like any unknown name
    cfg = write_config(tmp_path / "run.json",
                       qp_config(variant={"name": "fixed_tolerance", "eps": 1e-3}))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown variant") and err.count("\n") == 1


def test_instance_document_missing_a_stored_field_exits_2(tmp_path, capsys):
    doc = problems.instance_to_dict(problems.make_basis_pursuit(4, 9, seed=2, sparsity=2))
    del doc["b"]
    cfg = write_config(tmp_path / "run.json", {"instance": doc})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'b'" in err and err.count("\n") == 1


BAD_DOCUMENTS = helpers.bad_instance_documents()


@pytest.mark.parametrize("doc, field", [case[1:] for case in BAD_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS])
def test_document_with_a_bad_stored_field_exits_2_naming_it(tmp_path, capsys, doc, field):
    cfg = write_config(tmp_path / "run.json", {"instance": doc, "output": "bad"})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad instance description: {field} ")
    assert err.count("\n") == 1 and not list(tmp_path.glob("bad_*"))


def test_matrix_game_document_with_a_geometry_string_exits_2(tmp_path, capsys):
    doc = problems.instance_to_dict(problems.make_matrix_game(3, 4, seed=1))
    doc["geometry"] = "euclidean"  # a recipe spells it so; a document holds a dict
    cfg = write_config(tmp_path / "run.json", {"instance": doc})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'geometry'" in err and err.count("\n") == 1


def test_document_field_its_kind_does_not_read_exits_2(tmp_path, capsys):
    doc = problems.instance_to_dict(problems.make_basis_pursuit(4, 9, seed=2, sparsity=2))
    cfg = write_config(tmp_path / "run.json", {"instance": {**doc, "mu": 0.7}, "output": "bad"})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'mu'" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("bad_*"))
    # instance_to_dict writes mu = 0.0 for every kind: its default loads
    cfg = write_config(tmp_path / "run.json", {"instance": doc, "solver": {"max_iterations": 3}})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["solve", "flow"])
def test_wrong_length_saddle_vector_exits_2_before_solving(tmp_path, capsys, command):
    doc = problems.instance_to_dict(problems.make_synthetic_qp(8, 3, mu=0.5, seed=12))
    for name, vector in (("x_star", doc["x_star"][:-1]), ("lam_star", doc["lam_star"] + [0.0])):
        cfg = write_config(tmp_path / "run.json",
                           qp_config(instance={**doc, name: vector},
                                     flow={"t_end": 0.1, "dt": 0.01}, output=name))
        assert main([command, cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "known_saddle" in err and err.count("\n") == 1
        assert not list(tmp_path.glob(f"{name}_*"))


def test_missing_field_errors_name_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {"solver": {}})
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "instance" in capsys.readouterr().err

    cfg = write_config(tmp_path / "run2.json", qp_config(flow={"dt": 0.1}))
    assert main(["flow", cfg, "--out", str(tmp_path)]) == 2
    assert "flow.t_end" in capsys.readouterr().err

    cfg = write_config(tmp_path / "run3.json", qp_config(flow={"t_end": 1.0}))
    assert main(["flow", cfg, "--out", str(tmp_path)]) == 2
    assert "flow.dt" in capsys.readouterr().err


def test_config_validation_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(bad_json)]) == 2

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output": "caf\u00e9"}'.encode("latin-1"))
    assert main(["solve", str(latin1)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    (tmp_path / "cfg_dir").mkdir()
    assert main(["solve", str(tmp_path / "cfg_dir")]) == 2
    assert "cannot read" in capsys.readouterr().err

    listy = write_config(tmp_path / "list.json", [1, 2, 3])
    assert main(["solve", listy]) == 2

    cfg = write_config(tmp_path / "unknown.json",
                       qp_config(solver={"max_iterations": 5, "turbo": True}))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "turbo" in capsys.readouterr().err

    cfg = write_config(tmp_path / "variant.json", qp_config(variant="sgd"))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2

    cfg = write_config(tmp_path / "noeps.json",
                       qp_config(variant="fixed_tolerance"))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    assert "eps" in capsys.readouterr().err

    cfg = write_config(tmp_path / "badinst.json",
                       qp_config(instance={"kind": "mystery"}))
    assert main(["solve", cfg, "--out", str(tmp_path)]) == 2
    capsys.readouterr()

    # caught before any solve and before --out is created
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "never"
    for name, overrides, named in (
            ("misspelt", {"varient": "fixed_tolerance"}, "varient"),
            ("subdir", {"output": "sub/run"}, "sub/run"),
            ("number", {"output": 7}, "7"),
            ("empty", {"output": ""}, "output"),
            ("nul", {"output": "a\0b"}, "output")):
        cfg = write_config(tmp_path / f"{name}.json", qp_config(**overrides))
        assert main(["solve", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("bounds", {"bounds": {"fit_window": [5]}}),
    ("bounds", {"bounds": {"fit_window": "ab"}}),
    ("solve", {"solver": {"max_iterations": "5"}}),
    ("flow", {"flow": {"t_end": 1.0, "dt": "small"}}),
    ("flow", {"flow": {"t_end": "long", "dt": 0.1}}),
    ("solve", {"variant": "fixed_tolerance", "eps": "tiny"}),
    ("solve", {"instance": {"kind": "basis_pursuit", "m": 3, "n": 8, "seed": 0,
                            "sparsity": 2, "mu": 0.7}}),
    ("flow", {"flow": {"t_end": 1.0, "dt": 0}}),
    ("flow", {"flow": {"t_end": -1.0, "dt": 0.1}}),
    ("flow", {"flow": {"t_end": 0.1, "dt": 1.0}}),
    ("flow", {"flow": {"t_end": 1e300, "dt": 1e-300}}),
    # 1e30 + 1 points lie past numpy's intp range: refused before any allocation
    ("flow", {"flow": {"t_end": 1e30, "dt": 1.0}}),
    ("solve", {"instance": {"kind": "steiner", "m": 6, "n": 3, "seed": 4},
               "solver": {"gap_target": 1e-3}}),
], ids=["fit_window_short", "fit_window_string", "max_iterations_string",
        "flow_dt_string", "flow_t_end_string", "eps_string", "recipe_field_not_read",
        "flow_dt_zero", "flow_t_end_negative", "flow_no_whole_step", "flow_step_count_overflow",
        "flow_grid_past_intp", "gap_target_without_optimum"])
def test_malformed_sections_exit_2_with_one_error_line(tmp_path, capsys, command,
                                                       overrides):
    cfg = write_config(tmp_path / "run.json", qp_config(**overrides))
    assert main([command, cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("smoke_*"))


def test_compare_writes_merged_csv(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        {"instance": {"kind": "matrix_game", "m": 6, "n": 8, "seed": 4},
         "solver": {"max_iterations": 60}, "eps": 1e-3, "output": "cmp"})
    assert main(["compare", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "cmp_compare.csv")
    assert rows[0] == ["k", "f_UAPD", "f_base", "M_UAPD", "M_base",
                       "ik_UAPD", "ik_base"]
    assert len(rows) == 62
    for row in rows[1:]:
        assert all(math.isfinite(float(c)) for c in row if c)
    with open(tmp_path / "cmp_compare_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["eps"] == pytest.approx(1e-3)
    assert summary["uapd"]["iterations"] == 60
    assert summary["fixed_tolerance"]["iterations"] == 60
    assert summary["uapd"]["line_search_total"] >= 0


def test_flow_command_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path / "run.json",
                       qp_config(flow={"t_end": 0.5, "dt": 0.05},
                                 solver={"gamma0": 1.0}))
    assert main(["flow", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "smoke_flow.csv")
    assert rows[0] == ["t", "lyapunov", "et_lyapunov", "feasibility"]
    assert len(rows) == 12
    # scaled column never rises above its start
    scaled = [float(r[2]) for r in rows[1:]]
    assert max(scaled) <= scaled[0] * (1.0 + 1e-9)


def test_flow_command_rejects_nonsmooth_instances(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.json",
        {"instance": {"kind": "matrix_game", "m": 4, "n": 5, "seed": 1},
         "flow": {"t_end": 1.0, "dt": 0.1}, "output": "bad"})
    assert main(["flow", cfg, "--out", str(tmp_path)]) == 1
    assert "differentiable" in capsys.readouterr().err


def test_bounds_command_overlays_envelope(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        {"instance": {"kind": "synthetic_qp", "n": 8, "m": 3, "mu": 0.0,
                      "seed": 12},
         "solver": {"max_iterations": 300}, "output": "env"})
    assert main(["bounds", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "env_bounds.csv")
    assert rows[0] == ["k", "beta", "envelope"]
    assert len(rows) == 302
    with open(tmp_path / "env_bounds_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["nu"] == 1.0
    assert summary["fit_window"] == [10, 100]
    assert summary["fit_constant"] > 0
    assert isinstance(summary["precondition_issues"], list)
    assert summary["beta_slope"] < -0.5
    # the scaled envelope dominates beta on the fit window by construction
    for row in rows[1:]:
        k, beta, env = int(row[0]), float(row[1]), float(row[2])
        if 10 <= k <= 100:
            assert beta <= env * (1.0 + 1e-12)


def test_bounds_command_accepts_overrides(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        {"instance": {"kind": "matrix_game", "m": 4, "n": 5, "seed": 2},
         "solver": {"max_iterations": 120},
         "bounds": {"nu": 0.0, "fit_window": [5, 60]}, "output": "game"})
    assert main(["bounds", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "game_bounds_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["nu"] == 0.0
    assert summary["fit_window"] == [5, 60]
    # M_nu falls back to the subgradient bound of the instance's certificate
    game = problems.make_matrix_game(4, 5, seed=2)
    assert summary["M_nu"] == pytest.approx(game.holder[1])


@pytest.mark.parametrize("section", [
    {"nu": 1.5}, {"nu": -0.5}, {"M_nu": -3}, {"M_nu": 0}, {"nu": 0.5},
    {"fit_window": [0, 10]}, {"fit_window": [-5, 10]}, {"fit_window": [10.5, 20]},
], ids=["nu-above-1", "nu-below-0", "negative-M_nu", "zero-M_nu", "nu-without-its-M_nu",
        "window-from-0", "window-from-negative", "fractional-window"])
def test_bounds_command_rejects_a_malformed_section_with_exit_2(tmp_path, capsys, section):
    # a nu other than the certificate's needs its own M_nu; k = 0 has no log
    cfg = write_config(tmp_path / "run.json",
                       {"instance": {"kind": "synthetic_qp", "n": 8, "m": 3, "mu": 0.0,
                                     "seed": 12},
                        "solver": {"max_iterations": 50}, "bounds": section, "output": "bad"})
    assert main(["bounds", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'bounds." in err and err.count("\n") == 1
    assert not (tmp_path / "bad_bounds.csv").exists()


def test_bounds_default_window_needs_ten_iterations(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", qp_config(solver={"max_iterations": 5}))
    assert main(["bounds", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the default fit_window [10, 100] needs at least 10 iterations, "
                   "the run made 5\n")
    assert not list(tmp_path.glob("smoke_*"))


def test_bounds_command_reads_the_steiner_certificate(tmp_path):
    cfg = write_config(tmp_path / "run.json",
                       {"instance": {"kind": "steiner", "m": 6, "n": 3, "seed": 4},
                        "solver": {"max_iterations": 120}, "output": "steiner"})
    assert main(["bounds", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "steiner_bounds_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert (summary["nu"], summary["M_nu"]) == (0.0, 12.0)
    assert summary["fit_window"] == [10, 100]


def csv_cell(value):
    """The csv module's default cell: empty for None, repr for a float, str otherwise."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def test_every_command_writes_one_csv_dialect(tmp_path):
    qp = {"kind": "synthetic_qp", "n": 8, "m": 3, "mu": 0.5, "seed": 12}
    # the targets stop the two compare variants at different k
    solver = {"max_iterations": 400, "feasibility_target": 1e-2, "gap_target": 1e-2}
    instance, config = problems.load_instance(qp), SolverConfig(**solver)
    _, trace = solve(instance, config)
    _, trace_eps = solve(instance, config, fixed_eps=1e-2)
    assert len(trace) != len(trace_eps)
    trajectory = integrate(instance, t_end=0.5, dt=0.05,
                           gamma0=config.resolved(instance).gamma0)

    def f_value(record):
        return record.objective if record.f_residual is None else record.f_residual

    compare = [[str((ra or rb).k)] + [csv_cell(None if r is None else get(r))
                                      for get in (f_value, lambda r: r.M_k, lambda r: r.i_k)
                                      for r in (ra, rb)]
               for ra, rb in zip_longest(trace, trace_eps)]
    expected = {
        "solve": [[csv_cell(getattr(r, name)) for name in TRACE_COLUMNS if name != "wall_time_s"]
                  for r in trace],
        "compare": compare,
        "flow": [[repr(state.t), repr(lyap), repr(math.exp(state.t) * lyap),
                  repr(instance.feasibility(state.x))] for state, lyap in trajectory],
        "bounds": [[str(r.k), repr(r.beta_k)] for r in trace],
    }
    suffixes = {"solve": "trace.csv", "compare": "compare.csv", "flow": "flow.csv",
                "bounds": "bounds.csv"}
    for command, suffix in suffixes.items():
        cfg = write_config(tmp_path / f"{command}.json",
                           {"instance": qp, "solver": solver, "eps": 1e-2, "output": command,
                            "flow": {"t_end": 0.5, "dt": 0.05},
                            "bounds": {"fit_window": [5, 50]}})
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 0
        path = tmp_path / "out" / f"{command}_{suffix}"
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), command
        rows = read_csv(path)[1:]
        if command == "solve":
            wall = TRACE_COLUMNS.index("wall_time_s")
            rows = [row[:wall] + row[wall + 1:] for row in rows]
        elif command == "bounds":
            rows = [row[:2] for row in rows]
        assert rows == expected[command], command
