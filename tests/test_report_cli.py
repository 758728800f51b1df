"""Report serialization, suite configuration round-trips, CLI front-end."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from kolkin import (
    CheckRecord,
    InvalidData,
    IoError,
    LeviConfig,
    SdeConfig,
    SolverConfig,
    SuiteConfig,
    VerificationReport,
    emit_report,
    feynman_kac_estimate,
    load_suite_config,
    named_suite,
    run_verification_suite,
    solve_point,
)
from kolkin.cli import main


def small_report() -> VerificationReport:
    rep = VerificationReport(suite="demo", seed=3, config={"k": 1})
    rep.add(
        CheckRecord(
            name="alpha.check",
            stage="structure",
            passed=True,
            value=0.5,
            target=0.5,
            tolerance=0.1,
            note="fine",
        )
    )
    rep.add(CheckRecord(name="beta.check", stage="kernel", passed=False, value=2.0, target=1.0))
    return rep


def write_fast_config(path, out_dir=None, **overrides) -> dict:
    """A trimmed constant-coefficient suite that runs in seconds."""
    cfg = named_suite("langevin-constant")
    obj = cfg.to_json()
    obj["grids"]["n_probes"] = 3
    obj["modules"]["sde"].update({"n_paths": 4000, "n_steps": 50})
    obj["modules"]["sampler"] = {"levels": 6, "n_base": 12}
    obj["stages"] = ["structure", "kernel", "solver"]
    obj["out"] = None if out_dir is None else str(out_dir)
    obj.update(overrides)
    path.write_text(json.dumps(obj))
    return obj


# ---------------------------------------------------------------------------
# Report model and serialization
# ---------------------------------------------------------------------------


def test_empty_report_passes():
    assert VerificationReport(suite="s", seed=0).overall_pass is True


def test_overall_requires_every_check():
    rep = small_report()
    assert rep.overall_pass is False
    rep.checks[1].passed = True
    assert rep.overall_pass is True


def test_emitted_files_and_csv_shape(tmp_path):
    rep = small_report()
    paths = emit_report(rep, tmp_path)
    for key, fname in (("json", "report.json"), ("csv", "tables.csv"), ("markdown", "report.md")):
        assert paths[key].name == fname
        assert paths[key].exists()
    with open(paths["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(rep.checks)
    assert rows[0][0] == "name"
    md = paths["markdown"].read_text()
    assert "FAIL" in md and "alpha.check" in md


# ---------------------------------------------------------------------------
# Suite configuration

# ---------------------------------------------------------------------------


def test_named_suite_config_round_trips_through_json():
    cfg = named_suite("langevin-sinusoidal")
    rebuilt = type(cfg).from_json(cfg.to_json())
    assert rebuilt.to_json() == cfg.to_json()


def test_config_with_every_field_set_round_trips_through_json():
    cfg = SuiteConfig(
        suite="custom",
        seed=7,
        drift=(0.0, 0.0, 1.0, 0.0),
        coefficients={"family": "constant", "sigma2": 2.0},
        datum={"family": "abs", "axis": 0},
        source={"family": "coordinate", "axis": 1},
        alpha=0.4,
        T=2.0,
        t_ladder=(0.5, 0.25, 0.125, 0.0625),
        probe_box=((-1.0, 1.0), (-0.5, 0.5)),
        n_probes=4,
        t_solve=0.7,
        stages=("structure", "kernel"),
        levi=LeviConfig(depth=3),
        solver=SolverConfig(levi=LeviConfig(depth=1, grading=1.5), terminal_nodes=7),
        sde=SdeConfig(n_paths=500, n_steps=20, seed=3),
        sampler={"levels": 5, "n_base": 8},
        out_dir="reports/custom",
    )
    obj = cfg.to_json()
    rebuilt = SuiteConfig.from_json(json.loads(json.dumps(obj)))
    assert rebuilt.to_json() == obj
    assert rebuilt.drift == cfg.drift and rebuilt.out_dir == cfg.out_dir
    assert rebuilt.solver == cfg.solver and rebuilt.sde == cfg.sde


@pytest.mark.parametrize(
    "path",
    [
        ("suite_name",),
        ("grids", "n_probe"),
        ("modules", "sde", "n_path"),
        ("modules", "sampler", "level"),
        # the sampler's time window is fixed at (0.05 T, 0.9 T)
        ("modules", "sampler", "t_box"),
        ("modules", "solver", "levi", "dept"),
    ],
    ids=["top-level", "grids", "modules.sde", "modules.sampler", "modules.sampler.t_box",
         "modules.solver.levi"],
)
def test_unknown_config_key_is_rejected_naming_it(path):
    obj = named_suite("langevin-constant").to_json()
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 3
    with pytest.raises(InvalidData, match=f"'{path[-1]}'"):
        SuiteConfig.from_json(obj)


def test_cli_rejects_an_unknown_config_key_with_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    obj["modules"]["sde"]["n_path"] = 10
    cfg_path.write_text(json.dumps(obj))
    assert main(["--config", str(cfg_path), "verify"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'n_path'" in err and "modules.sde" in err


def test_bad_sampler_value_is_rejected_at_load(tmp_path, capsys):
    with pytest.raises(InvalidData, match="modules.sampler"):
        named_suite("langevin-constant", sampler={"levels": "x"})
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    obj["modules"]["sampler"]["levels"] = "x"
    cfg_path.write_text(json.dumps(obj))
    assert main(["--config", str(cfg_path), "kernel"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "modules.sampler" in err


@pytest.mark.parametrize(
    "drift, key, section, command",
    [
        ([0.0, 0.0, 1.0, 0.0, 0.0], "drift", "structure", "structure"),
        # chain-3 drift (N = 3) with the default two-row probe box
        ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0], "probe_box", "grids", "solve"),
    ],
    ids=["drift-not-square", "probe-box-rows"],
)
def test_config_shape_mismatch_is_rejected_at_load(tmp_path, capsys, drift, key, section, command):
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    obj["structure"]["drift"] = drift
    with pytest.raises(InvalidData, match=f"'{key}' in config section '{section}'"):
        SuiteConfig.from_json(obj)
    cfg_path.write_text(json.dumps(obj))
    assert main(["--config", str(cfg_path), command]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"'{key}'" in err and section in err


def test_load_suite_config_errors(tmp_path):
    with pytest.raises(IoError):
        load_suite_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidData):
        load_suite_config(bad)


def test_unknown_suite_name_rejected():
    with pytest.raises(InvalidData):
        named_suite("no-such-suite")


# ---------------------------------------------------------------------------
# Failure gating
# ---------------------------------------------------------------------------


def test_rank_violation_gates_all_later_stages(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    # Zero drift cannot propagate diffusion into the degenerate block.
    obj["structure"]["drift"] = [0.0, 0.0, 0.0, 0.0]
    cfg_path.write_text(json.dumps(obj))
    report = run_verification_suite(load_suite_config(cfg_path))
    assert report.overall_pass is False
    assert len(report.checks) == 1
    rec = report.checks[0]
    assert rec.stage == "structure" and not rec.passed
    assert "HormanderViolation" in rec.note


def test_chapman_kolmogorov_survives_an_underflowing_direct_kernel():
    # suite seed 12 draws a composition triple whose direct kernel underflows
    # to 0 in double precision; the check must still produce a report
    cfg = named_suite("langevin-piecewise", seed=12, stages=("structure", "kernel"))
    report = run_verification_suite(cfg)
    ck = [rec for rec in report.checks if rec.name == "kernel.chapman-kolmogorov"]
    assert len(ck) == 1 and ck[0].passed


# ---------------------------------------------------------------------------
# Ladder checks of the blow-up stage
# ---------------------------------------------------------------------------


def _record(report, name):
    return next(rec for rec in report.checks if rec.name == name)


def test_exact_datum_records_the_boundary_noise_floor():
    # u == g == 1 with a zero source: the boundary sups are quadrature noise,
    # so the stage records a pass without a slope instead of fitting one
    cfg = named_suite(
        "langevin-constant", datum={"family": "constant", "value": 1.0},
        source={"family": "constant", "value": 0.0}, stages=("blowup",),
    )
    rec = _record(run_verification_suite(cfg), "blowup.boundary-exponent")
    assert rec.passed and rec.value is None and rec.target == 1.0
    assert rec.note == "boundary increments at quadrature noise floor (exact datum)"


def test_datumless_source_weight_matches_the_potential_stage():
    # with no datum u = -V_{p,f}, so both stages fit the same ladder
    cfg = named_suite(
        "langevin-constant", datum=None, source={"family": "coordinate", "axis": 1},
        stages=("potential", "blowup"),
    )
    report = run_verification_suite(cfg)
    potential = _record(report, "potential.source-weight-exponent")
    blowup = _record(report, "blowup.source-weight-exponent")
    assert potential.passed and blowup.passed
    assert blowup.value == potential.value
    assert [rec.name for rec in report.checks] == [potential.name, blowup.name]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_structure_and_kernel_pass(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_fast_config(cfg_path)
    assert main(["--config", str(cfg_path), "structure"]) == 0
    out = capsys.readouterr().out
    assert "OVERALL: PASS" in out
    assert main(["--config", str(cfg_path), "kernel"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "OVERALL: PASS" in out


def test_cli_verify_emits_reports_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "verify"]) == 0
    capsys.readouterr()
    for fname in ("report.json", "tables.csv", "report.md"):
        assert (out_dir / fname).exists()
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["overall_pass"] is True
    assert {c["stage"] for c in rep["checks"]} == {"structure", "kernel", "solver"}


def test_cli_verify_fails_with_nonzero_exit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    obj["structure"]["drift"] = [0.0, 0.0, 0.0, 0.0]
    cfg_path.write_text(json.dumps(obj))
    assert main(["--config", str(cfg_path), "verify"]) == 1
    assert "OVERALL: FAIL" in capsys.readouterr().out


def test_cli_report_is_byte_deterministic(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "verify"]) == 0
    first = (out_dir / "report.json").read_bytes()
    assert main(["--config", str(cfg_path), "verify"]) == 0
    capsys.readouterr()
    assert (out_dir / "report.json").read_bytes() == first


def test_cli_seed_override_changes_the_report_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir, stages=["structure"])
    assert main(["--config", str(cfg_path), "--out", str(out_dir), "--seed", "11", "verify"]) == 0
    capsys.readouterr()
    assert json.loads((out_dir / "report.json").read_text())["seed"] == 11


def test_cli_solve_writes_samples(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "solve"]) == 0
    out = capsys.readouterr().out
    assert "residual=" in out
    with open(out_dir / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3  # header + n_probes
    assert rows[0][0] == "t" and "residual" in rows[0]


def test_cli_sde_reports_interval(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "sde", "--x", "0.2", "-0.1"]) == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "3-sigma" in out
    assert (out_dir / "terminal.csv").exists()


def test_cli_sde_simulates_the_paths_once(tmp_path, capsys, monkeypatch):
    import kolkin.cli
    import kolkin.sde

    calls = []
    simulate = kolkin.sde.simulate_paths

    def counted(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(kolkin.sde, "simulate_paths", counted)
    monkeypatch.setattr(kolkin.cli, "simulate_paths", counted)
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "sde"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert (out_dir / "terminal.csv").exists()
    cfg = load_suite_config(cfg_path)
    est = feynman_kac_estimate(cfg.problem(), cfg.sde, cfg.t_solve, cfg.probes()[0])
    assert f"estimate {est.mean:+.8f} +- {est.std_error:.2e}" in out


def test_solver_stage_simulates_every_probe_in_one_call(tmp_path, monkeypatch):
    import kolkin.suites

    calls = []
    simulate = kolkin.suites.simulate_paths

    def counted(*args, **kwargs):
        calls.append(np.shape(args[4]))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(kolkin.suites, "simulate_paths", counted)
    cfg_path = tmp_path / "cfg.json"
    write_fast_config(cfg_path, stages=["solver"])
    cfg = load_suite_config(cfg_path)
    report = run_verification_suite(cfg)
    assert calls == [(3, 2)]
    # the bundled oracle gives each probe the estimate it gets on its own
    pb = cfg.problem()
    worst = max(
        abs(solve_point(pb, cfg.solver, cfg.t_solve, x).u - fk.mean) / max(fk.std_error, 1e-12)
        for x in cfg.probes()
        for fk in [feynman_kac_estimate(pb, cfg.sde, cfg.t_solve, x)]
    )
    rec = next(c for c in report.checks if c.name == "solver.oracle-agreement")
    assert rec.value == worst


def test_cli_holder_writes_norm_estimate(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_fast_config(cfg_path, out_dir=out_dir)
    assert main(["--config", str(cfg_path), "holder"]) == 0
    out = capsys.readouterr().out
    assert "datum anisotropic norm estimate" in out
    est = json.loads((out_dir / "holder.json").read_text())
    assert est["value"] > 0 and est["n_pairs"] > 0


def test_cli_reports_module_errors_as_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    obj = write_fast_config(cfg_path)
    obj["problem"]["datum"] = {"family": "kink-power", "beta": 7.0}
    cfg_path.write_text(json.dumps(obj))
    assert main(["--config", str(cfg_path), "solve"]) == 2
    assert "error:" in capsys.readouterr().err
