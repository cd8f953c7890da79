import contextlib
import csv
import dataclasses
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kslab.solver as sv
from kslab.cli import cli
from kslab.harness import (
    EXIT_AUDIT,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_PASS,
    ConfigError,
    _sweep_workers,
    parse_config,
    run_scenario,
    run_sweep,
    serialize_config,
)

MINIMAL = """
[params]
d1 = 1.0
d2 = 1.0
chi = 1.0
alpha = 1.0
beta = 1.0
kappa = 1.0
mu = 9.2921
n = 3

[grid]
dim = 3
extents = 1 1 1
cells = 8 8 8

[solver]
dt_initial = 0.05
t_end = 0.5
snapshot_stride = 2

[ic]
kind = gaussian-bump
amplitude = 2.0
width = 0.1

[scenario]
name = boundedness
output_dir = {out}
seed = 11
"""


def minimal_cfg(tmp_path, **edits):
    text = MINIMAL.format(out=tmp_path / "out")
    for key, value in edits.items():
        text = _replace_key(text, key, value)
    return text


def one_d_cfg(tmp_path, **edits):
    """MINIMAL on a 1-D grid of 16 cells (n = dim = 1)."""
    return minimal_cfg(tmp_path, dim="1", n="1", **edits).replace(
        "cells = 8 8 8", "cells = 16"
    ).replace("extents = 1 1 1", "extents = 1")


def _set_key(text, section, key, value):
    try:
        return _replace_key(text, key, value)
    except KeyError:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)


def _replace_key(text, key, value):
    lines = []
    replaced = False
    for line in text.splitlines():
        if line.strip().startswith(f"{key} ="):
            lines.append(f"{key} = {value}")
            replaced = True
        else:
            lines.append(line)
    if not replaced:
        raise KeyError(key)
    return "\n".join(lines)


class TestParse:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(minimal_cfg(tmp_path))
        assert cfg.params.mu == 9.2921
        assert cfg.solver.dt_min == 1e-10  # default applied
        assert cfg.ic.kind == "gaussian-bump"
        # equilibrium defaults for kappa > 0
        assert cfg.ic.base_u == pytest.approx(1.0 / 9.2921)
        assert cfg.seed == 11

    def test_negative_d1_names_key_and_constraint(self, tmp_path):
        with pytest.raises(ConfigError, match="d1 must be positive"):
            parse_config(minimal_cfg(tmp_path, d1="-1"))

    def test_unknown_key_is_hard_error(self, tmp_path):
        text = minimal_cfg(tmp_path) + "\n[solver]\nwarp = 9\n"
        with pytest.raises(ConfigError, match="unknown key 'warp'"):
            parse_config(text)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(minimal_cfg(tmp_path) + "\n[plotting]\n")

    def test_missing_required_key(self, tmp_path):
        text = minimal_cfg(tmp_path).replace("mu = 9.2921\n", "")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(text)

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(minimal_cfg(tmp_path, d2="fast"))

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("params", "d2", "fast", "[params] d2: expected a number, got 'fast'"),
            ("grid", "cells", "8 x 8", "[grid] cells: expected an integer, got 'x'"),
            ("solver", "t_end", "inf", "[solver] t_end: expected a finite number, got 'inf'"),
            ("ic", "width", "wide", "[ic] width: expected a number, got 'wide'"),
            ("scenario", "seed", "1.5", "[scenario] seed: expected an integer, got '1.5'"),
        ],
    )
    def test_conversion_error_names_section_once(
        self, tmp_path, section, key, value, message
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(_set_key(minimal_cfg(tmp_path), section, key, value))
        assert str(info.value) == message

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(minimal_cfg(tmp_path) + "\n[params]\nd1 = 2\n")

    def test_round_trip_identical(self, tmp_path):
        cfg = parse_config(minimal_cfg(tmp_path))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_with_sweep_fields(self, tmp_path):
        text = minimal_cfg(
            tmp_path, name="small-diffusion-sweep", dim="2", n="2"
        ).replace("cells = 8 8 8", "cells = 8 8").replace(
            "extents = 1 1 1", "extents = 1 1"
        )
        text += "\nsweep_axis = d1\nsweep_values = 1 0.5 0.25\n"
        cfg = parse_config(text)
        assert cfg.sweep_values == (1.0, 0.5, 0.25)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_scenario_constraint_positive_kappa(self, tmp_path):
        text = minimal_cfg(
            tmp_path, name="convergence-positive-kappa", kappa="-1.0"
        )
        with pytest.raises(ConfigError, match="kappa > 0"):
            parse_config(text)

    def test_scenario_constraint_mu1(self, tmp_path):
        text = minimal_cfg(
            tmp_path, name="convergence-positive-kappa", mu="0.2"
        )
        with pytest.raises(ConfigError, match="mu > mu1"):
            parse_config(text)

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="must match grid dim"):
            parse_config(minimal_cfg(tmp_path, n="2"))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(minimal_cfg(tmp_path, name="warp-speed"))


class TestRunScenario:
    def test_boundedness_artifacts_and_exit(self, tmp_path):
        cfg = parse_config(minimal_cfg(tmp_path))
        result = run_scenario(cfg)
        assert result.exit_code == EXIT_PASS
        out = Path(cfg.output_dir)
        report = (out / "report.txt").read_text()
        assert "mu0: 7.743416" in report
        assert "verdict: pass" in report
        assert (out / "diagnostics.csv").exists()
        assert (out / "snapshots" / "u_000000.raw").exists()
        assert (out / "snapshots" / "v_000001.hdr").exists()

    def test_blowup_exit_code(self, tmp_path):
        text = minimal_cfg(tmp_path, amplitude="5.0")
        text = _replace_key(text, "t_end", "1.0")
        cfg = parse_config(text)
        cfg = dataclasses.replace(
            cfg,
            solver=dataclasses.replace(cfg.solver, blowup_linf_threshold=0.1),
        )
        result = run_scenario(cfg)
        assert result.exit_code == EXIT_BLOWUP
        assert result.outcome == "blowup-detected"

    def test_non_finite_run_fails(self, tmp_path, monkeypatch):
        # a NaN forcing from the second step on stands in for an overflow
        real_run = sv.run

        def nan_forced_run(*args, **kwargs):
            def forcing_u(mesh, t):
                return np.full(mesh[0].shape, np.nan if t > 0.0 else 0.0)

            return real_run(*args, forcing_u=forcing_u, **kwargs)

        monkeypatch.setattr(sv, "run", nan_forced_run)
        cfg = parse_config(minimal_cfg(tmp_path))
        result = run_scenario(cfg)
        assert result.exit_code == EXIT_AUDIT
        assert result.outcome == sv.OUTCOME_NONFINITE
        report = (Path(cfg.output_dir) / "report.txt").read_text()
        assert "outcome: non-finite" in report
        assert "verdict: fail" in report
        assert "exit_code: 4" in report

    def test_determinism_bit_identical_csv(self, tmp_path):
        text_a = _replace_key(minimal_cfg(tmp_path), "output_dir", tmp_path / "a")
        text_b = _replace_key(minimal_cfg(tmp_path), "output_dir", tmp_path / "b")
        cfg_a, cfg_b = parse_config(text_a), parse_config(text_b)
        run_scenario(cfg_a)
        run_scenario(cfg_b)
        csv_a = (Path(cfg_a.output_dir) / "diagnostics.csv").read_bytes()
        csv_b = (Path(cfg_b.output_dir) / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b

    def test_convergence_scenario(self, tmp_path):
        text = minimal_cfg(tmp_path, name="convergence-positive-kappa")
        text = _replace_key(text, "t_end", "3.0")
        text = _replace_key(text, "amplitude", "1.0")
        cfg = parse_config(text)
        result = run_scenario(cfg)
        assert result.exit_code == EXIT_PASS
        assert result.report["H_monotone"] is True

    def test_manufactured_order_scenario(self, tmp_path):
        # refines the config's 16 cells to 32 and 64
        text = one_d_cfg(tmp_path, name="manufactured-order", chi="0.0", kappa="0.0",
                         t_end="0.25")
        cfg = parse_config(text)
        result = run_scenario(cfg)
        assert result.exit_code == EXIT_PASS
        assert abs(result.report["observed_order"] - 2.0) <= 0.2

    @pytest.mark.parametrize(
        "name,kappa,t_end",
        [("decay-zero-kappa", "0.0", "20"), ("decay-negative-kappa", "-1.0", "10")],
    )
    def test_decay_scenario_reaches_target_rates(self, tmp_path, name, kappa, t_end):
        text = one_d_cfg(tmp_path, name=name, kappa=kappa, t_end=t_end)
        result = run_scenario(parse_config(text))
        assert result.exit_code == EXIT_PASS
        report = result.report
        targets = (
            (report["audit_target_exponent"],) * 2 if name == "decay-zero-kappa"
            else (report["audit_target_u"], report["audit_target_v"])
        )
        assert report["audit_fit_u"] >= targets[0] > 0.0
        assert report["audit_fit_v"] >= targets[1] > 0.0
        assert report["audit_rate_pass"] is True

    @pytest.mark.parametrize(
        "name,kappa", [("decay-zero-kappa", "0.0"), ("decay-negative-kappa", "-1.0")]
    )
    def test_decay_scenario_too_short_to_fit_fails(self, tmp_path, name, kappa):
        text = one_d_cfg(tmp_path, name=name, kappa=kappa, t_end="0.5")
        result = run_scenario(parse_config(text))
        assert result.exit_code == EXIT_AUDIT
        assert result.report["audit_error"].startswith(
            "need at least 10 samples in window"
        )
        assert result.report["verdict"] == "fail"

    def test_nan_in_fitted_series_fails_audit(self, tmp_path, monkeypatch):
        # one NaN sup-norm sample inside the fitting window of a run that
        # otherwise passes (test_decay_scenario_reaches_target_rates)
        real_run = sv.run

        def run_with_nan_sample(*args, **kwargs):
            traj = real_run(*args, **kwargs)
            traj.diagnostics.columns["Linf_u"][-2] = math.nan
            return traj

        monkeypatch.setattr(sv, "run", run_with_nan_sample)
        text = one_d_cfg(
            tmp_path, name="decay-negative-kappa", kappa="-1.0", t_end="10"
        )
        result = run_scenario(parse_config(text))
        assert result.exit_code == EXIT_AUDIT
        assert result.report["audit_error"] == (
            "decay fitting requires finite times and values"
        )
        assert result.report["verdict"] == "fail"

    def test_convex_comparison_reports_both_branches(self, tmp_path):
        text = _set_key(
            minimal_cfg(tmp_path, name="convex-comparison"), "scenario", "convex", "true"
        )
        result = run_scenario(parse_config(text))
        assert result.exit_code == EXIT_PASS
        report = result.report
        assert report["mu0_convex_branch"] == pytest.approx(0.75)
        assert report["mu0_general_branch"] == pytest.approx(7.743416, abs=1e-6)
        assert report["mu_exceeds_convex_mu0"] is True
        assert report["mu_exceeds_general_mu0"] is True
        assert report["z3_stable"] is True


class TestSmallDiffusionSweep:
    """The d1 trend compares late-window peaks, so it can fail."""

    def _run(self, tmp_path, t_end):
        text = one_d_cfg(tmp_path, name="small-diffusion-sweep", t_end=t_end)
        text += "\nsweep_axis = d1\nsweep_values = 1 0.5 0.1 0.05\n"
        return run_scenario(parse_config(text))

    @staticmethod
    def _late_peaks(result):
        return [float(s) for s in result.report["late_linf_u_by_d1"].split()]

    def test_peaks_rising_as_d1_shrinks_pass(self, tmp_path):
        result = self._run(tmp_path, "0.5")
        assert result.exit_code == EXIT_PASS
        peaks = self._late_peaks(result)  # ascending d1
        assert peaks == sorted(peaks, reverse=True)
        # all below the initial peak (about 2.01): the transient is excluded
        assert max(peaks) < 0.5
        assert "sup_linf_u_by_d1" not in result.report

    def test_non_monotone_late_peaks_fail(self, tmp_path):
        result = self._run(tmp_path, "2.0")
        assert result.exit_code == EXIT_AUDIT
        assert result.report["trend_nondecreasing_as_d1_shrinks"] is False
        peaks = self._late_peaks(result)
        assert peaks != sorted(peaks, reverse=True)


class TestSweep:
    def _base(self, tmp_path):
        text = minimal_cfg(tmp_path, dim="2", n="2").replace(
            "cells = 8 8 8", "cells = 16 16"
        ).replace("extents = 1 1 1", "extents = 1 1")
        return parse_config(text)

    def test_rows_in_request_order(self, tmp_path):
        base = self._base(tmp_path)
        rows = run_sweep(base, "d1", (1.0, 0.5, 0.25))
        assert [r["value"] for r in rows] == [1.0, 0.5, 0.25]
        summary = Path(base.output_dir) / "summary.csv"
        lines = summary.read_text().strip().split("\n")
        assert lines[0].startswith("value,outcome,sup_linf_u")
        assert len(lines) == 4

    def test_summary_late_peak_matches_point_diagnostics(self, tmp_path):
        base = self._base(tmp_path)
        run_sweep(base, "d1", (1.0, 0.25))
        with open(Path(base.output_dir) / "summary.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames[:4] == ["value", "outcome", "sup_linf_u", "late_linf_u"]
            summary = list(reader)
        for i, row in enumerate(summary):
            with open(Path(base.output_dir) / f"point_{i:03d}" / "diagnostics.csv",
                      newline="") as fh:
                diag = list(csv.DictReader(fh))
            t = np.array([float(r["t"]) for r in diag])
            linf = np.array([float(r["Linf_u"]) for r in diag])
            assert float(row["sup_linf_u"]) == linf.max()
            assert float(row["late_linf_u"]) == linf[t >= t[-1] / 3.0].max()
            assert float(row["late_linf_u"]) < float(row["sup_linf_u"])  # decaying

    def test_mu_sweep_marks_threshold(self, tmp_path):
        cfg = parse_config(minimal_cfg(tmp_path))
        rows = run_sweep(cfg, "mu", (6.0, 9.0))
        assert rows[0]["mu_gt_mu0"] == 0  # 6 < 7.743
        assert rows[1]["mu_gt_mu0"] == 1

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            run_sweep(self._base(tmp_path), "d1", ())

    def test_inadmissible_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="inadmissible"):
            run_sweep(self._base(tmp_path), "d1", (1.0, -1.0))

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a parameter field"):
            run_sweep(self._base(tmp_path), "zeta", (1.0,))

    @pytest.mark.parametrize("cells, batches", [(16, [8]), (32, [1] * 4)])
    def test_no_stack_of_several_points_reaches_the_split(
            self, tmp_path, monkeypatch, cells, batches):
        """solver.step splits only one-point stacks, as no sweep batches
        several points into a stack of _PARALLEL_ELEMENTS cells or more: 8
        points of 16^3 march as one stack, and 4 points of 32^3 one by one."""
        monkeypatch.delenv("KSLAB_WORKERS", raising=False)
        stacks, march = [], sv.run_batch

        def recorded(states0, params, sources, grid, *args):
            stacks.append((len(states0), math.prod(grid.cells)))
            return march(states0, params, sources, grid, *args)

        monkeypatch.setattr(sv, "run_batch", recorded)
        base = parse_config(minimal_cfg(
            tmp_path, cells=f"{cells} {cells} {cells}", dt_initial="0.001", t_end="0.002"))
        rows = run_sweep(base, "d1", tuple(1.0 - 0.1 * k for k in range(sum(batches))))
        assert not any(row["error"] for row in rows)
        assert all(points * size < sv._PARALLEL_ELEMENTS for points, size in stacks if points > 1)
        assert [points for points, _ in stacks] == batches

    def test_blowup_recorded_per_row_not_fatal(self, tmp_path):
        import dataclasses
        base = self._base(tmp_path)
        base = dataclasses.replace(
            base,
            solver=dataclasses.replace(base.solver, blowup_linf_threshold=0.05),
        )
        rows = run_sweep(base, "d1", (1.0, 0.5))
        assert all(r["outcome"] == "blowup-detected" for r in rows)

    def test_workers_default_to_serial(self):
        assert _sweep_workers(None, 4, 8) == 1

    def test_workers_capped_at_cpus_and_points(self):
        assert _sweep_workers("2", 4, 8) == 2
        assert _sweep_workers("64", 3, 8) == 3
        assert _sweep_workers("64", 100, 8) == 8
        assert _sweep_workers(" 1 ", 4, 8) == 1

    @pytest.mark.parametrize("setting", ["two", "", "0", "-1", "1.5", "\u00b2"])
    def test_bad_worker_setting_is_config_error(self, setting):
        with pytest.raises(ConfigError, match="KSLAB_WORKERS"):
            _sweep_workers(setting, 4, 8)

    def test_workers_capped_at_the_cpus_of_the_affinity_mask(self, tmp_path, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("the sweep started a process pool")

        monkeypatch.setenv("KSLAB_WORKERS", "2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        rows = run_sweep(self._base(tmp_path), "d1", (1.0, 0.5))
        assert len(rows) == 2 and all(not r["error"] for r in rows)

    def test_worker_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSLAB_WORKERS", "2")
        base = self._base(tmp_path)
        rows = run_sweep(base, "d1", (1.0, 0.5))
        assert len(rows) == 2 and all(not r["error"] for r in rows)

    def test_parallel_sweep_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        # 5 points over 2 workers: uneven chunks of 2 and 3, each one batch
        outputs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("KSLAB_WORKERS", workers)
            out = tmp_path / f"workers_{workers}"
            base = dataclasses.replace(self._base(tmp_path), output_dir=str(out))
            run_sweep(base, "d1", (1.0, 0.5, 0.25, 2.0, 0.125))
            outputs[workers] = {
                path.relative_to(out): path.read_bytes() for path in out.rglob("*.csv")
            }
        assert len(outputs["1"]) == 6 and outputs["2"] == outputs["1"]


    def test_parallel_sweep_after_a_split_step(self, tmp_path):
        """KSLAB_WORKERS=2 forks the workers of a sweep after this process
        has split a step over its helper thread: the sweep finishes, so no
        worker waits on a thread it does not have, and writes the serial
        sweep's bytes.  No worker starts a thread of its own: with
        threading gone from the solver, that would fail its points."""
        values = (1.0, 0.5, 0.25, 2.0, 0.125)
        base = self._base(tmp_path)
        run_sweep(dataclasses.replace(base, output_dir=str(tmp_path / "serial")), "d1", values)
        path = tmp_path / "forked.cfg"
        path.write_text(serialize_config(
            dataclasses.replace(base, output_dir=str(tmp_path / "forked"))))
        script = f"""
import os, sys
import numpy as np
import kslab.solver as sv
from kslab.harness import parse_config, run_sweep
from kslab.params import Grid, Parameters, SourceFunction, State
sv._PARALLEL_ELEMENTS = 0
os.sched_getaffinity = lambda pid: {{0, 1}}
p = Parameters(d1=1.0, d2=1.0, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=1)
sv.run(State(u=np.ones(8), v=np.ones(8), t=0.0), p, SourceFunction.standard_logistic(1.0, 2.0),
       Grid(dim=1, extents=(1.0,), cells=(8,)), sv.SolverConfig(t_end=0.05))
assert sv._helper is not None
sv.threading = None
os.environ["KSLAB_WORKERS"] = "2"
run_sweep(parse_config(open(sys.argv[1]).read()), "d1", {values!r})
"""
        src = str(Path(sv.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", script, str(path)],
                                env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
        try:
            assert proc.wait(timeout=120) == 0
        finally:  # a hung worker too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        outputs = [
            {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
            for out in (tmp_path / "serial", tmp_path / "forked")
        ]
        assert len(outputs[0]) == 6 and outputs[1] == outputs[0]


class TestCli:
    def test_version(self, capsys):
        assert cli(["--version"]) == 0
        assert "kslab" in capsys.readouterr().out

    def test_unknown_subcommand_exit_3(self, capsys):
        assert cli(["transmogrify"]) == EXIT_CONFIG

    def test_no_subcommand_exit_3(self):
        assert cli([]) == EXIT_CONFIG

    def test_simulate_requires_config(self):
        assert cli(["simulate"]) == EXIT_CONFIG

    def test_thresholds_prints_report(self, tmp_path, capsys):
        path = tmp_path / "cfg.cfg"
        path.write_text(minimal_cfg(tmp_path))
        assert cli(["thresholds", "--config", str(path)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "mu0: 7.743416" in out
        assert "mu1: 0.25" in out
        assert "gamma:" in out

    def test_thresholds_convex_comes_from_the_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.cfg"
        path.write_text(_set_key(minimal_cfg(tmp_path), "scenario", "convex", "true"))
        assert cli(["thresholds", "--config", str(path), "--convex"]) == EXIT_CONFIG
        assert "unrecognized arguments: --convex" in capsys.readouterr().err
        assert cli(["thresholds", "--config", str(path)]) == EXIT_PASS
        assert "mu0_branch: convex-equal-diffusion" in capsys.readouterr().out

    def test_simulate_and_fit_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.cfg"
        text = minimal_cfg(tmp_path, kappa="-1.0", chi="0.0", dim="1", n="1")
        text = text.replace("cells = 8 8 8", "cells = 32").replace(
            "extents = 1 1 1", "extents = 1"
        )
        text = _replace_key(text, "name", "decay-negative-kappa")
        text = _replace_key(text, "t_end", "8.0")
        text = _replace_key(text, "kind", "constant-plus-perturbation")
        text = _replace_key(text, "amplitude", "0.0")
        path.write_text(text)
        code = cli(["simulate", "--config", str(path)])
        assert code == EXIT_PASS
        csv_path = Path(parse_config(text).output_dir) / "diagnostics.csv"
        assert cli([
            "fit", "--csv", str(csv_path), "--column", "Linf_u",
            "--window", "4,8",
        ]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "model: exponential" in out

    def test_fit_unknown_column(self, tmp_path, capsys):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("t,foo\n0,1\n")
        assert cli([
            "fit", "--csv", str(csv_path), "--column", "bar", "--window", "0,1",
        ]) == EXIT_CONFIG

    def test_fit_missing_time_column(self, tmp_path, capsys):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("time,foo\n0,1\n")
        assert cli([
            "fit", "--csv", str(csv_path), "--column", "foo", "--window", "0,1",
        ]) == EXIT_CONFIG
        assert "column 't' not in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,column", [("t,foo\n0,1\n1,abc\n", "'foo'"), ("t,foo\n0,1\nx,2\n", "'t'")]
    )
    def test_fit_non_numeric_cell(self, tmp_path, capsys, text, column):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text(text)
        assert cli([
            "fit", "--csv", str(csv_path), "--column", "foo", "--window", "0,1",
        ]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"column {column}, data row 2 of" in err and "not a number" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "thresholds", "fit"])
    def test_non_utf8_file_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe\x00bad")
        argv = {
            "simulate": ["--config", str(path)],
            "sweep": ["--config", str(path), "--axis", "d1", "--values", "1"],
            "thresholds": ["--config", str(path)],
            "fit": ["--csv", str(path), "--column", "u", "--window", "0,1"],
        }[command]
        assert cli([command, *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read {'csv' if command == 'fit' else 'config'} {path}" in err
        assert "can't decode byte 0xff" in err

    def test_simulate_config_error_exit_3(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(minimal_cfg(tmp_path, d1="-1"))
        assert cli(["simulate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("ic", "base_u", "nan"),
            ("solver", "t_end", "inf"),
            ("solver", "blowup_linf_threshold", "inf"),
        ],
    )
    def test_nonfinite_number_exit_3(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "cfg.cfg"
        path.write_text(_set_key(one_d_cfg(tmp_path), section, key, value))
        assert cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert f"[{section}] {key}: expected a finite number" in capsys.readouterr().err

    def test_convex_comparison_outside_supported_dimensions_exit_3(
        self, tmp_path, capsys
    ):
        path = tmp_path / "cfg.cfg"
        path.write_text(one_d_cfg(tmp_path, name="convex-comparison"))
        assert cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "convex-comparison requires n in {3, 4, 5}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_underflowing_equilibrium_exit_3(self, tmp_path, capsys, command):
        # kappa/mu = 1e-310 is subnormal: u/c would overflow inside H
        path = tmp_path / "cfg.cfg"
        argv = [command, "--config", str(path)]
        if command == "simulate":
            path.write_text(one_d_cfg(tmp_path, kappa="1e-310", mu="1.0"))
        else:
            path.write_text(one_d_cfg(tmp_path))
            argv += ["--axis", "kappa", "--values", "1e-310"]
        assert cli(argv) == EXIT_CONFIG
        assert "kappa/mu = 1e-310/" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits", [{"beta": "1e-320"}, {"mu": "1e-320"}, {"beta": "1e-320", "mu": "1e-10"}]
    )
    def test_non_finite_default_bases_exit_3(self, tmp_path, capsys, edits):
        # the equilibrium alpha kappa / (beta mu) overflows, or beta mu underflows
        text = (Path(__file__).parent / "scenarios" / "boundedness.cfg").read_text()
        text = _replace_key(text, "output_dir", tmp_path / "out")
        for key, value in edits.items():
            text = _replace_key(text, key, value)
        (tmp_path / "cfg.cfg").write_text(text)
        assert cli(["simulate", "--config", str(tmp_path / "cfg.cfg")]) == EXIT_CONFIG
        assert "config error: [ic]: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,edit,theta",
        [
            ("decay-zero-kappa", ("params", "d1", "1e16"), "1.28e+17"),
            ("boundedness", ("params", "d2", "1e30"), "3.2000000000000003e+30"),
            ("boundedness", ("grid", "extents", "1e-29 1e-29 1e-29"), "3.2000000000000007e+58"),
            ("decay-zero-kappa", ("params", "d1", "1e14"), None),  # theta = 1.28e15 runs
        ],
    )
    def test_singular_implicit_solve_exit_3(self, tmp_path, capsys, config, edit, theta):
        # past theta = 2^52, 1 + 2 theta rounds and the line matrix is singular
        text = (Path(__file__).parent / "scenarios" / f"{config}.cfg").read_text()
        text = _set_key(_replace_key(text, "output_dir", tmp_path / "out"), *edit)
        (tmp_path / "cfg.cfg").write_text(text)
        code = cli(["simulate", "--config", str(tmp_path / "cfg.cfg")])
        if theta is None:
            assert code == EXIT_PASS
            return
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: [solver] dt_initial = 0.05, [params] d1 = ")
        assert "and the [grid] spacing " in err
        assert f"max(d1, d2) / min(h)^2 = {theta}, which must lie below 2^52" in err

    @pytest.mark.parametrize("axis", ["d1", "d2"])
    def test_singular_sweep_value_exit_3(self, tmp_path, capsys, axis):
        path = tmp_path / "cfg.cfg"
        path.write_text(one_d_cfg(tmp_path))
        argv = ["sweep", "--config", str(path), "--axis", axis, "--values", "1,1e16"]
        assert cli(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep value 1e+16 inadmissible: [solver] dt_initial")
        assert not (tmp_path / "out").exists()

    def test_manufactured_order_below_a_fixed_dt_min_runs(self, tmp_path, capsys):
        # the finest level's dt, 0.2 (5e-6 / 32)^2 = 4.9e-15, lies below 1e-14, the
        # fixed dt_min that made the study's SolverConfig raise; its dt_min is 1e-10 dt
        text = (Path(__file__).parent / "scenarios" / "manufactured-order.cfg").read_text()
        text = _replace_key(_replace_key(text, "output_dir", tmp_path / "out"),
                            "extents", "5e-6 5e-6")
        (tmp_path / "cfg.cfg").write_text(_replace_key(text, "t_end", "1e-12"))
        assert cli(["simulate", "--config", str(tmp_path / "cfg.cfg")]) in (EXIT_PASS, EXIT_AUDIT)
        assert capsys.readouterr().err == ""
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in report[1:5]] == [
            "cells", "errors", "orders", "observed_order"]

    @pytest.mark.parametrize(
        "key,value",
        [("alpha", "1e308"), ("beta", "1e308"), ("kappa", "1e308"), ("chi", "1e30"),
         ("t_end", "1e-300"), ("t_end", "1e-29")],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing runs
    def test_manufactured_run_without_an_order_exit_4(self, tmp_path, capsys, key, value):
        # the runs overflow or collapse their dt, or end with errors of 0
        text = (Path(__file__).parent / "scenarios" / "manufactured-order.cfg").read_text()
        text = _replace_key(_replace_key(text, "output_dir", tmp_path / "out"), key, value)
        (tmp_path / "cfg.cfg").write_text(text)
        assert cli(["simulate", "--config", str(tmp_path / "cfg.cfg")]) == EXIT_AUDIT
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert report[0] == "scenario: manufactured-order"
        assert report[1].startswith("audit_error: manufactured ")
        assert report[2:] == ["verdict: fail", "exit_code: 4"]

    @pytest.mark.parametrize(
        "config,edit,message",
        [
            ("boundedness", ("ic", "kind", "spiral"), "[ic]: unknown kind 'spiral'"),
            ("boundedness", ("ic", "amplitude", "-1"),
             "[ic]: bases and amplitude must be nonnegative, width positive"),
            ("boundedness", ("params", "beta", "1e-320"),
             "[ic]: the equilibrium bases base_u = 0.10761829941563264, base_v = inf "
             "are not finite; set base_u and base_v"),
            ("boundedness", ("scenario", "name", "warp"), "[scenario]: unknown scenario 'warp'"),
            ("boundedness", ("params", "n", "2"), "params n = 2 must match grid dim = 3"),
            ("convergence-positive-kappa", ("params", "kappa", "-1"),
             "convergence-positive-kappa requires kappa > 0"),
            ("convergence-positive-kappa", ("params", "chi", "0"),
             "convergence-positive-kappa requires chi != 0 (the rate formula "
             "degenerates without chemotaxis)"),
            ("convergence-positive-kappa", ("params", "mu", "0.2"),
             "convergence-positive-kappa requires mu > mu1 = 0.25"),
            ("decay-zero-kappa", ("params", "kappa", "1"), "decay-zero-kappa requires kappa = 0"),
            ("decay-negative-kappa", ("params", "kappa", "0"),
             "decay-negative-kappa requires kappa < 0"),
            ("decay-zero-kappa", ("scenario", "name", "convex-comparison"),
             "convex-comparison requires n in {3, 4, 5} (mu0 is defined only there), "
             "got n = 1"),
            ("convex-comparison", ("params", "d2", "2"),
             "convex-comparison requires d1 = d2 and chi > 0"),
            ("boundedness", ("scenario", "name", "small-diffusion-sweep"),
             "small-diffusion-sweep requires sweep_axis and sweep_values"),
            ("manufactured-order", ("params", "n", "1"), "params n = 1 must match grid dim = 2"),
            ("manufactured-order", ("grid", "cells", "8 3"), "[grid]: need at least 4 cells per axis"),
            ("boundedness", ("params", "chi", "1e-300"),
             "[params]: chi = 1e-300 must be 0 or have a finite normal square, got chi*chi = 0.0"),
            ("manufactured-order", ("params", "chi", "1e308"),
             "[params]: chi = 1e+308 must be 0 or have a finite normal square, got chi*chi = inf"),
            ("decay-zero-kappa", ("grid", "extents", "1e300"),
             "[grid]: extents (1e+300,) give a spacing h whose h*h overflows"),
            ("manufactured-order", ("grid", "extents", "1 1e300"),
             "[grid]: extents (1.0, 1e+300) give a spacing h whose h*h overflows"),
            ("manufactured-order", ("params", "d1", "1e17"),
             "manufactured-order: [params] d1 = 1e+17, d2 = 1.0 give theta = 0.2 max(d1, d2) "
             "= 2e+16, which must lie below 2^52"),
            ("boundedness", ("solver", "t_end", "1e9"),
             "[solver] t_end = 1000000000.0 and dt_initial = 0.05 ask for 20000000000.0 "
             "steps, more than 2^24"),
            ("manufactured-order", ("solver", "t_end", "1e9"),
             "[solver] t_end = 1000000000.0 and the finest grid's dt = 0.2 h^2 = "
             "0.0001953125 ask for 5120000000000.0 steps, more than 2^24"),
        ],
    )
    def test_each_config_rule_keeps_its_message(self, tmp_path, capsys, config, edit, message):
        text = (Path(__file__).parent / "scenarios" / f"{config}.cfg").read_text()
        text = _set_key(_replace_key(text, "output_dir", tmp_path / "out"), *edit)
        (tmp_path / "cfg.cfg").write_text(text)
        assert cli(["simulate", "--config", str(tmp_path / "cfg.cfg")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_nonpositive_dt_initial_exit_3(self, tmp_path, capsys):
        # dt_min < dt_initial = 0 passes SolverConfig, and such a run never ended
        text = (Path(__file__).parent / "scenarios" / "decay-zero-kappa.cfg").read_text()
        text = _replace_key(text, "output_dir", tmp_path / "out")
        text = _set_key(_set_key(text, "solver", "dt_min", "-1"), "solver", "dt_initial", "0")
        (tmp_path / "cfg.cfg").write_text(text)
        assert cli(["simulate", "--config", str(tmp_path / "cfg.cfg")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [solver] t_end = 20.0 and dt_initial = 0.0 ask for inf steps, "
            "more than 2^24\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_n_sweep_off_the_grid_dim_exit_3(self, tmp_path, capsys, command):
        # the 1-D sweep scenario: its points run on its grid, so n stays 1
        text = (Path(__file__).parent / "scenarios" / "small-diffusion-sweep.cfg").read_text()
        text = _replace_key(text, "output_dir", tmp_path / "out")
        argv = [command, "--config", str(tmp_path / "cfg.cfg")]
        if command == "simulate":
            text = _replace_key(_replace_key(text, "sweep_axis", "n"), "sweep_values", "4 5")
        else:
            argv += ["--axis", "n", "--values", "4,5"]
        (tmp_path / "cfg.cfg").write_text(text)
        assert cli(argv) == EXIT_CONFIG
        assert "n must equal grid dim 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_output_dir_under_a_file_exit_3(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        path = tmp_path / "cfg.cfg"
        path.write_text(one_d_cfg(tmp_path, output_dir=tmp_path / "file" / "out"))
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--axis", "d1", "--values", "1"]
        assert cli(argv) == EXIT_CONFIG
        assert "output_dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values,message",
        [
            ("1,x", "expected a number, got 'x'"),
            (" , ", "expected a list of numbers"),
            ("1,nan", "expected a finite number, got 'nan'"),
        ],
    )
    def test_bad_sweep_values_exit_3(self, tmp_path, capsys, values, message):
        # --values goes through the converter of config lists
        path = tmp_path / "cfg.cfg"
        path.write_text(one_d_cfg(tmp_path))
        argv = ["sweep", "--config", str(path), "--axis", "d1", "--values", values]
        assert cli(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: --values: {message}\n"

    def test_bad_worker_setting_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSLAB_WORKERS", "two")
        path = tmp_path / "cfg.cfg"
        path.write_text(one_d_cfg(tmp_path))
        assert cli([
            "sweep", "--config", str(path), "--axis", "d1", "--values", "1,0.5",
        ]) == EXIT_CONFIG

    def test_sweep_cli(self, tmp_path, capsys):
        path = tmp_path / "cfg.cfg"
        text = minimal_cfg(tmp_path, dim="2", n="2").replace(
            "cells = 8 8 8", "cells = 16 16"
        ).replace("extents = 1 1 1", "extents = 1 1")
        path.write_text(text)
        code = cli([
            "sweep", "--config", str(path), "--axis", "d1",
            "--values", "1,0.5",
        ])
        assert code == EXIT_PASS
        assert (Path(parse_config(text).output_dir) / "summary.csv").exists()
