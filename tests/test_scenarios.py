"""Each scenario's canonical coarse-grid config runs end to end, and each
check of the boundedness audit fails on a run made to break it."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from kslab import harness
from kslab.cli import cli
from kslab.harness import EXIT_AUDIT, EXIT_PASS, SCENARIOS, parse_config, serialize_config
from kslab.params import SourceFunction, State

CONFIGS = Path(__file__).parent / "scenarios"


def test_one_config_per_scenario():
    assert sorted(path.stem for path in CONFIGS.glob("*.cfg")) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_config_passes_end_to_end(name, tmp_path, monkeypatch, capsys):
    path = CONFIGS / f"{name}.cfg"
    cfg = parse_config(path.read_text())
    assert cfg.scenario == name
    assert not Path(cfg.output_dir).is_absolute()
    assert parse_config(serialize_config(cfg)) == cfg

    monkeypatch.chdir(tmp_path)
    assert cli(["simulate", "--config", str(path)]) == EXIT_PASS
    assert "verdict: pass" in capsys.readouterr().out
    report = (tmp_path / cfg.output_dir / "report.txt").read_text()
    assert report.endswith("verdict: pass\nexit_code: 0\n")


BOUNDEDNESS_CHECKS = ("mass_bound_pass", "clamp_check", "z3_stable")


@pytest.mark.parametrize("check", BOUNDEDNESS_CHECKS)
def test_boundedness_audit_fails_on_its_check_alone(check, tmp_path, monkeypatch):
    # z3: a density far below its equilibrium kappa/mu grows, and z3 with it;
    # clamps: a checkerboard signal of height 5 at cfl 1 drains cells below
    # zero; mass: a uniform density above the certificate's ceiling, which
    # is too small for f (a = 0, mu = 1e6 against kappa = 1, mu = 9.2921)
    cfg = parse_config((CONFIGS / "boundedness.cfg").read_text())
    replace = dataclasses.replace
    if check == "z3_stable":
        cfg = replace(cfg, params=replace(cfg.params, kappa=5.0),
                      ic=replace(cfg.ic, base_u=0.01, base_v=0.01, amplitude=0.01))
    elif check == "clamp_check":
        bump = harness._initial_state

        def checkerboard(cfg):
            v = 5.0 * (np.indices(cfg.grid.cells).sum(axis=0) % 2)
            return State(u=bump(cfg).u, v=v, t=0.0)

        monkeypatch.setattr(harness, "_initial_state", checkerboard)
        cfg = replace(cfg, solver=replace(cfg.solver, cfl_safety=1.0))
    else:
        monkeypatch.setattr(harness, "_source", lambda params: SourceFunction(
            kappa=params.kappa, mu=params.mu, a_cert=0.0, mu_cert=1e6))
        cfg = replace(cfg, ic=replace(cfg.ic, base_u=0.106, base_v=0.106, amplitude=0.0))
    result = harness.run_scenario(replace(cfg, output_dir=str(tmp_path)))
    assert (result.exit_code, result.outcome) == (EXIT_AUDIT, "completed")
    assert {name: result.report[name] for name in BOUNDEDNESS_CHECKS} == {
        name: name != check for name in BOUNDEDNESS_CHECKS}
