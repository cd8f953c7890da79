"""Each scenario's canonical coarse-grid config runs end to end, also with
one number changed to an extreme or non-numeric value, each check of the
boundedness audit and the H check of the convergence audit fail on a run
made to break them, a boundedness report states its hypothesis, and the
manufactured order holds on any extents."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import kslab.solver as sv
from kslab import harness
from kslab.cli import cli
from kslab.harness import (
    EXIT_AUDIT,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_PASS,
    SCENARIOS,
    parse_config,
    serialize_config,
)
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


def _with_key(text, section, key, value):
    """text with key = value: its line replaced, or added under [section]."""
    if re.search(rf"(?m)^{key} = ", text):
        return re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)
    return text + f"\n[{section}]\n{key} = {value}\n"


NUMBER_KEYS = [  # the 16 number keys of [params], [solver] and [ic]
    (section, key) for section in ("params", "solver", "ic")
    for key, convert in harness._SCHEMA[section].items() if convert is harness._number
]
EXTREMES = ["-1", "0", "1e-300", "1e-30", "1e30", "1e154", "1e300", "5e-324", "x", "nan"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing runs
@given(name=hs.sampled_from(SCENARIOS), key=hs.sampled_from(NUMBER_KEYS),
       value=hs.sampled_from(EXTREMES))
@settings(max_examples=200, deadline=None)
def test_a_config_with_one_extreme_number_runs_or_exits(name, key, value, tmp_path_factory):
    # no drawn value lengthens a run: t_end / dt_initial above 2^24 exits 3,
    # and an extreme rate collapses dt or blows up
    tmp = tmp_path_factory.mktemp("fuzz")
    text = _with_key((CONFIGS / f"{name}.cfg").read_text(), *key, value)
    path = tmp / "cfg.cfg"
    path.write_text(_with_key(text, "scenario", "output_dir", tmp / "out"))
    assert cli(["simulate", "--config", str(path)]) in (
        EXIT_PASS, EXIT_BLOWUP, EXIT_CONFIG, EXIT_AUDIT)


@pytest.mark.parametrize(
    "edits,orders",
    [
        ({"dim": "1", "extents": "1", "cells": "16", "t_end": "0.25"}, "0.9275 0.9636"),
        ({"dim": "1", "extents": "1.5", "cells": "16"}, None),
        ({"extents": "1.5 0.7"}, None),
    ],
    ids=["unit-line", "line-1.5", "box-1.5x0.7"],
)
def test_manufactured_order_on_any_extents(edits, orders, tmp_path, monkeypatch):
    # k_i = (i + 1) pi / L_i keeps the pair's closure exact on every side;
    # on the unit line it is cos(pi x), whose orders are those of the 1-D study
    text = (CONFIGS / "manufactured-order.cfg").read_text()
    for key, value in edits.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    path = tmp_path / "cfg.cfg"
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli(["simulate", "--config", str(path)]) == EXIT_PASS
    report = dict(line.split(": ", 1) for line in
                  (tmp_path / parse_config(text).output_dir / "report.txt").read_text().splitlines())
    assert 0.8 <= float(report["observed_order"]) <= 2.0
    if orders:
        assert report["orders"] == orders


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


CONVERGENCE_CHECKS = ("mass_bound_pass", "audit_rate_pass", "H_monotone")


def test_convergence_audit_fails_on_H_alone(tmp_path, monkeypatch):
    # a zero-mean stirring of u, cos(2 pi x) for 0.5 <= t < 1, pushes u away
    # from its equilibrium, so H grows while it acts; the decay over the
    # fitted second half of the run still clears gamma (5.8e-4) widely
    real_run = sv.run

    def stirred_run(*args, **kwargs):
        def forcing_u(mesh, t):
            return np.cos(2.0 * np.pi * mesh[0]) * (0.5 <= t < 1.0)

        return real_run(*args, forcing_u=forcing_u, **kwargs)

    monkeypatch.setattr(sv, "run", stirred_run)
    cfg = parse_config((CONFIGS / "convergence-positive-kappa.cfg").read_text())
    result = harness.run_scenario(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert (result.exit_code, result.outcome) == (EXIT_AUDIT, "completed")
    assert {name: result.report[name] for name in CONVERGENCE_CHECKS} == {
        name: name != "H_monotone" for name in CONVERGENCE_CHECKS}
    assert result.report["H_worst_increase"] > 0.0


@pytest.mark.parametrize(
    "dim,head",
    [
        (3, ["mu0: 7.743416490252567", "mu0_branch: general", "mu_exceeds_mu0: True"]),
        (2, ["mu0: nan", "mu0_branch: undefined", "mu_exceeds_mu0: undefined"]),
    ],
)
def test_boundedness_report_states_its_hypothesis(dim, head, tmp_path, monkeypatch, capsys):
    # mu0 is defined for n in {3, 4, 5} only, and n = dim
    text = (CONFIGS / "boundedness.cfg").read_text()
    for key, value in {"dim": str(dim), "extents": " ".join("1" * dim),
                       "cells": " ".join("8" * dim)}.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    path = tmp_path / "cfg.cfg"
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli(["simulate", "--config", str(path)]) == EXIT_PASS
    report = (tmp_path / parse_config(text).output_dir / "report.txt").read_text()
    assert report.splitlines()[:4] == ["scenario: boundedness"] + head
    capsys.readouterr()
    assert cli(["thresholds", "--config", str(path)]) == EXIT_PASS
    assert capsys.readouterr().out.splitlines()[:3] == head
