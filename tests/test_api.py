"""Public names resolve, removed names stay gone, and removed config keys
fail by name."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kslab
import kslab.diagnostics
import kslab.harness
import kslab.params
from kslab.cli import cli
from kslab.harness import (
    _SCHEMA,
    EXIT_CONFIG,
    ConfigError,
    ExperimentConfig,
    ICSpec,
    parse_config,
)
from kslab.params import Grid, Parameters, SourceFunction
from kslab.solver import SolverConfig

from test_harness import minimal_cfg

MODULES = ("params", "thresholds", "solver", "diagnostics", "harness", "cli")
# single-field forms of DiagnosticsSeries.sample's columns
DIAGNOSTICS_REMOVED = ("lp_norm", "SUPPORTED_P", "functional_z3", "functional_z45", "lyapunov_H")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kslab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(kslab.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(kslab, n)] == []


def loaded_by_import(module, package="kslab"):
    """Whether a fresh interpreter has module loaded after importing package."""
    src = str(Path(kslab.__file__).resolve().parents[1])
    probe = f"import sys, {package}; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip() == "True"


def test_import_loads_no_scipy():
    assert not loaded_by_import("scipy")


@pytest.mark.parametrize("package", ["kslab", "kslab.cli"])
def test_import_loads_no_process_pool(package):
    # only a sweep with KSLAB_WORKERS > 1 imports concurrent.futures
    assert not loaded_by_import("concurrent.futures", package)


@pytest.mark.parametrize(
    "section,key,value",
    [("params", "a", "0.0"), ("solver", "strang", "true"), ("solver", "scheme", "imex-adi")],
)
def test_removed_config_key_rejected(tmp_path, section, key, value):
    text = minimal_cfg(tmp_path).replace(
        f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1
    )
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
        parse_config(text)


def test_removed_sweep_axis_rejected(tmp_path):
    text = minimal_cfg(tmp_path, name="small-diffusion-sweep")
    text += "\nsweep_axis = a\nsweep_values = 0 1\n"
    with pytest.raises(ConfigError, match="sweep axis 'a' is not a parameter field"):
        parse_config(text)


def test_schema_keys_are_dataclass_fields():
    owners = {
        "params": Parameters, "grid": Grid, "solver": SolverConfig,
        "ic": ICSpec, "scenario": ExperimentConfig,
    }
    renamed = {"name": "scenario", "grids": "order_grids"}
    assert list(_SCHEMA) == list(owners)
    for section, keys in _SCHEMA.items():
        fields = [f.name for f in dataclasses.fields(owners[section])]
        if section == "scenario":
            fields = [name for name in fields if name not in ("params", "grid", "solver", "ic")]
        assert [renamed.get(key, key) for key in keys] == fields
    assert sum(len(keys) for keys in _SCHEMA.values()) == 29


@pytest.mark.parametrize(
    "owner,name",
    [
        (kslab, "SweepSpec"),
        (kslab.harness, "SweepSpec"),
        (SourceFunction, "custom"),
        (SourceFunction, "check_certificate"),
        (kslab.params, "CERT_SAMPLE_GRID"),
        (kslab.solver, "read_snapshot"),
        (SourceFunction, "lipschitz_bound"),
        (SourceFunction.zero(), "kind"),  # a field: on instances only
        *((kslab.diagnostics, name) for name in DIAGNOSTICS_REMOVED),
        *((kslab, name) for name in DIAGNOSTICS_REMOVED if name != "SUPPORTED_P"),
    ],
    ids=["kslab.SweepSpec", "harness.SweepSpec", "SourceFunction.custom",
         "SourceFunction.check_certificate", "params.CERT_SAMPLE_GRID",
         "solver.read_snapshot", "SourceFunction.lipschitz_bound", "SourceFunction.kind",
         *(f"diagnostics.{name}" for name in DIAGNOSTICS_REMOVED),
         *(f"kslab.{name}" for name in DIAGNOSTICS_REMOVED if name != "SUPPORTED_P")],
)
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_custom_field_kind_is_unknown(tmp_path, capsys):
    path = tmp_path / "cfg.cfg"
    path.write_text(minimal_cfg(tmp_path, kind="custom-field"))
    assert cli(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown kind 'custom-field'" in capsys.readouterr().err
