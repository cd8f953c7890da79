"""Public names resolve, removed names stay gone, and removed config keys
fail by name.  In fresh interpreters, a step and a run that split over two
CPUs give the bytes of the serial ones on one CPU."""

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
# single-field forms of DiagnosticsSeries.sample's columns, and the solver's face gradient
DIAGNOSTICS_REMOVED = ("lp_norm", "SUPPORTED_P", "functional_z3", "functional_z45", "lyapunov_H",
                       "face_gradient")


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


def fresh_interpreter(probe, *args):
    """What a fresh interpreter that runs the code probe prints."""
    src = str(Path(kslab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def loaded_by_import(module, package="kslab"):
    """Whether a fresh interpreter has module loaded after importing package."""
    return fresh_interpreter(f"import sys, {package}; print({module!r} in sys.modules)") == "True"


def test_import_loads_no_scipy():
    assert not loaded_by_import("scipy")


@pytest.mark.parametrize("package", ["kslab", "kslab.cli"])
def test_import_loads_no_process_pool(package):
    # only a sweep with KSLAB_WORKERS > 1 imports concurrent.futures
    assert not loaded_by_import("concurrent.futures", package)


def test_import_starts_no_thread():
    probe = "import threading; n = threading.active_count(); import kslab, kslab.cli; "
    assert fresh_interpreter(probe + "print(threading.active_count() - n)") == "0"


# a fresh interpreter on one CPU for argv[1] == "1", else on two (even where
# there is one)
AFFINITY = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:
    os.sched_getaffinity = lambda pid: {0, 1}
"""

# one step of a 256^2 bump
ONE_STEP = AFFINITY + """
import hashlib, threading
import numpy as np
import kslab.solver as sv
from kslab.params import Grid, Parameters, SourceFunction, State
grid = Grid(dim=2, extents=(1.0, 1.0), cells=(256, 256))
assert grid.cells[0] * grid.cells[1] >= sv._PARALLEL_ELEMENTS
bump = sv.initial_condition("gaussian-bump", grid, base_v=0.5, amplitude=2.0)
p = Parameters(d1=1.0, d2=0.5, chi=1.0, alpha=1.0, beta=1.0, kappa=1.0, mu=2.0, n=2)
state = State(u=bump.u[None], v=bump.v[None], t=np.zeros(1))
new, _ = sv.step(state, [p], [SourceFunction.standard_logistic(1.0, 2.0)], sv.SolverConfig(), grid)
print(threading.active_count(), hashlib.sha256(new.u.tobytes() + new.v.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_starts_no_helper_and_gives_the_split_bytes():
    one = fresh_interpreter(ONE_STEP, "1").split()
    two = fresh_interpreter(ONE_STEP, "2").split()
    assert (one[0], two[0]) == ("1", "2") and one[1] == two[1]


# a 49 x 48 x 47 boundedness run in directory argv[2], above
# solver._PARALLEL_ELEMENTS: on one CPU its steps run serially, on two each
# step's pre-dt half splits its planes at 24 (an odd first axis, three
# unequal strides) and v steps on the helper thread
SPLIT_RUN = AFFINITY + """
import contextlib, threading
from kslab.cli import cli
os.chdir(sys.argv[2])
with contextlib.redirect_stdout(sys.stderr):
    code = cli(["simulate", "--config", sys.argv[3]])
print(code, threading.active_count())
"""
SPLIT_CFG = """
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
cells = 49 48 47

[solver]
dt_initial = 0.01
t_end = 0.2
snapshot_stride = 5

[ic]
kind = gaussian-bump
amplitude = 1.9
width = 0.1

[scenario]
name = boundedness
output_dir = out
"""


def output_files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_split_run_writes_the_serial_run_bytes(tmp_path):
    config = tmp_path / "split-3d.cfg"
    config.write_text(SPLIT_CFG)
    printed = {}
    for cpus in ("1", "2"):
        (tmp_path / cpus).mkdir()
        printed[cpus] = fresh_interpreter(SPLIT_RUN, cpus, str(tmp_path / cpus), str(config))
    assert printed == {"1": "0 1", "2": "0 2"}  # both pass; only the second splits
    serial = output_files(tmp_path / "1")
    assert len(serial) == 10 and output_files(tmp_path / "2") == serial


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
    renamed = {"name": "scenario"}
    assert list(_SCHEMA) == list(owners)
    for section, keys in _SCHEMA.items():
        fields = [f.name for f in dataclasses.fields(owners[section])]
        if section == "scenario":
            fields = [name for name in fields if name not in ("params", "grid", "solver", "ic")]
        assert [renamed.get(key, key) for key in keys] == fields
    assert sum(len(keys) for keys in _SCHEMA.values()) == 28


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
