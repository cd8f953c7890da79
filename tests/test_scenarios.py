"""Each scenario's canonical coarse-grid config runs end to end."""

from pathlib import Path

import pytest

from kslab.cli import cli
from kslab.harness import EXIT_PASS, SCENARIOS, parse_config, serialize_config

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
