"""Each canonical audit sees each term of the IMEX scheme: with one term
broken, kslab simulate on the audit's canonical config exits 4 with verdict
fail.  One row per mutant: (name, owner, attribute, mutate, config, exit),
where mutate takes the attribute's value and returns its replacement.  The
manufactured order sees the upwind chemotaxis flux flipped, removed or
halved and the diffusion coefficient halved; the positive-kappa convergence
audit sees the implicit diffusion skipped and mu halved in f(u); the
kappa = 0 decay audit sees f(u) = 0.  Unbroken, each config exits 0
(test_scenarios.py)."""

import dataclasses
from pathlib import Path

import pytest

import kslab.solver as sv
from kslab.cli import cli
from kslab.harness import EXIT_AUDIT
from kslab.params import SourceFunction

CONFIGS = Path(__file__).parent / "scenarios"


def scaled_flux(scale):
    def mutate(flux):
        def scaled(*args):
            w = flux(*args)
            w *= scale
            return w
        return scaled
    return mutate


def source_with(kappa, mu):
    """f(u) evaluated with the factors kappa and mu on its own kappa and mu."""
    def mutate(call):
        def mutated(self, s, out=None):
            changed = dataclasses.replace(self, kappa=kappa * self.kappa, mu=mu * self.mu)
            return call(changed, s, out)
        return mutated
    return mutate


MUTANTS = [
    ("flipped", sv, "_upwind_flux", scaled_flux(-1.0), "manufactured-order", EXIT_AUDIT),
    ("removed", sv, "_upwind_flux", scaled_flux(0.0), "manufactured-order", EXIT_AUDIT),
    ("halved", sv, "_upwind_flux", scaled_flux(0.5), "manufactured-order", EXIT_AUDIT),
    ("half-diffusion", sv, "_inverses",
     lambda inverses: lambda coef, *args: inverses(coef * 0.5, *args),
     "manufactured-order", EXIT_AUDIT),
    ("undiffused", sv, "_implicit_diffusion", lambda solve: lambda f, *args: f,
     "convergence-positive-kappa", EXIT_AUDIT),
    ("half-mu", SourceFunction, "__call__", source_with(1.0, 0.5),
     "convergence-positive-kappa", EXIT_AUDIT),
    ("zero-source", SourceFunction, "__call__", source_with(0.0, 0.0),
     "decay-zero-kappa", EXIT_AUDIT),
]


@pytest.mark.parametrize(
    "owner,attribute,mutate,config,code", [row[1:] for row in MUTANTS],
    ids=[row[0] for row in MUTANTS],
)
def test_audit_fails_on_its_mutant(owner, attribute, mutate, config, code,
                                   tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))
    monkeypatch.chdir(tmp_path)  # the configs' output_dir is relative
    assert cli(["simulate", "--config", str(CONFIGS / f"{config}.cfg")]) == code
    assert "verdict: fail" in capsys.readouterr().out.splitlines()
