"""The package's public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ohsqueeze

#: Public functions and methods no CLI command calls, and why each stays.
NOT_REACHED_BY_CLI = {
    # closed-form oracles the tests and the acceptance gate check the kernel against
    "analytic.ku_moments": "closed-form oracle",
    "analytic.ku_xi": "closed-form oracle",
    "analytic.lnl_moments": "closed-form oracle",
    "analytic.lnl_xi": "closed-form oracle",
    "analytic.extremal_time": "closed-form oracle",
    "hamiltonians.full_matrix_tabulated": "the benchmark's eight-level oracle imports it",
    "cli.entry": "the console script; it calls main and exits",
}

#: Small runs covering every command, both models, every analysis-angle
#: policy, CSV and JSON, and reduced, lab-frame and --si-time inputs.
CLI_RUNS = [
    ["simulate", "--scenario", "ku", "--model", "both", "--points", "5"],
    ["simulate", "--scenario", "ku", "--n-policy", "scan", "--points", "5", "--format", "json"],
    ["simulate", "--scenario", "ku", "--n-policy", "fixed:0.3", "--points", "5"],
    ["simulate", "--scenario", "lnl", "--model", "full", "--e-vpcm", "1000", "--b-gauss", "20",
     "--si-time", "--points", "5"],
    ["simulate", "--scenario", "general", "--theta-deg", "37.5", "--points", "5",
     "--format", "json"],
    ["sweep-theta", "--theta-list", "30,90", "--model", "full", "--points", "5",
     "--format", "json"],
    ["sweep-theta", "--theta-list", "30,90", "--points", "5"],
    ["optimize-r", "--format", "json"],
    ["optimize-r", "--format", "csv", "--grid-points", "5"],
    ["compare", "--scenario", "ku", "--points", "5"],
    ["compare", "--scenario", "lnl", "--points", "5", "--format", "json"],
]

# Runs in a fresh interpreter so that the profiler sees the calls the
# package makes while it is imported, such as its spin operators.
_REACH_SCRIPT = """
import contextlib, importlib, inspect, io, json, pkgutil, sys

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import ohsqueeze.cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(ohsqueeze.cli.main(argv))
sys.setprofile(None)

def public_functions():
    for info in pkgutil.iter_modules(ohsqueeze.__path__):
        module = importlib.import_module("ohsqueeze." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield info.name + "." + name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    member = member.fget if isinstance(member, property) else member
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield info.name + "." + name + "." + attr, member

missed = sorted(name for name, fn in public_functions() if fn.__code__ not in called)
print(json.dumps({"exit_codes": codes, "missed": missed}))
"""


def test_every_exported_name_resolves():
    assert [name for name in ohsqueeze.__all__ if not hasattr(ohsqueeze, name)] == []


def test_removed_optimize_module_is_gone():
    assert "optimize" not in ohsqueeze.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ohsqueeze.optimize")


def test_removed_named_builders_are_gone():
    # every four-level Hamiltonian is build_reduced at the field's angle
    for name in ("HamiltonianKind", "build_named"):
        assert name not in ohsqueeze.__all__
        assert not hasattr(ohsqueeze, name)
        assert not hasattr(ohsqueeze.hamiltonians, name)


def test_removed_unreached_names_are_gone():
    # the rotated-frame builder and the twist-sign resolver are test oracles
    # in tests/reference.py; the regime warning and predicates had no caller
    for module, name in (
        ("hamiltonians", "AdiabaticRegimeWarning"),
        ("hamiltonians", "build_adiabatic"),
        ("hamiltonians", "build_rotated_frame"),
        ("units", "adiabaticity_ratio"),
        ("dynamics", "resolve_twist_sign"),
    ):
        assert name not in ohsqueeze.__all__
        assert not hasattr(ohsqueeze, name)
        assert not hasattr(importlib.import_module(f"ohsqueeze.{module}"), name)
    assert not hasattr(ohsqueeze.linalg, "hermitian_defect")
    assert not hasattr(ohsqueeze.FieldParams, "is_adiabatic")
    assert not hasattr(ohsqueeze.SpinOps, "dim")


def test_cli_reaches_every_public_function():
    src = str(Path(ohsqueeze.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _REACH_SCRIPT, json.dumps(CLI_RUNS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["exit_codes"] == [0] * len(CLI_RUNS)
    for name in NOT_REACHED_BY_CLI:
        module, _, rest = name.partition(".")
        assert hasattr(importlib.import_module(f"ohsqueeze.{module}"), rest), name
    assert sorted(set(result["missed"]) - set(NOT_REACHED_BY_CLI)) == []
