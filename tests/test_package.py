"""The package's public names."""

import importlib

import pytest

import ohsqueeze


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
