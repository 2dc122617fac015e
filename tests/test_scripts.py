"""Exit codes of the demonstration scripts."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestPstarSurface:
    def run(self, mod, tmp_path, monkeypatch):
        out = tmp_path / "surface.csv"
        monkeypatch.setattr(
            sys, "argv", ["pstar_surface.py", "--count", "3", "--out", str(out)]
        )
        return mod.main()

    def test_agreement_exits_0(self, tmp_path, monkeypatch):
        assert self.run(load("pstar_surface"), tmp_path, monkeypatch) == 0

    @pytest.mark.parametrize("bad", [math.nan, 1.0])
    def test_nan_or_large_error_exits_1(self, tmp_path, monkeypatch, bad):
        # one point away from w = 0 goes wrong, the others stay exact
        mod = load("pstar_surface")
        real = mod.log_kernel_on_fiber
        calls = []

        def faulty(problem, w, z):
            calls.append(w)
            value = real(problem, w, z)
            return value + bad if len(calls) == 1 else value

        monkeypatch.setattr(mod, "log_kernel_on_fiber", faulty)
        assert self.run(mod, tmp_path, monkeypatch) == 1


class TestExtensionSweep:
    def run(self, mod, monkeypatch):
        monkeypatch.setattr(
            sys, "argv",
            ["extension_sweep.py", "--radii", "1.0", "0.3", "--degree", "4"],
        )
        return mod.main()

    def test_agreement_exits_0(self, monkeypatch):
        assert self.run(load("extension_sweep"), monkeypatch) == 0

    def test_perturbed_ratio_exits_1(self, monkeypatch):
        mod = load("extension_sweep")
        real = mod.optimal_constant_check
        monkeypatch.setattr(
            mod, "optimal_constant_check", lambda p, r: real(p, r) + 1e-6
        )
        assert self.run(mod, monkeypatch) == 1
