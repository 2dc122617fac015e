"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


#: the shipped configs, and scan_pstar with the optional quadrature object
#: that none of them writes
SHIPPED = {
    **{p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))},
    "scan_pstar+quadrature": {
        **json.loads((CONFIGS / "scan_pstar.json").read_text()),
        "quadrature": {"radialNodes": 32, "angularNodes": 64, "innerCutoff": 0.0},
    },
}


def numeric_leaves(x, path=()):
    """(key path, is an integer) of each number in a JSON value."""
    if isinstance(x, (dict, list)):
        for k, v in x.items() if isinstance(x, dict) else enumerate(x):
            yield from numeric_leaves(v, path + (k,))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield path, isinstance(x, int)


def key_path(path) -> str:
    """A key path as error messages write it: ``weight.g[1].beta[2]``."""
    return "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in path
    ).lstrip(".")


def run(command, config, out, seed=0, extra=()):
    return cli.main(
        [command, "--config", str(config), "--out", str(out), "--seed", str(seed),
         *extra]
    )


def payload(path):
    return json.loads(Path(path).read_text())["payload"]


class TestKernelCommand:
    def test_unit_disc_dirac(self, tmp_path):
        code = run("kernel", CONFIGS / "kernel_disc_dirac.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "kernel.json")
        assert out["K"] == pytest.approx(1.0 / math.pi, abs=1e-9)
        assert out["modelRank"] == 41

    def test_empty_model_warns_and_returns_zero(self, tmp_path, capsys):
        code = run("kernel", CONFIGS / "kernel_empty_model.json", tmp_path)
        assert code == 0
        assert "warning" in capsys.readouterr().err
        out = payload(tmp_path / "kernel.json")
        assert out["K"] == 0.0 and out["logK"] == "-inf"

    def test_inner_cutoff_is_honoured_by_every_method_or_refused(self, tmp_path):
        # a centered quadratic took exact whole-disc moments under "auto"
        cfg = {**json.loads((CONFIGS / "kernel_disc_dirac.json").read_text()),
               "weight": {"variant": "quadratic", "coeffs": [1.0]}, "degree": 6,
               "quadrature": {"innerCutoff": 0.05}}
        K = {}
        for method in ("auto", "quadrature", "closed"):
            (tmp_path / f"{method}.json").write_text(json.dumps({**cfg, "method": method}))
            code = run("kernel", tmp_path / f"{method}.json", tmp_path / method)
            assert code == (2 if method == "closed" else 0)
            if code == 0:
                K[method] = payload(tmp_path / method / "kernel.json")["K"]
        assert K["auto"] == K["quadrature"] == 0.5055557719239062

    def test_invalid_schema_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["unexpectedKey"] = 1
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("kernel", bad, out) == 2
        assert not (out / "kernel.json").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert run("kernel", tmp_path / "nope.json", tmp_path) == 2

    @pytest.mark.parametrize(
        "center, weight",
        [
            (0.3, {"variant": "log_monomial", "coeffs": [1.5]}),
            (
                0.3,
                {
                    "variant": "sum",
                    "parts": [
                        {"variant": "log_monomial", "coeffs": [0.6]},
                        {"variant": "log_monomial", "coeffs": [0.6]},
                    ],
                },
            ),
            (0.5, {"variant": "log_monomial", "coeffs": [1.5]}),
        ],
    )
    def test_off_center_log_pole_inside_disc_exits_2(
        self, tmp_path, capsys, center, weight
    ):
        # |z|^-2c with c >= 1 in total is not integrable at z = 0, which
        # lies in the closed disc |z - center| <= 0.5
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["domain"] = {"radii": [0.5], "center": [[center, 0.0]]}
        cfg["weight"] = weight
        cfg["point"] = [[center, 0.0]]
        cfg["degree"] = 4
        bad = tmp_path / "pole.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("kernel", bad, out) == 2
        assert "not integrable" in capsys.readouterr().err
        assert not (out / "kernel.json").exists()

    def test_weight_arity_mismatch_exits_2(self, tmp_path, capsys):
        # a 2-coefficient quadratic on one disc: the Gram took the first
        # coefficient, ignored the second, and the command exited 0
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["weight"] = {"variant": "quadratic", "coeffs": [1, 5]}
        bad = tmp_path / "arity.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("kernel", bad, out) == 2
        assert "weight arity 2 does not match the domain arity 1" in (
            capsys.readouterr().err
        )
        assert not (out / "kernel.json").exists()

    @pytest.mark.parametrize("center", [
        [[0.1, 0.0], [0.9, 0.0]], [[0.1, 0.0], [0.2, 0.0]], []])
    def test_quadratic_center_of_another_length_exits_2(self, tmp_path, capsys,
                                                        center):
        # the second center coordinate was dropped: K = 0.50862 whatever it
        # was, exit 0; an empty center stays the origin
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["weight"] = {"variant": "quadratic", "coeffs": [1.0], "center": center}
        config = tmp_path / "center.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        if not center:
            assert run("kernel", config, out) == 0
            return
        assert run("kernel", config, out) == 2
        assert "2 center coordinates for 1 coefficient" in capsys.readouterr().err
        assert not (out / "kernel.json").exists()

    def test_sum_of_two_divisors_exits_2(self, tmp_path, capsys):
        g = [{"beta": [1], "re": 1.0, "im": 0.0}, {"beta": [0], "re": -0.2, "im": 0.0}]
        divisor = {"variant": "log_divisor", "c": 1.0, "arity": 1, "g": g}
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["weight"] = {"variant": "sum", "parts": [divisor, divisor]}
        bad = tmp_path / "two.json"
        bad.write_text(json.dumps(cfg))
        assert run("kernel", bad, tmp_path / "out") == 2
        assert "two divisor" in capsys.readouterr().err


#: a one-dimensional scan-psh of the zero joint weight over a fiber disc of
#: radius 20, whose moments pi R^(2k + 2) / (k + 1) leave the float range at
#: k = 119
SCAN_RADIUS_20 = {
    "command": "scan-psh", "fiberDomain": {"radii": [20.0]},
    "baseDomain": {"radii": [1.0]},
    "weight": {"variant": "joint_zero", "zArity": 1, "wArity": 1},
    "family": {"zArity": 1, "wArity": 1, "terms": [
        {"alpha": [0], "poly": [{"beta": [0], "re": 1.0, "im": 0.0}]}]},
    "degree": 119, "z": [[0.0, 0.0]], "grid": {"halfWidth": 0.1, "count": 2},
}


class TestMomentOutsideTheFloatRange:
    """A closed-form moment that overflows, or underflows to 0, is refused
    (exit 2, one error line naming the monomial and the radii); it raised
    OverflowError, or entered the Gram as 0."""

    @pytest.mark.parametrize("command, edits, alpha, radii", [
        ("kernel", {"domain": {"radii": [20.0]}, "degree": 119}, 119, 20.0),
        # the P = 1 branch: exp overflows
        ("kernel", {"domain": {"radii": [20.0]}, "degree": 200,
                    "weight": {"variant": "quadratic", "coeffs": [1.0]}},
         171, 20.0),
        ("scan-psh", SCAN_RADIUS_20, 119, 20.0),
        # 0.01^(2k + 2) underflows to 0 from k = 80
        ("kernel", {"domain": {"radii": [0.01]}, "degree": 100}, 80, 0.01),
        # e^{800} on the quadrature path (the quadratic is off center): it
        # raised OverflowError, exit 1
        ("kernel", {"degree": 3, "weight": {"variant": "sum", "parts": [
            {"variant": "quadratic", "coeffs": [1.0], "center": [[0.2, 0.0]]},
            {"variant": "constant", "arity": 1, "value": -800.0}]}}, 0, 1.0),
    ], ids=["kernel", "kernel_quadratic", "scan_psh", "kernel_underflow",
            "kernel_shift"])
    def test_exits_2(self, tmp_path, capsys, command, edits, alpha, radii):
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg = edits if command == "scan-psh" else {**cfg, **edits}
        path = tmp_path / "moment.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(command, path, out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert (f"(z - center)^({alpha},) (degree {alpha}) on radii ({radii},)"
                in err)
        assert "outside the float range" in err
        assert not out.exists() or not any(out.iterdir())


def test_scan_on_a_wide_moment_range(tmp_path):
    # at degree 117 the moments of the disc of radius 20 span ~300 decades:
    # the kernel at z = 0 is 1 / (400 pi) on every fiber, where a cutoff on
    # the unscaled Gram dropped the constant and wrote logK = -inf
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({**SCAN_RADIUS_20, "degree": 117}))
    assert run("scan-psh", path, tmp_path / "o") == 0
    lines = (tmp_path / "o" / "scan.csv").read_text().splitlines()[2:]
    assert len(lines) == 4
    for line in lines:
        logk = float(line.split(",")[2])
        assert abs(logk + math.log(400.0 * math.pi)) <= 1e-12


class TestScanPshCommand:
    def test_pstar_scan_passes_and_matches_closed_form(self, tmp_path):
        code = run("scan-psh", CONFIGS / "scan_pstar.json", tmp_path)
        assert code == 0
        reports = payload(tmp_path / "psh_report.json")["reports"]
        assert reports and all(r["verdict"] == "PASS" for r in reports)
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == "w_re,w_im,logK"
        for line in lines[2:]:
            re, im, lk = line.split(",")
            w = complex(float(re), float(im))
            if abs(w) >= 0.05:
                expect = 2 * math.log(abs(w)) - 2 * math.log(math.pi)
                assert float(lk) == pytest.approx(expect, abs=1e-6)

    def test_control_family_reports_fail_with_exit_1(self, tmp_path):
        code = run("scan-psh", CONFIGS / "scan_control.json", tmp_path)
        assert code == 1
        reports = payload(tmp_path / "psh_report.json")["reports"]
        assert any(r["verdict"] == "FAIL" for r in reports)

    @pytest.mark.parametrize("name", ["scan_pstar", "scan_control"])
    def test_report_keys_are_the_camel_case_report_fields(self, tmp_path, name):
        run("scan-psh", CONFIGS / f"{name}.json", tmp_path)
        reports = payload(tmp_path / "psh_report.json")["reports"]
        assert reports and all(r.keys() == {
            "center", "radius", "samples", "centerValue", "circleAverage",
            "maxViolation", "infinityCount", "verdict", "tolerance", "diagnostic",
        } for r in reports)

    def test_circle_exceeding_base_domain_exits_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "scan_pstar.json").read_text())
        cfg["circles"] = [
            {"w0": [0.9, 0.0], "radius": 0.5, "samples": 64, "kind": "base"}
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("scan-psh", bad, tmp_path / "o") == 2

    @pytest.mark.parametrize("dw, code", [(0.5, 0), (1.0, 2)])
    def test_joint_circle_bound_uses_its_base_track(self, tmp_path, dw, code):
        # the base track of a joint circle has radius radius * |dw|: 0.125
        # about w0 = 0.8 stays in the unit disc, 0.25 does not
        cfg = json.loads((CONFIGS / "scan_pstar.json").read_text())
        del cfg["grid"]
        cfg["circles"] = [{
            "z": [[0.1, 0.0], [0.2, 0.0]], "w0": [0.8, 0.0], "radius": 0.25,
            "samples": 64, "kind": "joint", "dz": [[0.5, 0.0], [0.5, 0.0]],
            "dw": [[dw, 0.0]],
        }]
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(cfg))
        assert run("scan-psh", path, tmp_path / "o") == code
        if code == 0:
            reports = payload(tmp_path / "o" / "psh_report.json")["reports"]
            assert [r["verdict"] for r in reports] == ["PASS"]

    def test_empty_square_grid_exits_2(self, tmp_path, capsys):
        # as in lambda and annihilate: not a scan.csv with a header and no rows
        cfg = json.loads((CONFIGS / "scan_pstar.json").read_text())
        cfg["grid"] = {"halfWidth": 0.6, "count": 0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("scan-psh", bad, tmp_path / "o") == cli.EXIT_CONFIG
        assert "count" in capsys.readouterr().err
        assert not (tmp_path / "o" / "scan.csv").exists()

    def test_one_fiber_model_per_command(self, tmp_path, monkeypatch):
        # the two circles, the joint line and the grid share the model of psi
        import xibergman.fiberwise as fiberwise

        calls = []
        real = fiberwise.assemble_gram
        monkeypatch.setattr(fiberwise, "assemble_gram",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert run("scan-psh", CONFIGS / "scan_pstar.json", tmp_path) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("config", ["scan_pstar", "scan_control"])
    def test_one_kernel_call_per_command(self, tmp_path, monkeypatch, config):
        # every circle and the grid are the rows of one kernel call, whose
        # fiber models are one pass of _fiber_models
        import xibergman.fiberwise as fiberwise

        calls = {}
        for name in ("kernel_on_fiber", "_fiber_models"):
            real = getattr(fiberwise, name)
            monkeypatch.setattr(fiberwise, name, lambda *a, _real=real, _name=name,
                                **k: calls.setdefault(_name, []).append(a)
                                or _real(*a, **k))
        run("scan-psh", CONFIGS / f"{config}.json", tmp_path)
        assert {k: len(v) for k, v in calls.items()} == {
            "kernel_on_fiber": 1, "_fiber_models": 1}

    @pytest.mark.parametrize("path, value", [
        # one coordinate too many: it was dropped, yet echoed in "center"
        (("circles", 2, "dz"), [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]),
        (("circles", 2, "z"), [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]),
        (("circles", 2, "dw"), [[0.5, 0.0], [0.1, 0.0]]),
        (("circles", 0, "w0"), [[0.4, 0.0], [0.1, 0.0]]),
        (("circles", 1, "z"), [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]),
        (("z",), [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        # one too few: a numpy shape message named no key
        (("circles", 2, "dz"), [[0.5, 0.0]]),
        (("circles", 2, "z"), [[0.1, 0.0]]),
        (("circles", 2, "dw"), []),
        (("circles", 0, "w0"), []),
        (("z",), [[0.0, 0.0]]),
    ], ids=lambda x: key_path(x) if isinstance(x, tuple) else f"{len(x)}-coordinates")
    def test_a_point_of_another_arity_exits_2(self, tmp_path, capsys, path, value):
        cfg = json.loads((CONFIGS / "scan_pstar.json").read_text())
        *parents, key = path
        target = cfg
        for k in parents:
            target = target[k]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("scan-psh", bad, tmp_path / "o") == cli.EXIT_CONFIG
        arity = 1 if key in ("w0", "dw") else 2
        assert (f"error: {key_path(path)}: {len(value)} coordinates, not {arity}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o" / "psh_report.json").exists()

    @pytest.mark.parametrize("radius", [0, 0.0, -0.2])
    def test_a_radius_that_is_not_positive_exits_2(self, tmp_path, capsys, radius):
        # radius 0 passed trivially at its own center; -0.2 was reported as is
        cfg = json.loads((CONFIGS / "scan_pstar.json").read_text())
        cfg["circles"][1]["radius"] = radius
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("scan-psh", bad, tmp_path / "o") == cli.EXIT_CONFIG
        assert (f"error: circles[1].radius: must be positive, not {float(radius)!r}"
                in capsys.readouterr().err)

    def test_deterministic_rerun_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("scan-psh", CONFIGS / "scan_pstar.json", a) == 0
        assert run("scan-psh", CONFIGS / "scan_pstar.json", b) == 0
        for name in ("scan.csv", "psh_report.json"):
            la = (a / name).read_text().splitlines()
            lb = (b / name).read_text().splitlines()
            diffs = [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]
            assert all("generated" in la[i] for i in diffs)


class TestAnnihilateCommand:
    def test_pencil_rows(self, tmp_path):
        code = run("annihilate", CONFIGS / "annihilate_pencil.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "annihilator.json")
        assert out["rank"] == 1 and out["s"] == 2
        assert out["productResidual"] < 1e-10
        assert len(out["rows"]) == 2

    @pytest.mark.parametrize(
        "grid",
        [[0.3, math.nan], [0.3, math.inf], {"halfWidth": math.inf, "count": 5}],
        ids=["nan-point", "inf-point", "inf-half-width"],
    )
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, grid):
        cfg = json.loads((CONFIGS / "annihilate_pencil.json").read_text())
        cfg["wGrid"] = grid
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(cfg))
        assert run("annihilate", path, tmp_path / "o") == cli.EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "annihilator.json").exists()


class TestTwoBaseCoordinates:
    IDEAL = {
        "zArity": 2, "wArity": 2, "truncation": 2,
        "generators": [[{"beta": [1, 0, 0, 0], "re": 1.0, "im": 0.0},
                        {"beta": [0, 1, 1, 0], "re": -1.0, "im": 0.0}]],
    }

    def test_annihilate_without_grid(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"ideal": self.IDEAL}))
        assert run("annihilate", path, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "annihilator.json")
        assert out["rank"] == 1 and out["productResidual"] < 1e-10

    def test_square_grid_form_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(
            {"ideal": self.IDEAL, "wGrid": {"halfWidth": 0.6, "count": 5}}
        ))
        assert run("annihilate", path, tmp_path / "o") == cli.EXIT_CONFIG
        assert "halfWidth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [
            [[[0.3, 0.0], [0.2, 0.0], [0.1, 0.0], [0.4, 0.0]]],
            [[[0.3, 0.0], [0.2, 0.0], [0.1, 0.0], [0.4, 0.0]],
             [[0.3, 0.0], [0.2, 0.0]]],
        ],
        ids=["four-coordinates", "four-coordinates-then-good"],
    )
    def test_point_with_wrong_coordinate_count_exits_2(self, tmp_path, capsys, grid):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"ideal": self.IDEAL, "wGrid": grid}))
        assert run("annihilate", path, tmp_path / "o") == cli.EXIT_CONFIG
        assert "4 coordinates, not 2" in capsys.readouterr().err
        assert not (tmp_path / "o" / "annihilator.json").exists()


class TestAnnihilateNumericalFailure:
    def test_degenerate_input_exits_3_with_error_record(
        self, tmp_path, monkeypatch, capsys
    ):
        from xibergman import ideal

        def degenerate(*args, **kwargs):
            raise ideal.DegenerateInputError("no nonsingular pivot block")

        monkeypatch.setattr(ideal, "build_annihilator", degenerate)
        code = run("annihilate", CONFIGS / "annihilate_pencil.json", tmp_path)
        assert code == cli.EXIT_NUMERICAL == 3
        assert "no nonsingular pivot block" in capsys.readouterr().err
        assert payload(tmp_path / "error.json") == {
            "error": "DegenerateInputError",
            "message": "no nonsingular pivot block",
        }
        assert not (tmp_path / "annihilator.json").exists()


class TestLambdaCommand:
    def test_pstar_lambda_is_origin_with_krull(self, tmp_path):
        code = run("lambda", CONFIGS / "lambda_pstar.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "lambda.json")
        assert out["agree"] is True
        assert out["lambdaPsi"] == [[[0.0, 0.0]]]
        assert out["krull"]["nested"] is True
        assert out["krull"]["stabilizedAt"] == 2
        assert out["krull"]["perN"] == {"2": 1, "3": 1}
        lines = (tmp_path / "lambda.csv").read_text().splitlines()
        assert lines[1] == "w_re,w_im,in_Lambda,PsiN"
        in_lambda = [l.split(",")[2] for l in lines[2:]]
        assert in_lambda.count("1") == 1

    def test_two_base_coordinates_in_csv(self, tmp_path):
        # I = (z1) over w in C^2 with weight 2 log|z1 - w1 z2|: the fiber
        # multiplier ideal (z1 - w1 z2) lies in I + m^2 exactly when w1 = 0
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        cfg["ideal"] = {
            "zArity": 2, "wArity": 2, "truncation": 2,
            "generators": [[{"beta": [1, 0, 0, 0], "re": 1.0, "im": 0.0}]],
        }
        cfg["weight"]["arity"] = 4
        cfg["weight"]["g"] = [
            {"beta": [1, 0, 0, 0], "re": 1.0, "im": 0.0},
            {"beta": [0, 1, 1, 0], "re": -1.0, "im": 0.0},
        ]
        cfg["grid"] = [[[0.0, 0.0], [0.3, 0.1]], [[0.4, 0.0], [0.0, -0.2]],
                       [[0.1, -0.2], [0.2, 0.0]]]
        del cfg["nMax"]
        path = tmp_path / "lambda2.json"
        path.write_text(json.dumps(cfg))
        assert run("lambda", path, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "lambda.json")
        assert out["agree"] is True
        assert out["lambdaPsi"] == [[[0.0, 0.0], [0.3, 0.1]]]
        lines = (tmp_path / "o" / "lambda.csv").read_text().splitlines()
        assert lines[1] == "w1_re,w1_im,w2_re,w2_im,in_Lambda,PsiN"
        rows = [l.split(",") for l in lines[2:]]
        assert [[float(x) for x in r[:4]] for r in rows] == [
            [0.0, 0.0, 0.3, 0.1], [0.4, 0.0, 0.0, -0.2], [0.1, -0.2, 0.2, 0.0]
        ]
        assert [r[4] for r in rows] == ["1", "0", "0"]

    @pytest.mark.parametrize("value", [-40.0, 0.0, 40.0])
    def test_constant_weight_leaves_lambda_empty(self, tmp_path, value):
        # psi + c scales every kernel by e^-c: whether Psi_N is -inf must
        # not depend on c (the multiplier ideal of a constant is the unit)
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        del cfg["nMax"]
        cfg["weight"] = {
            "variant": "w_independent", "wArity": 1,
            "base": {"variant": "constant", "arity": 2, "value": value},
        }
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(cfg))
        assert run("lambda", path, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "lambda.json")
        assert out["agree"] is True and out["lambdaPsi"] == []

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_nmax_below_the_truncation_exits_2(self, tmp_path, capsys, n_max):
        # nMax 2 under truncation 3 wrote no krull block and exited 0; nMax
        # equal to the truncation is a plain scan
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        cfg["ideal"]["truncation"] = 3
        cfg["nMax"] = n_max
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        if n_max == 3:
            assert run("lambda", path, out) == 0
            assert "krull" not in payload(out / "lambda.json")
            return
        assert run("lambda", path, out) == 2
        assert capsys.readouterr().err == (
            "error: nMax: must be at least the truncation 3, not 2\n")
        assert not any(out.iterdir())

    def test_nmax_reuses_the_first_scan(self, tmp_path, monkeypatch):
        from xibergman import ideal

        orders = []
        real_scan = ideal.lambda_scan

        def counting_scan(fam, *args, **kwargs):
            orders.append(fam.truncation)
            return real_scan(fam, *args, **kwargs)

        monkeypatch.setattr(ideal, "lambda_scan", counting_scan)
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        cfg["nMax"] = 4
        path = tmp_path / "lambda4.json"
        path.write_text(json.dumps(cfg))
        assert run("lambda", path, tmp_path / "o") == 0
        assert orders == [2, 3, 4]
        krull = payload(tmp_path / "o" / "lambda.json")["krull"]
        assert krull["perN"] == {"2": 1, "3": 1, "4": 1}

    def test_lambda_sets_not_nested_disagree_and_exit_1(self, tmp_path, monkeypatch):
        # Lambda_3 holds a grid point outside Lambda_2 = {0}: the scan at the
        # truncation agrees with itself, but the Krull check fails
        from xibergman import ideal

        real_scan = ideal.lambda_scan

        def growing_scan(fam, *args, **kwargs):
            scan = real_scan(fam, *args, **kwargs)
            if fam.truncation == 3:
                scan.lambda_psi = [0] + scan.lambda_psi
            return scan

        monkeypatch.setattr(ideal, "lambda_scan", growing_scan)
        assert run("lambda", CONFIGS / "lambda_pstar.json", tmp_path) == 1
        out = payload(tmp_path / "lambda.json")
        assert out["agree"] is False and out["mismatches"] == []
        assert out["krull"]["nested"] is False
        assert out["krull"]["stabilizedAt"] is None
        assert out["krull"]["perN"] == {"2": 1, "3": 2}

    def test_nmax_builds_each_fiber_model_once(self, tmp_path, monkeypatch):
        # a fiber model depends on neither the jet order nor the grid point
        # under P*: one per jet order (N = 2, 3, 4), shared by the rows of
        # B(w), not one per grid point (81)
        from xibergman import fiberwise

        calls = []
        real_gram = fiberwise.assemble_gram

        def counting_gram(*args, **kwargs):
            calls.append(args[1])
            return real_gram(*args, **kwargs)

        monkeypatch.setattr(fiberwise, "assemble_gram", counting_gram)
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        for n_max, models in ((3, 2), (4, 3)):
            calls.clear()
            cfg["nMax"] = n_max
            path = tmp_path / f"lambda{n_max}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"o{n_max}"
            assert run("lambda", path, out) == 0
            assert len(calls) == models and len(set(map(repr, calls))) == 1
            assert payload(out / "lambda.json")["lambdaPsi"] == [[[0.0, 0.0]]]

    @pytest.mark.parametrize("weight, message", [
        # P* with c = 0.5 at degree 2 on a 4 x 4 rule: 162 fiber models were
        # built before the refusal, and minutes of them on the default rule
        ({"variant": "joint_log_divisor", "zArity": 2, "c": 0.5, "arity": 3,
          "g": [{"beta": [1, 0, 0], "re": 1.0, "im": 0.0},
                {"beta": [0, 1, 1], "re": -1.0, "im": 0.0}]},
         "no multiplier-ideal oracle for a divisor through the origin"
         " with c = 0.5 != 1"),
        ({"variant": "w_independent", "wArity": 1, "base": {
            "variant": "sum", "parts": [
                {"variant": "log_monomial", "coeffs": [1.0, 0.0]},
                {"variant": "log_divisor", "c": 1.0, "arity": 2,
                 "g": [{"beta": [0, 1], "re": 1.0, "im": 0.0}]}]}},
         "no oracle for mixed singular sums"),
    ], ids=["divisor_c", "mixed_sum"])
    def test_no_oracle_exits_2_before_any_fiber_model(self, tmp_path, capsys,
                                                      monkeypatch, weight,
                                                      message):
        from xibergman import fiberwise

        calls = []
        real_gram = fiberwise.assemble_gram
        monkeypatch.setattr(fiberwise, "assemble_gram",
                            lambda *a, **k: calls.append(a[1]) or real_gram(*a, **k))
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        cfg.update(weight=weight, degree=2,
                   quadrature={"radialNodes": 4, "angularNodes": 4})
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(cfg))
        assert run("lambda", path, tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []


def _spy_assemble_gram(monkeypatch):
    """Record the domain arity of every assemble_gram call, in every module
    that binds it."""
    from xibergman import bergman, extension, fiberwise, ideal

    original = bergman.assemble_gram
    arities = []

    def spy(domain, *args, **kwargs):
        arities.append(domain.arity)
        return original(domain, *args, **kwargs)

    for mod in (bergman, extension, fiberwise, ideal):
        if getattr(mod, "assemble_gram", None) is original:
            monkeypatch.setattr(mod, "assemble_gram", spy)
    return arities


class TestExtendCommand:
    @pytest.mark.parametrize("name, code, expect", [
        ("extend_gaussian", 0, [1, 2]),
        ("extend_windependent", 0, [1, 2]),
        ("extend_gaussian_steep", 1, [1, 1, 2]),
        ("extend_joint_divisor", 0, [1, 1, 2]),
    ], ids=["extend_gaussian-0", "extend_windependent-0", "extend_gaussian_steep-1",
            "extend_joint_divisor-0"])
    def test_one_joint_and_one_central_fiber_model(
        self, tmp_path, monkeypatch, name, code, expect
    ):
        # the joint model and the central fiber model (fiber norms and the
        # extremal datum); the Jensen datum is solved against the same joint
        # model, and the Jensen kernels reuse the central model where their
        # fiber weight is its weight.  Off w0 = 0 the Gaussian's kernels
        # model psi without the shift |w0|^2, and a joint divisor's model
        # the rest of the weight: one model more
        arities = _spy_assemble_gram(monkeypatch)
        assert run("extend", CONFIGS / f"{name}.json", tmp_path) == code
        assert sorted(arities) == expect

    def test_joint_divisor_with_c_above_one_refused_at_its_joint_gram(
        self, tmp_path, monkeypatch, capsys
    ):
        # 2c log|z - w| with c = 1.5: no joint basis element is square
        # integrable, and the tensor rule read a grid-dependent joint norm
        # before the fiber model refused c != 1
        cfg = json.loads((CONFIGS / "extend_joint_divisor.json").read_text())
        cfg["weight"]["c"] = 1.5
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        arities = _spy_assemble_gram(monkeypatch)
        assert run("extend", config, tmp_path / "o") == 2
        assert "may not be integrable where g vanishes" in capsys.readouterr().err
        assert arities == [2]
        assert not (tmp_path / "o" / "extend.json").exists()

    def test_joint_weight_arity_mismatch_exits_2(self, tmp_path, capsys):
        # cz = [1, 5] on one fiber disc: the joint Gram read cz[1] as the w
        # coefficient and the command reported ratio 0.1987, exit 0
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["weight"]["cz"] = [1.0, 5.0]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 2
        assert "weight arity 3 does not match the domain arity 2" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o" / "extend.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("baseRadius", math.nan, "baseRadius: expected a finite number"),
            ("baseRadius", math.inf, "baseRadius: expected a finite number"),
            ("baseRadius", 0.0, "base disc radius must be finite and positive"),
            ("dw", -1, "joint bidegree must be >= 0"),
            ("dz", -1, "joint bidegree must be >= 0"),
        ],
    )
    def test_bad_sizes_exit_2(self, tmp_path, capsys, key, value, message):
        # a NaN radius reached LAPACK (DLASCL, then "SVD did not converge"),
        # an infinite one raised a RuntimeWarning, and dw = -1 was blamed
        # on the datum
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg[key] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("extend", config, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert message in err and "datum" not in err
        assert not (tmp_path / "o" / "extend.json").exists()

    @pytest.mark.parametrize("jensen", [True, False], ids=["jensen", "no_jensen"])
    @pytest.mark.parametrize("dw", [24, 32])
    def test_impossible_norm_exits_3(self, tmp_path, capsys, dw, jensen):
        # cw = 800 about w0 = 0.9 at dw 24 and 32: the solve returns a
        # negative joint norm and ratio (-2.65e-263 and -1.08e21 at 24).
        # Without the Jensen block that exited 0, with it 1, on a NaN margin
        cfg = json.loads((CONFIGS / "extend_gaussian_steep.json").read_text())
        cfg["dw"] = dw
        if not jensen:
            del cfg["jensen"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("extend", config, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: jointNorm -") and err.count("\n") == 1
        assert "is not finite and positive" in err
        out = payload(tmp_path / "o" / "extend.json")
        assert out["jointNorm"] < 0 and out["ratio"] < 0 and "jensen" not in out

    def test_w_independent_ratio_one(self, tmp_path):
        code = run("extend", CONFIGS / "extend_windependent.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert out["kktResidual"] < 1e-9
        assert out["jensen"]["holds"] is True

    def test_joint_divisor_ratio_one(self, tmp_path):
        # g = z - w: the datum z is g times 1 on the central fiber, and the
        # extremal datum of the Jensen block is g z^alpha, outside the
        # monomial bidegree basis of the tensor rule (exit 2)
        code = run("extend", CONFIGS / "extend_joint_divisor.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert out["jensen"]["holds"] is True

    @pytest.mark.parametrize("value", [-80.0, 0.0, 80.0])
    def test_constant_weight_keeps_the_extremal_function(self, tmp_path, value):
        # under psi + c the kernel scales by e^-c (e^80 = 5.5e34); the
        # Dirac functional still has an extremal function
        cfg = json.loads((CONFIGS / "extend_windependent.json").read_text())
        cfg["weight"]["base"] = {"variant": "constant", "arity": 1, "value": value}
        path = tmp_path / "extend.json"
        path.write_text(json.dumps(cfg))
        assert run("extend", path, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "extend.json")
        assert out["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert out["jensen"]["holds"] is True

    def test_gaussian_ratio_and_jensen(self, tmp_path):
        code = run("extend", CONFIGS / "extend_gaussian.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] <= 1.0 + 5e-3
        assert out["jensen"]["holds"] is True

    def test_zero_fiber_datum_exits_2(self, tmp_path, capsys):
        # the ratio of a zero datum is 0/0: a configuration error, not a
        # ratio above the sharp bound
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["f"]["terms"] = []
        del cfg["jensen"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "zero weighted norm" in err and "sharp bound" not in err
        assert not (tmp_path / "o" / "extend.json").exists()

    def test_central_fiber_inside_the_divisor_exits_2(self, tmp_path, capsys):
        # g = w vanishes on the whole central fiber w0 = 0, so every joint
        # basis element does: the datum was refused with the bare
        # "min() arg is an empty sequence"
        cfg = json.loads((CONFIGS / "extend_joint_divisor.json").read_text())
        cfg["weight"]["g"] = [{"beta": [0, 1], "re": 1.0, "im": 0.0}]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == cli.EXIT_CONFIG
        assert "the central fiber w0 = 0 lies in the divisor g = 0" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o" / "extend.json").exists()

    def test_gaussian_off_center_base_runs(self, tmp_path):
        # e^{-|z|^2 - |w|^2} over the base disc about w0 = 0.3 is a product
        # weight but not radial about (0, w0); the tensor rule refused its
        # default grid (exit 2).  The minimal extension z e^{conj(w0)(w - w0)}
        # makes the ratio that of w0 = 0, which is 1 - 1/e
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["w0"] = [0.3, 0.0]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "extend.json")
        assert out["ratio"] <= 1.0
        assert out["ratio"] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert out["jensen"]["holds"] is True

    def test_empty_jensen_point_exits_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "extend_windependent.json").read_text())
        cfg["jensen"]["z0"] = []
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 2
        assert not (tmp_path / "o" / "extend.json").exists()

    def test_unknown_jensen_key_exits_2(self, tmp_path):
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["jensen"]["radialNodes"] = 4
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 2
        assert not (tmp_path / "o" / "extend.json").exists()

    @pytest.mark.parametrize("cw", [1.0, 800.0])
    def test_gaussian_jensen_margin_at_large_shift(self, tmp_path, cw):
        # the minimal extension of the extremal datum is constant in w, so
        # log|act|^2 - log K(w) = lhs - cw |w|^2 and the margin is cw r^2 / 2;
        # at cw = 800 a fiber Gram e^{-cw |w|^2} G underflows, so the kernels
        # must be taken in log space
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["weight"]["cw"] = [cw]
        cfg["dz"] = cfg["dw"] = 4
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 0
        jensen = payload(tmp_path / "o" / "extend.json")["jensen"]
        assert isinstance(jensen["rhs"], float)
        assert jensen["margin"] == pytest.approx(cw / 2, rel=1e-12)
        assert jensen["holds"] is True

    def test_failed_jensen_diagnostic_exits_1(self, tmp_path, capsys):
        # the degree-4 w-basis cannot follow the minimal extension, about
        # e^{720 (w - w0)}, so the ratio breaks the sharp bound 1 and the
        # command fails on it; the Jensen diagnostic, its |act| ~ 1e300 taken
        # as 2 log|act| without overflow, holds with a margin of about +1
        code = run("extend", CONFIGS / "extend_gaussian_steep.json", tmp_path)
        assert code == 1
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] == pytest.approx(3.488e21, rel=1e-3)
        assert out["kktResidual"] == 0.0
        assert f"ratio {out['ratio']!r}" in capsys.readouterr().err
        jensen = out["jensen"]
        assert jensen["holds"] is True
        assert jensen["margin"] == pytest.approx(0.9863, abs=1e-3)

    def test_jensen_reporting_false_exits_1(self, tmp_path, monkeypatch):
        # a diagnostic that reports FAIL is exit 1, also when the ratio holds
        real = cli.extension.jensen_diagnostic

        def failing(*args, **kwargs):
            return {**real(*args, **kwargs), "holds": False}

        monkeypatch.setattr(cli.extension, "jensen_diagnostic", failing)
        code = run("extend", CONFIGS / "extend_gaussian.json", tmp_path)
        assert code == 1
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] <= 1.0 and out["jensen"]["holds"] is False

    def test_w_independent_log_monomial_keeps_columns_aligned(self, tmp_path):
        # c = 1.5 drops every label with no power of z from the joint model;
        # the restriction must follow the labels the model kept
        cfg = json.loads((CONFIGS / "extend_windependent.json").read_text())
        cfg["weight"]["base"] = {"variant": "log_monomial", "coeffs": [1.5]}
        cfg["f"]["terms"] = [{"beta": [1], "re": 1.0, "im": 0.0}]
        cfg["dz"] = cfg["dw"] = 4
        del cfg["jensen"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == 0
        out = payload(tmp_path / "o" / "extend.json")
        assert out["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert out["kktResidual"] < 1e-9

    @pytest.mark.parametrize("terms, code", [
        ([{"beta": [0], "re": 2.0, "im": 0.0}, {"beta": [1], "re": 1.0, "im": 0.0}], 0),
        ([{"beta": [0], "re": 1.0, "im": 0.0}], 2),
    ], ids=["g", "one"])
    def test_divisor_fiber_datum_is_read_on_its_basis(
        self, tmp_path, capsys, terms, code
    ):
        # the fiber basis is g z^alpha with g = 2 + z: the datum g has fiber
        # norm pi (the ratio read 0.2222) and 1 lies outside the span (the
        # ratio read 0.2878)
        g = [{"beta": [0], "re": 2.0, "im": 0.0}, {"beta": [1], "re": 1.0, "im": 0.0}]
        cfg = json.loads((CONFIGS / "extend_windependent.json").read_text())
        cfg["weight"]["base"] = {"variant": "log_divisor", "c": 1.0, "arity": 1,
                                 "g": g}
        cfg["f"]["terms"] = terms
        cfg["baseRadius"] = 0.5
        cfg["dz"] = cfg["dw"] = 3
        cfg["quadrature"] = {"radialNodes": 8, "angularNodes": 8}
        del cfg["jensen"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run("extend", config, tmp_path / "o") == code
        if code:
            assert "outside the span" in capsys.readouterr().err
            assert not (tmp_path / "o" / "extend.json").exists()
        else:
            out = payload(tmp_path / "o" / "extend.json")
            assert out["fiberNorm"] == pytest.approx(math.pi, rel=1e-12)
            assert out["ratio"] == pytest.approx(1.0, abs=1e-12)


class TestJointWeightCheck:
    """scan-psh, lambda and extend take a joint weight that fits the domains."""

    ZERO = {"variant": "zero", "arity": 2}
    # one fiber disc over a bidisc, the constant functional
    SCAN2 = {
        "fiberDomain": {"radii": [1.0]},
        "baseDomain": {"radii": [1.0, 1.0]},
        "family": {
            "zArity": 1, "wArity": 2,
            "terms": [{"alpha": [0], "poly": [{"beta": [0, 0], "re": 1.0, "im": 0.0}]}],
        },
        "degree": 4,
        "z": [[0.1, 0.0]],
        "circles": [{"w0": [[0.1, 0.0], [0.2, 0.0]], "radius": 0.2, "samples": 16}],
    }

    def _run(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run(command, path, tmp_path / "o")

    @pytest.mark.parametrize("command, name", [
        ("scan-psh", "scan_pstar"), ("lambda", "lambda_pstar"),
        ("extend", "extend_gaussian"),
    ])
    def test_fiber_weight_exits_2(self, tmp_path, capsys, command, name):
        # 'ZeroWeight' object has no attribute 'fiber' (for extend,
        # 'as_product_weight') escaped cli.main
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["weight"] = self.ZERO
        assert self._run(tmp_path, command, cfg) == cli.EXIT_CONFIG
        assert "a joint weight is required" in capsys.readouterr().err

    def test_fitting_joint_weight_on_a_bidisc_base_runs(self, tmp_path):
        cfg = dict(self.SCAN2, weight={
            "variant": "joint_quadratic_split", "cz": [1.0], "cw": [1.0, 1.0]})
        assert self._run(tmp_path, "scan-psh", cfg) == 0

    @pytest.mark.parametrize("weight", [
        # numpy broadcast cw over both base coordinates
        {"variant": "joint_quadratic_split", "cz": [1.0], "cw": [1.0]},
        {"variant": "w_independent", "wArity": 1,
         "base": {"variant": "zero", "arity": 1}},
        # its fibers ignored w2
        {"variant": "joint_pair_quadratic", "coeffs": [1.0]},
    ], ids=["split", "w_independent", "pair"])
    def test_scan_psh_base_arity_mismatch_exits_2(self, tmp_path, capsys, weight):
        assert self._run(tmp_path, "scan-psh", dict(self.SCAN2, weight=weight)) == 2
        assert "does not match the domain arity 3" in capsys.readouterr().err
        assert not (tmp_path / "o" / "psh_report.json").exists()

    def test_lambda_arity_mismatch_exits_2(self, tmp_path, capsys):
        # two base coefficients for the one base variable of the ideal
        cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
        cfg["weight"] = {
            "variant": "joint_quadratic_split", "cz": [1, 1], "cw": [1, 2]}
        assert self._run(tmp_path, "lambda", cfg) == 2
        assert "does not match the domain arity 3" in capsys.readouterr().err
        assert not (tmp_path / "o" / "lambda.json").exists()

    def test_extend_fiber_weight_of_the_joint_arity_exits_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "extend_gaussian.json").read_text())
        cfg["weight"] = {"variant": "quadratic", "coeffs": [1.0, 1.0]}
        assert self._run(tmp_path, "extend", cfg) == 2
        assert "a joint weight is required" in capsys.readouterr().err

    def test_kernel_of_a_split_weight_is_that_of_its_product_weight(self, tmp_path):
        # a joint weight is a weight on its product domain: an AttributeError
        # before
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["domain"] = {"radii": [1.0, 1.0]}
        cfg["functional"] = {"arity": 2, "terms": [
            {"alpha": [0, 0], "re": 1.0, "im": 0.0},
            {"alpha": [1, 0], "re": 0.5, "im": 0.0}]}
        cfg["point"] = [[0.1, 0.0], [0.0, 0.2]]
        cfg["degree"] = 8
        files = []
        for i, weight in enumerate([
            {"variant": "joint_quadratic_split", "cz": [1], "cw": [2]},
            {"variant": "quadratic", "coeffs": [1, 2]},
        ]):
            cfg["weight"] = weight
            path = tmp_path / f"k{i}.json"
            path.write_text(json.dumps(cfg))
            assert run("kernel", path, tmp_path / f"o{i}") == 0
            files.append((tmp_path / f"o{i}" / "kernel.json").read_text())
        split, product = (f.splitlines()[2:] for f in files)
        assert split == product


class TestArgumentHandling:
    def test_unknown_command_exits_2(self, tmp_path):
        assert cli.main(["frobnicate", "--config", "x"]) == 2

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        assert run("kernel", CONFIGS / "kernel_disc_dirac.json", tmp_path) == 0
        assert cli.main(["kernel"]) == cli.EXIT_CONFIG  # no --config
        assert cli.main(["frobnicate", "--config", "x"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, name, key, value",
        [
            # a grid point that is a list of pairs, not an [re, im] pair
            ("scan-psh", "scan_pstar.json", "grid", [[[0.1, 0.0], [0.2, 0.0]]]),
            # a coordinate with one component
            ("kernel", "kernel_disc_dirac.json", "point", [[0.1]]),
            # a point that is not a list of coordinates
            ("kernel", "kernel_disc_dirac.json", "point", 0.1),
        ],
    )
    def test_malformed_complex_number_exits_2(
        self, tmp_path, capsys, command, name, key, value
    ):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(command, bad, tmp_path / "o") == 2
        assert "expected a" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, edit", [
        # a number where a base point [re, im] list belongs
        ("scan-psh", "scan_pstar.json", lambda c: c["circles"][0].update(w0=0.3)),
        # a number where the grid object belongs
        ("lambda", "lambda_pstar.json", lambda c: c.update(grid=5)),
        # a number where the list of term objects belongs
        ("extend", "extend_gaussian.json",
         lambda c: c.update(f={"arity": 1, "terms": 5})),
        # a list where a number belongs
        ("kernel", "kernel_disc_dirac.json", lambda c: c.update(degree=[3])),
    ], ids=["circle_w0", "grid", "terms", "degree"])
    def test_value_of_the_wrong_type_exits_2(
        self, tmp_path, capsys, command, name, edit
    ):
        # each raised TypeError, which escaped main with exit 1
        cfg = json.loads((CONFIGS / name).read_text())
        edit(cfg)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(command, bad, tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, path, integer", [
        pytest.param(name, path, integer, id=f"{name}:{key_path(path)}")
        for name, cfg in SHIPPED.items() for path, integer in numeric_leaves(cfg)
    ])
    def test_number_of_the_wrong_json_type_exits_2(
        self, tmp_path, capsys, name, path, integer
    ):
        # a string, a bool, a non-finite number or (for an integer) a fraction
        # was read as a number; the error names the key path
        for value in ["6", True, math.nan, math.inf] + ([6.5] if integer else []):
            cfg = json.loads(json.dumps(SHIPPED[name]))
            obj = cfg
            for key in path[:-1]:
                obj = obj[key]
            obj[path[-1]] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(cfg))
            assert run(cfg["command"], bad, tmp_path / "o") == 2, value
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key_path(path)}: expected a"), err

    def test_validate_rejects_unknown_weight_variant(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config(
                {"command": "kernel", "domain": {"radii": [1.0]},
                 "weight": {"variant": "mystery"}, "functional": {},
                 "point": [], "degree": 1},
                "kernel",
            )


#: (config, its exit code) of every shipped kernel, scan-psh and extend
#: config, and a kernel under a centered quadratic, whose moment x = qR^2 = 1
#: is not below its exponent e = 1
STARTUP_CONFIGS = [
    (CONFIGS / f"{p.stem}.json", {"scan_control": 1, "extend_gaussian_steep": 1}
     .get(p.stem, 0))
    for p in sorted(CONFIGS.glob("*.json"))
    if json.loads(p.read_text())["command"] in ("kernel", "scan-psh", "extend")
] + [("kernel_quadratic", 0)]


class TestStartup:
    @pytest.mark.parametrize(
        "config, exit_code", STARTUP_CONFIGS,
        ids=[Path(c).stem for c, _ in STARTUP_CONFIGS])
    def test_never_loads_scipy(self, tmp_path, config, exit_code):
        # importing scipy.special costs ~0.3 s of start-up, more than
        # importing xibergman.cli; only the annihilator's QR (annihilate,
        # lambda) needs scipy
        if config == "kernel_quadratic":
            config = tmp_path / "kernel_quadratic.json"
            config.write_text(json.dumps({
                **json.loads((CONFIGS / "kernel_disc_dirac.json").read_text()),
                "weight": {"variant": "quadratic", "coeffs": [1.0]}}))
        command = json.loads(Path(config).read_text())["command"]
        src = Path(cli.__file__).resolve().parent.parent
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        script = (
            "import sys\n"
            "import xibergman.cli as cli\n"
            "def scipy():\n"
            "    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'})\n"
            "assert not scipy(), f'loaded by the import: {scipy()}'\n"
            f"rc = cli.main({argv!r})\n"
            f"assert rc == {exit_code}, rc\n"
            f"assert not scipy(), f'loaded by {command}: {{scipy()}}'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True
        )
        assert proc.returncode == 0, proc.stderr


def reference_json_safe(x):
    """The JSON conversion the writer replaced: numpy scalars as Python
    values, non-finite floats as strings, complex numbers as [re, im]."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return "-inf" if x < 0 else ("inf" if x > 0 else "nan")
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: reference_json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [reference_json_safe(v) for v in x]
    return x


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOATS,
    st.builds(complex, _FLOATS, _FLOATS),
    _FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9\u2603\U0001f600", "</script>"]),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=25,
)


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, -2.5e-300]),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4),
)


class TestCsvWriter:
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=30)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_cell_writer(self, rows):
        # the rows repeat cells, as a grid repeats its coordinates; the
        # writer takes the columns
        rows = rows + rows[::-1]
        want = "".join(",".join(cli._fmt(x) for x in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            cli._write_csv(path, ["a", "b"], [list(col) for col in zip(*rows)])
            text = path.read_bytes()
        assert text.startswith(b"# generated ")
        assert text.split(b"\n", 1)[1] == ("a,b\n" + want).encode()


class TestJsonWriter:
    @given(_PAYLOADS, st.sampled_from(["", "  ", "    "]))
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps_of_the_safe_payload(self, x, indent):
        want = json.dumps(reference_json_safe(x), indent=2, sort_keys=True)
        assert cli._json_text(x, indent) == want.replace("\n", "\n" + indent)

    def test_file_wraps_the_payload_under_a_timestamp(self, tmp_path):
        x = {"b": [1.5, complex(0.0, -0.0)], "a": {"inf": -math.inf}, "e": []}
        cli._write_json(tmp_path / "x.json", x)
        text = (tmp_path / "x.json").read_text()
        stamp = json.loads(text)["generatedAt"]
        body = json.dumps(reference_json_safe(x), indent=2, sort_keys=True)
        assert text == (
            '{\n  "generatedAt": "%s",\n  "payload": %s\n}\n'
            % (stamp, body.replace("\n", "\n  "))
        )

    def test_refuses_arrays_and_non_string_keys(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": np.zeros(2)}, "")
        with pytest.raises(TypeError):
            cli._json_text({1: 2.0}, "")
