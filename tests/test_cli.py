"""End-to-end tests of the command-line interface."""

import json
import math
from pathlib import Path

import pytest

from xibergman import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


    def test_sum_of_two_divisors_exits_2(self, tmp_path, capsys):
        g = [{"beta": [1], "re": 1.0, "im": 0.0}, {"beta": [0], "re": -0.2, "im": 0.0}]
        divisor = {"variant": "log_divisor", "c": 1.0, "arity": 1, "g": g}
        cfg = json.loads((CONFIGS / "kernel_disc_dirac.json").read_text())
        cfg["weight"] = {"variant": "sum", "parts": [divisor, divisor]}
        bad = tmp_path / "two.json"
        bad.write_text(json.dumps(cfg))
        assert run("kernel", bad, tmp_path / "out") == 2
        assert "two divisor" in capsys.readouterr().err


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


class TestExtendCommand:
    def test_w_independent_ratio_one(self, tmp_path):
        code = run("extend", CONFIGS / "extend_windependent.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert out["kktResidual"] < 1e-9
        assert out["jensen"]["holds"] is True

    def test_gaussian_ratio_and_jensen(self, tmp_path):
        code = run("extend", CONFIGS / "extend_gaussian.json", tmp_path)
        assert code == 0
        out = payload(tmp_path / "extend.json")
        assert out["ratio"] <= 1.0 + 5e-3
        assert out["jensen"]["holds"] is True

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_failed_jensen_diagnostic_exits_1(self, tmp_path):
        # a diagnostic that reports FAIL is exit 1.  Here the FAIL comes
        # from |act|^2 overflowing at some base nodes (rhs is inf); taken as
        # 2 log|act| the margin is about +1, so this input fails only while
        # that overflow stands
        code = run("extend", CONFIGS / "extend_gaussian_steep.json", tmp_path)
        assert code == 1
        jensen = payload(tmp_path / "extend.json")["jensen"]
        assert jensen["holds"] is False

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


class TestArgumentHandling:
    def test_unknown_command_exits_2(self, tmp_path):
        assert cli.main(["frobnicate", "--config", "x"]) == 2

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

    def test_validate_rejects_unknown_weight_variant(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config(
                {"command": "kernel", "domain": {"radii": [1.0]},
                 "weight": {"variant": "mystery"}, "functional": {},
                 "point": [], "degree": 1},
                "kernel",
            )
