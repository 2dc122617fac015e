"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import types

import pytest

import run
from bench_checks import check_command, check_extend
from bench_trace import Tracer
from bench_workloads import WORKLOADS, Command, _clear_of_pole

LAYERS = run.import_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_and_valid(name):
    wl = WORKLOADS[name]
    a = [(c.name, c.kind, c.config, c.meta) for c in wl.commands(7, 1)]
    b = [(c.name, c.kind, c.config, c.meta) for c in wl.commands(7, 1)]
    assert a == b
    other = [c.config for c in wl.commands(8, 1)]
    assert other != [c[2] for c in a]  # the seed reaches the configs
    for cmd in wl.commands(7, 1) + wl.warmup_commands(7):
        LAYERS["cli"].validate_config(cmd.config, cmd.kind)
        json.dumps(cmd.config)


def _traced(commands, tmp_path):
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        results = []
        for i, cmd in enumerate(commands):
            tracer.cmd = i
            results.append(run.run_command(LAYERS["cli"], cmd, tmp_path))
    finally:
        tracer.restore()
    return tracer, results


def _small_commands():
    return (WORKLOADS["psh_scan"].warmup_commands(0)
            + WORKLOADS["lambda_ideal"].warmup_commands(0)
            + WORKLOADS["kernel_paths"].warmup_commands(0)[:2])


def test_restore_puts_back_every_original(tmp_path):
    originals = {id(owner): dict(vars(owner)) for owner in LAYERS.values()}
    tracer, results = _traced(_small_commands(), tmp_path)
    assert tracer.patches and tracer.unrestored() == []
    assert all(not r["failures"] for r in results)
    for owner, attr, original in tracer.patches:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    for owner in LAYERS.values():
        assert dict(vars(owner)) == originals[id(owner)]
    # assemble_gram is traced wherever a layer binds it
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "bergman.assemble_gram", "fiberwise.kernel_on_fiber",
            "ideal.psi_at"} <= names


def test_self_times_add_up_to_the_root_span(tmp_path):
    tracer, results = _traced(_small_commands(), tmp_path)
    gaps = tracer.self_time_gaps()
    assert len(gaps) == len(results)
    for cmd, total, root in gaps:
        assert total == pytest.approx(root, rel=1e-6, abs=1e-9)
    m = tracer.metrics()
    assert m["cli.main.calls"][0] == len(results)
    assert m["bergman.assemble_gram.calls"][0] > 0


def test_an_escaped_exception_is_one_failure_and_the_run_goes_on(tmp_path):
    def boom(argv):
        raise RuntimeError("no pivot block")

    cmd = WORKLOADS["kernel_paths"].warmup_commands(0)[0]
    stub = types.SimpleNamespace(main=boom)
    results = run.run_all(stub, [cmd, cmd], tmp_path)
    assert len(results) == 2
    for r in results:
        assert [c for c, _ in r["failures"]] == ["exception"]
        assert "RuntimeError: no pivot block" in r["failures"][0][1]


def test_program_output_is_captured(tmp_path, capsys):
    cmd = next(c for c in WORKLOADS["kernel_paths"].commands(0, 1)
               if c.check == "kernel_empty")
    r = run.run_command(LAYERS["cli"], cmd, tmp_path)
    assert r["failures"] == [] and r["exit"] == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_wrong_exit_code_fails(tmp_path):
    cmd = next(c for c in WORKLOADS["psh_scan"].commands(0, 1)
               if c.check == "psh_control")
    cmd.expect_exit = 0
    r = run.run_command(LAYERS["cli"], cmd, tmp_path)
    assert [c for c, _ in r["failures"]] == ["exit_code"]


def test_extension_ratio_of_a_w_independent_weight_must_be_one(tmp_path):
    # a constant w-independent weight must give ratio 1; e^2 is what a
    # dropped constant factor in the joint Gram matrix would report
    payload = {"ratio": math.e ** 2, "fiberNorm": 1.0, "jointNorm": 1.0,
               "kktResidual": 0.0}
    (tmp_path / "extend.json").write_text(json.dumps({"payload": payload}))
    fails = check_extend({}, tmp_path, {"w_independent": True})
    assert [c for c, _ in fails] == ["ratio_windependent"]
    payload["ratio"] = 1.0
    (tmp_path / "extend.json").write_text(json.dumps({"payload": payload}))
    assert check_extend({}, tmp_path, {"w_independent": True}) == []


def test_missing_output_is_a_failure(tmp_path):
    cmd = Command("x", "kernel", {}, 0, "kernel_radial")
    fails = check_command(cmd, 0, None, tmp_path / "nothing", "")
    assert [c for c, _ in fails] == ["output"]


def test_tail_has_ten_commands_beyond_it():
    times = list(range(1, 31))
    value, pct = run.tail(times)
    assert value == 20 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_a_fail_verdict_is_listed_with_its_circle(tmp_path):
    # a base circle passing close to the pole of log K at w = 0, where the
    # program's 64-sample submean check reports FAIL on a psh function; the
    # seeded circles keep clear of it (POLE_CLEARANCE)
    w0, radius = complex(0.2705, 0.0835), 0.2769
    assert not _clear_of_pole(w0, radius)
    cmd = next(c for c in WORKLOADS["psh_scan"].cycle(0, 0)
               if c.name.startswith("base_circle#"))
    cmd.config["circles"] = [{"w0": [w0.real, w0.imag], "radius": radius,
                              "samples": 64, "kind": "base"}]
    r = run.run_command(LAYERS["cli"], cmd, tmp_path)
    assert r["exit"] == 1
    assert [c for c, _ in r["failures"]] == ["exit_code", "psh_verdict"]
    assert "circle 0" in r["failures"][1][1]


def test_seeded_circles_keep_clear_of_the_pole():
    for seed in range(20):
        for cmd in WORKLOADS["psh_scan"].commands(seed, 19):
            for c in cmd.config.get("circles", []):
                radius = c["radius"]
                if c["kind"] == "joint":
                    radius *= abs(complex(*c["dw"][0]))
                assert _clear_of_pole(complex(*c["w0"]), radius), cmd.name
