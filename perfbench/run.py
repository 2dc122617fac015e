#!/usr/bin/env python3
"""Benchmark of the xibergman CLI: seeded workloads run through ``cli.main``.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload psh_scan --seed 1 --seconds 19 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times the workload with the original, unwrapped program and
prints the end-to-end metrics.  ``--trace 1`` runs the first cycle of the same
workload and seed twice, untraced and then with every layer wrapped by
``bench_trace.Tracer``, and prints the per-layer metrics plus the tracing
overhead.  Every command is checked (``bench_checks``); a failure or an
exception escaping ``cli.main`` is counted and listed, and the run goes on.
The last line of standard output is the JSON result; the lines above it are
the same numbers for people, the failures and the provenance.  The full
result and the trace spans are written under ``perfbench/out/``.

See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread unless the environment sets it.  With OpenBLAS's default of
# one thread per core, a 91x91 eigh on a 2-core Xeon took either ~12 ms or
# ~430 ms depending on the process, which made cmd_p50_s on kernel_paths
# spread by 0.32 (IQR / median over ten seeds); with one thread it takes ~3 ms.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
# The reference loop's median time on the reference box (2-core Xeon).  Every
# end-to-end time is scaled by REF_NOMINAL_S / (the loop's time measured just
# before and after it), see ``host_ref``.
REF_NOMINAL_S = 2.0e-3
TAIL_BEYOND = 10  # cmd_tail_s: the highest percentile with this many above it

sys.path.insert(0, str(HERE))
from bench_checks import check_command  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def program_present() -> bool:
    return (ROOT / "src" / "xibergman" / "cli.py").is_file() and (
        ROOT / "configs").is_dir()


def import_program() -> dict:
    """Import xibergman from this checkout; return its layers by name."""
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    from bench_trace import LAYERS

    return {name: importlib.import_module(f"xibergman.{name}")
            for name in LAYERS}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def run_command(cli, cmd, workdir: Path) -> dict:
    """Run one command in-process, capture its output, check it."""
    d = Path(tempfile.mkdtemp(dir=workdir))
    config = d / "config.json"
    config.write_text(json.dumps(cmd.config))
    out = d / "out"
    argv = [cmd.kind, "--config", str(config), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is one failed command
            error = f"{type(exc).__name__}: {exc} | " + " / ".join(
                traceback.format_exc().strip().splitlines()[-3:])
        t1 = time.perf_counter()
    failures = check_command(cmd, rc, error, out, stderr.getvalue())
    out_bytes = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) \
        if out.is_dir() else 0
    shutil.rmtree(d)
    return {"name": cmd.name, "seconds": t1 - t0, "exit": rc,
            "failures": failures, "out_bytes": out_bytes}


def host_ref() -> float:
    """Median of three timings of a fixed loop of Python and small numpy work.

    A shared 2-core Xeon VM runs everything up to ~1.8x slower for spells of
    5-20 s (no steal time shows, and process CPU time slows alike).  Timed
    around each command, this loop slows by the same factor: scaling by it
    kept a closed-form kernel's time within 2 % across 3-s blocks where the
    raw time moved by 13-23 %.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x, d = 0, {}
        for i in range(15000):
            x += (i * 7) % 13
            d[i & 63] = x
        for _ in range(150):
            a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_all(cli, commands, workdir: Path) -> list:
    """Run commands back to back; ``scaled_s`` is the host-speed-scaled time."""
    results, ref = [], host_ref()
    for cmd in commands:
        r = run_command(cli, cmd, workdir)
        after = host_ref()
        r["scaled_s"] = r["seconds"] * REF_NOMINAL_S / ((ref + after) / 2)
        results.append(r)
        ref = after
    return results


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first timed command."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{line}{rest}{err[-2000:]}")
    return elapsed


# ---------------------------------------------------------------------------
# Metrics and provenance
# ---------------------------------------------------------------------------

def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 commands above."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} commands: the tail needs more than {TAIL_BEYOND}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _blas() -> dict:
    import ctypes
    import glob

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads,
            "env": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")}}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(workload, seed: int, cycles: int, overhead) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "cycle_seeds": [f"{seed}:{workload.name}:{i}" for i in range(cycles)],
        "clients": "1, closed loop, commands back to back in one process",
        "tracing_overhead_s": overhead,
    }


def run_key(workload: str, seed: int) -> dict:
    """What a tracing overhead was measured on: code, inputs and host."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"sources_sha256": digest.hexdigest(), "workload": workload,
            "seed": seed, "cpu": _cpu_model(), "nproc": os.cpu_count()}


def matching_overhead(key: dict):
    """The tracing overhead of a traced run on the same key, else None."""
    try:
        saved = json.loads((OUT / f"overhead-{key['workload']}.json").read_text())
    except (OSError, ValueError):
        return None
    return saved if saved.get("key") == key else None


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or 'all' to run each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=19.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, warm up, print 'ready', exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"error: no xibergman sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_every_workload(args)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_every_workload(args) -> int:
    """Run the workloads in turn, each in a fresh process with its own RSS."""
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        print(res.stderr, end="", file=sys.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            return res.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def _run(args, workload, workdir: Path) -> int:
    if args.setup_probe:
        layers = import_program()
        run_all(layers["cli"], workload.warmup_commands(args.seed), workdir)
        print("ready", flush=True)
        return 0

    setups, scaled_setups = [], []
    if not args.trace:
        ref = host_ref()
        for _ in range(SETUP_SAMPLES):
            setups.append(setup_probe(workload.name, args.seed))
            after = host_ref()
            scaled_setups.append(setups[-1] * REF_NOMINAL_S / ((ref + after) / 2))
            ref = after
    layers = import_program()
    cli = layers["cli"]
    warm = run_all(cli, workload.warmup_commands(args.seed), workdir)

    lines = []
    if not args.trace:
        commands = workload.commands(args.seed, args.seconds)
        cycles = workload.cycles_for(args.seconds)
        timed = run_all(cli, commands, workdir)
        times = [r["scaled_s"] for r in timed]
        wall = [r["seconds"] for r in timed]
        tail_s, tail_pct = tail(times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "cmd_p50_s": (statistics.median(times), "s"),
            "cmd_tail_s": (tail_s, "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        overhead = matching_overhead(run_key(workload.name, args.seed))
        notes = {
            "setup_s": f"median of {len(setups)} fresh set-ups; unscaled "
                       f"{statistics.median(setups):.4f} s "
                       f"{[round(s, 4) for s in setups]}",
            "cmd_p50_s": f"median of {len(times)} commands; unscaled "
                         f"{statistics.median(wall):.4f} s",
            "cmd_tail_s": f"p{tail_pct:.1f} of {len(times)} commands, "
                          f"{TAIL_BEYOND} beyond it; unscaled "
                          f"{tail(wall)[0]:.4f} s",
        }
        runs = timed
    else:
        from bench_trace import Tracer

        commands = workload.cycle(args.seed, 0)
        cycles = 1
        untraced = run_all(cli, commands, workdir)
        tracer = Tracer()
        tracer.install(layers)
        try:
            traced = []
            for i, cmd in enumerate(commands):
                tracer.cmd = i
                traced.append(run_command(cli, cmd, workdir))
        finally:
            tracer.restore()
        leftovers = tracer.unrestored()
        gaps = [g for g in tracer.self_time_gaps()
                if abs(g[1] - g[2]) > 1e-6 * max(g[2], 1e-3)]
        if leftovers or gaps:
            raise RuntimeError(f"trace accounting: {leftovers} {gaps}")
        tracer.dump(OUT / f"trace-{workload.name}-{args.seed}.json")
        p50_u = statistics.median(r["seconds"] for r in untraced)
        p50_t = statistics.median(r["seconds"] for r in traced)
        overhead = {"traced_cmd_p50_s": p50_t, "untraced_cmd_p50_s": p50_u,
                    "overhead_s": p50_t - p50_u,
                    "key": run_key(workload.name, args.seed)}
        (OUT / f"overhead-{workload.name}.json").write_text(json.dumps(overhead))
        metrics = tracer.metrics()
        metrics["cli.out_bytes"] = (sum(r["out_bytes"] for r in traced), "bytes")
        metrics["trace.overhead_s"] = (p50_t - p50_u, "s")
        notes = {"trace.overhead_s": f"traced p50 {p50_t:.4f} s - untraced "
                                     f"p50 {p50_u:.4f} s over one cycle"}
        runs = untraced + traced

    all_runs = warm + runs
    failed = [r for r in all_runs if r["failures"]]
    attempted = len(all_runs)
    lines.append(f"xibergman benchmark  workload={workload.name} "
                 f"seed={args.seed} trace={args.trace} cycles={cycles} "
                 f"commands={len(runs)} (+{len(warm)} warm-up)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        lines.append(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")
    lines.append(f"  {'fail_frac':40s} {len(failed) / attempted:>14.6g} "
                 f"{'ratio':6s} {len(failed)} of {attempted} commands failed")
    for r in failed:
        for check, detail in r["failures"]:
            lines.append(f"  FAILED {r['name']}: {check}: {detail}")
    prov = provenance(workload, args.seed, cycles, overhead)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "fail_frac": len(failed) / attempted,
                    "failures": [(r["name"], r["failures"]) for r in failed],
                    "notes": notes, "provenance": prov,
                    "commands": [(r["name"], r["seconds"], r["exit"],
                                  r.get("scaled_s")) for r in all_runs]},
                   indent=1))
    print("\n".join(lines))
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
