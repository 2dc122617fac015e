"""Command-line front end: kernel evaluation, psh scans, annihilators,
lambda scans, and extension checks, with JSON/CSV outputs.

Exit codes: 0 success, 1 verification failure (submean violation,
cross-check mismatch, a failed Jensen diagnostic or an extension ratio above
the sharp bound 1), 2 usage or configuration error (also a value of the
wrong JSON type, and an ``extend`` fiber datum of zero norm, whose ratio is
0/0), 3 numerical failure (no nonsingular pivot block, recorded in
``error.json``; an ``extend`` norm or ratio not finite and positive).  Reruns
under a fixed seed produce identical files except for the timestamp line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bergman, extension, family, fiberwise, functional, ideal, weights
from .config import (
    ConfigError, Table, choice, cx, flag, integer, list_of, point, real,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Key tables: one per command; one walk validates and decodes a config
# ---------------------------------------------------------------------------

def _base_point(x) -> tuple[complex, ...]:
    """A circle's ``w0``: a list of coordinates, or one ``[re, im]`` pair
    for a one-dimensional base."""
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], (int, float)):
        return (cx(x),)
    return point(x)


def _grid_point(x):
    """A grid point of ``lambda`` or ``annihilate``: a complex number, or a
    tuple of them when it is given as a list of ``[re, im]`` pairs."""
    if isinstance(x, (list, tuple)) and all(isinstance(c, (list, tuple)) for c in x):
        return point(x)
    return cx(x)


_SQUARE = Table({"halfWidth": real, "count": integer})


def _grid(read_point):
    """The reader of a base grid: a ``{halfWidth, count}`` object, or a list
    of points that ``read_point`` reads."""
    read_points = list_of(read_point)
    return lambda x: _SQUARE(x) if isinstance(x, dict) else read_points(x)


_CIRCLE = Table({
    "z": (point, None), "w0": _base_point, "radius": real,
    "samples": (integer, 64), "kind": (choice("base", "joint"), "base"),
    "dz": (point, None), "dw": (point, None),
}, fiberwise.Circle)
_QUADRATURE = (bergman.QUADRATURE, bergman.QuadSpec())


def _command(name: str, **keys) -> Table:
    return Table({"command": (choice(name), name), **keys})


_CONFIGS = {
    "kernel": _command(
        "kernel", domain=weights.DOMAIN, weight=weights.WEIGHT,
        functional=functional.FUNCTIONAL, point=point, degree=integer,
        quadrature=_QUADRATURE,
        method=(choice(*bergman.GRAM_METHODS), "auto"),
    ),
    "scan-psh": _command(
        "scan-psh", fiberDomain=weights.DOMAIN, baseDomain=weights.DOMAIN,
        weight=weights.WEIGHT, family=family.FAMILY,
        antiHolomorphicControl=(flag, False), degree=integer, z=point,
        grid=(_grid(cx), None), circles=(list_of(_CIRCLE), ()),
        quadrature=_QUADRATURE,
    ),
    "annihilate": _command("annihilate", ideal=ideal.IDEAL,
                           wGrid=(_grid(_grid_point), None)),
    "lambda": _command(
        "lambda", ideal=ideal.IDEAL, weight=weights.WEIGHT, grid=_grid(_grid_point),
        degree=(integer, 8), nMax=(integer, None),
        fiberDomain=(weights.DOMAIN, None), quadrature=_QUADRATURE,
    ),
    "extend": _command(
        "extend", fiberDomain=weights.DOMAIN, baseRadius=real,
        w0=(cx, 0j), weight=weights.WEIGHT, f=family.POLY, dz=integer,
        dw=integer, quadrature=_QUADRATURE,
        jensen=(Table({"family": family.FAMILY, "z0": point}), None),
    ),
}


def validate_config(cfg: dict, command: str) -> dict:
    """The config of ``command`` read by one walk of the command's key table:
    its values by key, decoded, absent optional keys at their defaults.

    Raises ConfigError, naming the key path, on an unknown command, an
    unknown or missing key, or a value of the wrong JSON type.
    """
    if command not in _CONFIGS:
        raise ConfigError(f"unknown command {command!r}")
    return _CONFIGS[command](cfg)


def _grid_points(grid, m: int = 1) -> list:
    """The base grid: its listed points (``ideal`` checks that each has m
    coordinates), or the square grid of a ``{halfWidth, count}`` object,
    which needs m = 1 and count >= 1."""
    if not isinstance(grid, dict):
        return list(grid)
    if m != 1:
        raise ConfigError(
            f"grid: the {{halfWidth, count}} form needs wArity 1, not {m}; "
            "list the points"
        )
    if grid["count"] < 1:
        raise ConfigError(f"grid: count must be >= 1, not {grid['count']}")
    return fiberwise.square_grid(grid["halfWidth"], grid["count"])


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    # timestamp on its own header line so reruns differ only there
    path.write_text(
        "{\n  \"generatedAt\": \"%s\",\n  \"payload\": %s\n}\n"
        % (_timestamp(), _json_text(payload, "  "))
    )


def _write_csv(path: Path, header: list[str], columns) -> None:
    """The columns under a timestamp line and the header, each cell as
    ``_fmt`` writes it.  A grid repeats each coordinate once per row of its
    square, so within a column each distinct nonzero finite float is
    formatted once; zeros (0.0 and -0.0 are equal keys) and other values go
    through ``_fmt`` every time."""
    cells = []
    for col in columns:
        text = {x: repr(x) for x in set(col)
                if type(x) is float and x and math.isfinite(x)}
        cells.append([text[x] if type(x) is float and x in text else _fmt(x)
                      for x in col])
    lines = [f"# generated {_timestamp()}", ",".join(header)]
    lines += [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == -math.inf:
            return "-inf"
        return repr(x)
    return str(x)


_encode_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """A float as json writes it: repr, or NaN / Infinity / -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _json_text(x, indent: str) -> str:
    """x as ``json.dumps(x, indent=2, sort_keys=True)`` writes it nested at
    ``indent``, in one pass, except that a numpy scalar is its Python value,
    a complex number is the list [re, im], and a non-finite float outside a
    complex number is the string "inf", "-inf" or "nan".  Keys are strings.
    The commonest types are tested first."""
    if isinstance(x, float):  # np.float64 too: float.__repr__ is its repr
        if math.isfinite(x):
            return float.__repr__(x)
        return '"-inf"' if x < 0 else ('"inf"' if x > 0 else '"nan"')
    if x is None or x is True or x is False:
        return "null" if x is None else ("true" if x else "false")
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return _encode_str(x)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        if not x:
            return "{}"
        # _encode_str raises TypeError on a key that is not a string
        body = sep.join(
            [f"{_encode_str(k)}: {_json_text(x[k], inner)}" for k in sorted(x)]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        body = sep.join([_json_text(v, inner) for v in x])
    elif isinstance(x, np.generic):
        return _json_text(x.item(), indent)
    elif isinstance(x, complex):
        body = _json_float(x.real) + sep + _json_float(x.imag)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return f"[\n{inner}{body}\n{indent}]"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_kernel(cfg: dict, out: Path, seed: int) -> int:
    model = bergman.assemble_gram(
        cfg["domain"], cfg["weight"], cfg["degree"], cfg["quadrature"],
        cfg["method"]
    )
    bergman.orthonormalize(model)
    if model.size == 0:
        print("warning: truncated space is {0}; kernel is 0", file=sys.stderr)
        K = 0.0
    else:
        K = bergman.xi_kernel(model, cfg["functional"], cfg["point"])
    payload = {
        "K": K,
        "logK": math.log(K) if K > 0 else "-inf",
        "modelRank": model.rank,
    }
    _write_json(out / "kernel.json", payload)
    return EXIT_OK


def _cmd_scan_psh(cfg: dict, out: Path, seed: int) -> int:
    fam = cfg["family"]
    if cfg["antiHolomorphicControl"]:
        fam = family.anti_holomorphic_control(fam)
    problem = fiberwise.FamilyProblem(
        cfg["fiberDomain"], cfg["baseDomain"], cfg["weight"], fam, cfg["degree"],
        cfg["quadrature"]
    )
    grid = np.array(() if cfg["grid"] is None else _grid_points(cfg["grid"]),
                    dtype=complex)
    reports, lk = fiberwise.scan_psh(problem, cfg["z"], cfg["circles"], grid)
    if cfg["grid"] is not None:
        _write_csv(out / "scan.csv", ["w_re", "w_im", "logK"],
                   [grid.real.tolist(), grid.imag.tolist(), lk.tolist()])
    _write_json(out / "psh_report.json", {"reports": [r.to_json() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _cmd_annihilate(cfg: dict, out: Path, seed: int) -> int:
    fam, grid = cfg["ideal"], cfg["wGrid"]
    if grid is None:  # with m > 1 base variables the witness is (0.3, ..., 0.3)
        grid = ({"halfWidth": 0.6, "count": 5} if fam.w_arity == 1
                else [(0.3 + 0j,) * fam.w_arity])
    res = ideal.build_annihilator(fam, _grid_points(grid, fam.w_arity), seed=seed)
    _write_json(out / "annihilator.json", ideal.annihilator_to_json(res))
    return EXIT_OK


def _cmd_lambda(cfg: dict, out: Path, seed: int) -> int:
    fam, wt = cfg["ideal"], cfg["weight"]
    grid = _grid_points(cfg["grid"], fam.w_arity)
    fiber_domain = cfg["fiberDomain"] or weights.Polydisc((1.0,) * fam.z_arity)
    degree, quad = cfg["degree"], cfg["quadrature"]
    n_max = fam.truncation if cfg["nMax"] is None else cfg["nMax"]
    if n_max < fam.truncation:
        raise ConfigError(
            f"must be at least the truncation {fam.truncation}, not {n_max}",
            ["nMax"])
    krull = None
    if n_max > fam.truncation:
        krull = ideal.krull_stabilize(
            fam, wt, grid, n_max, fiber_domain, degree, quad, seed=seed
        )
    # the Krull scans include this order unless N = 1
    scan = krull.per_n.get(fam.truncation) if krull else None
    if scan is None:
        scan = ideal.lambda_scan(fam, wt, grid, fiber_domain, degree, quad, seed=seed)
    lam = set(scan.lambda_psi)
    rows = []
    for i, pt in enumerate(scan.points):
        rows.append(
            tuple(x for c in pt.w for x in (c.real, c.imag))
            + (int(i in lam),
               pt.psi if pt.flag != "outside_U" else "nan")
        )
    if fam.w_arity == 1:
        coords = ["w_re", "w_im"]
    else:
        coords = [f"w{i}_{part}" for i in range(1, fam.w_arity + 1)
                  for part in ("re", "im")]
    _write_csv(out / "lambda.csv", coords + ["in_Lambda", "PsiN"], list(zip(*rows)))
    payload = {
        "rank": scan.res.r,
        "functionalCount": scan.res.s,
        "lambdaPsi": [list(scan.points[i].w) for i in scan.lambda_psi],
        "skipped": scan.skipped,
        "mismatches": [list(scan.points[i].w) for i in scan.mismatches],
        "agree": scan.agree,
    }
    if krull is not None:
        payload["krull"] = {
            "nested": krull.nested,
            "stabilizedAt": krull.stabilized_at,
            "perN": {
                str(N): len(s.lambda_psi) for N, s in krull.per_n.items()
            },
        }
        if not krull.nested:
            payload["agree"] = False
    _write_json(out / "lambda.json", payload)
    return EXIT_OK if payload["agree"] else EXIT_VERIFY_FAIL


def _cmd_extend(cfg: dict, out: Path, seed: int) -> int:
    prob = extension.ExtensionProblem(
        cfg["fiberDomain"], cfg["baseRadius"], cfg["weight"], cfg["w0"],
        cfg["f"], cfg["dz"], cfg["dw"], cfg["quadrature"],
    )
    result = extension.minimal_extension(prob)
    payload = extension.extension_report(prob, result)
    # no answer: the Jensen diagnostic would extend its datum by the same solve
    bad = [k for k in ("jointNorm", "fiberNorm", "ratio")
           if not 0 < payload[k] < math.inf]
    if bad:
        print(f"error: {bad[0]} {payload[bad[0]]!r} is not finite and positive",
              file=sys.stderr)
        _write_json(out / "extend.json", payload)
        return EXIT_NUMERICAL
    if cfg["jensen"] is not None:
        j = cfg["jensen"]
        payload["jensen"] = extension.jensen_diagnostic(
            prob, j["family"], j["z0"], result=result
        )
    _write_json(out / "extend.json", payload)
    code = EXIT_OK
    if payload["ratio"] > 1.0 + extension.RATIO_SLACK:
        print(f"FAIL: optimal-constant ratio {payload['ratio']!r} exceeds the "
              f"sharp bound 1", file=sys.stderr)
        code = EXIT_VERIFY_FAIL
    if "jensen" in payload and not payload["jensen"]["holds"]:
        code = EXIT_VERIFY_FAIL
    return code


_COMMANDS = {
    "kernel": _cmd_kernel,
    "scan-psh": _cmd_scan_psh,
    "annihilate": _cmd_annihilate,
    "lambda": _cmd_lambda,
    "extend": _cmd_extend,
}


# built once: building takes ~10 times as long as parsing an argv
_PARSER = argparse.ArgumentParser(
    prog="xibergman",
    description="weighted extremal Bergman kernel laboratory",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="JSON config path")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit:
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        cfg = validate_config(json.loads(Path(args.config).read_text()),
                              args.command)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.seed)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ideal.DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_json(
            out / "error.json",
            {"error": type(exc).__name__, "message": str(exc)},
        )
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
