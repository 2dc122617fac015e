"""Command-line front end: kernel evaluation, psh scans, annihilators,
lambda scans, and extension checks, with JSON/CSV outputs.

Exit codes: 0 success, 1 verification failure (submean violation,
cross-check mismatch, a failed Jensen diagnostic or an extension ratio above
the sharp bound 1), 2 usage or configuration error (also a value of the
wrong JSON type, and an ``extend`` fiber datum of zero norm, whose ratio is
0/0), 3 numerical failure (no
nonsingular pivot block; the record goes to ``error.json``).  Reruns under
a fixed seed produce identical files except for the timestamp header line.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bergman, extension, family, fiberwise, functional, ideal, weights

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schema validation (unknown keys rejected)
# ---------------------------------------------------------------------------

_QUAD_KEYS = {"radialNodes", "angularNodes", "innerCutoff"}
_DOMAIN_KEYS = {"radii", "center"}
_GRID_KEYS = {"halfWidth", "count"}
_CIRCLE_KEYS = {"z", "w0", "radius", "samples", "kind", "dz", "dw"}
_JENSEN_KEYS = {"family", "z0"}

_SCHEMAS = {
    "kernel": {"command", "domain", "weight", "functional", "point", "degree",
               "quadrature", "method"},
    "scan-psh": {"command", "fiberDomain", "baseDomain", "weight", "family",
                 "antiHolomorphicControl", "degree", "z", "grid", "circles",
                 "quadrature"},
    "annihilate": {"command", "ideal", "wGrid"},
    "lambda": {"command", "ideal", "weight", "grid", "degree", "nMax",
               "fiberDomain", "quadrature"},
    "extend": {"command", "fiberDomain", "baseRadius", "w0", "weight", "f",
               "dz", "dw", "quadrature", "jensen"},
}

_WEIGHT_KEYS = {
    "zero": {"variant", "arity"},
    "constant": {"variant", "arity", "value"},
    "quadratic": {"variant", "coeffs", "center"},
    "log_monomial": {"variant", "coeffs"},
    "log_divisor": {"variant", "c", "arity", "g"},
    "sum": {"variant", "parts"},
    "joint_zero": {"variant", "zArity", "wArity"},
    "joint_log_divisor": {"variant", "zArity", "c", "arity", "g"},
    "joint_quadratic_split": {"variant", "cz", "cw"},
    "joint_pair_quadratic": {"variant", "coeffs"},
    "w_independent": {"variant", "wArity", "base"},
}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _validate_weight(obj: dict, where: str) -> None:
    _require_keys(obj, set().union(*_WEIGHT_KEYS.values()), where)
    v = obj.get("variant")
    if v not in _WEIGHT_KEYS:
        raise ConfigError(f"{where}: unknown weight variant {v!r}")
    _require_keys(obj, _WEIGHT_KEYS[v], f"{where}({v})")
    if v == "sum":
        for i, p in enumerate(obj.get("parts", [])):
            _validate_weight(p, f"{where}.parts[{i}]")
    if v == "w_independent":
        _validate_weight(obj["base"], f"{where}.base")


def validate_config(cfg: dict, command: str) -> None:
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    _require_keys(cfg, _SCHEMAS[command], "config")
    if cfg.get("command", command) != command:
        raise ConfigError(
            f"config command {cfg.get('command')!r} does not match {command!r}"
        )
    if "quadrature" in cfg:
        _require_keys(cfg["quadrature"], _QUAD_KEYS, "quadrature")
    for key in ("domain", "fiberDomain", "baseDomain"):
        if key in cfg:
            _require_keys(cfg[key], _DOMAIN_KEYS, key)
    if "weight" in cfg:
        _validate_weight(cfg["weight"], "weight")
    if "grid" in cfg and isinstance(cfg["grid"], dict):
        _require_keys(cfg["grid"], _GRID_KEYS, "grid")
    if "circles" in cfg:
        for i, c in enumerate(cfg["circles"]):
            _require_keys(c, _CIRCLE_KEYS, f"circles[{i}]")
    if "jensen" in cfg:
        _require_keys(cfg["jensen"], _JENSEN_KEYS, "jensen")


# ---------------------------------------------------------------------------
# Config decoding helpers
# ---------------------------------------------------------------------------

def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cx(pair) -> complex:
    """A finite complex number given as a real number or as an ``[re, im]``
    pair."""
    is_pair = isinstance(pair, (list, tuple)) and len(pair) == 2
    if _is_real(pair):
        z = complex(pair)
    elif is_pair and all(map(_is_real, pair)):
        z = complex(pair[0], pair[1])
    else:
        raise ConfigError(f"expected a number or an [re, im] pair, got {pair!r}")
    if not cmath.isfinite(z):
        raise ConfigError(f"expected a finite number, got {pair!r}")
    return z


def _int(x, key: str) -> int:
    """A config integer: a JSON integer, not a bool."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{key}: expected an integer, got {x!r}")
    return x


def _real(x, key: str) -> float:
    """A config real number: a JSON number, not a bool or a string."""
    if not _is_real(x):
        raise ConfigError(f"{key}: expected a number, got {x!r}")
    return float(x)


def _point(seq) -> tuple[complex, ...]:
    if not isinstance(seq, (list, tuple)):
        raise ConfigError(f"expected a list of coordinates, got {seq!r}")
    return tuple(_cx(p) for p in seq)


def _domain(obj: dict) -> weights.Polydisc:
    center = tuple(_cx(c) for c in obj.get("center", []))
    return weights.Polydisc(tuple(obj["radii"]), center)


def _quad(cfg: dict) -> bergman.QuadSpec:
    q = cfg.get("quadrature", {})
    return bergman.QuadSpec(
        radial_nodes=_int(q.get("radialNodes", 32), "radialNodes"),
        angular_nodes=_int(q.get("angularNodes", 64), "angularNodes"),
        inner_cutoff=_real(q.get("innerCutoff", 0.0), "innerCutoff"),
    )


def _grid_points(obj, m: int = 1) -> list:
    """Base grid: complex numbers when m = 1, m-tuples of them otherwise.

    The object form ``{halfWidth, count}`` is a square grid and needs m = 1,
    a finite halfWidth and count >= 1; the list form gives the points, each
    a list of exactly m ``[re, im]`` pairs when m > 1.
    """
    if isinstance(obj, dict):
        if m != 1:
            raise ConfigError(
                f"grid: the {{halfWidth, count}} form needs wArity 1, not {m}; "
                "list the points"
            )
        half = _real(obj["halfWidth"], "grid: halfWidth")
        if not math.isfinite(half):
            raise ConfigError(f"grid: halfWidth must be finite, not {half}")
        count = _int(obj["count"], "grid: count")
        if count < 1:
            raise ConfigError(f"grid: count must be >= 1, not {count}")
        return fiberwise.square_grid(half, count)
    if m == 1:
        return [_cx(p) for p in obj]
    pts = [_point(p) for p in obj]
    for w in pts:
        if len(w) != m:
            raise ConfigError(f"grid: point {w} has {len(w)} coordinates, not {m}")
    return pts


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    # timestamp on its own header line so reruns differ only there
    path.write_text(
        "{\n  \"generatedAt\": \"%s\",\n  \"payload\": %s\n}\n"
        % (_timestamp(), _json_text(payload, "  "))
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The rows under a timestamp line and the header, each cell as ``_fmt``
    writes it.  A grid repeats each coordinate once per row of its square,
    so each distinct nonzero finite float is formatted once per file; zeros
    (0.0 and -0.0 are equal keys) and non-finite values go through ``_fmt``
    every time."""
    text: dict[float, str] = {}

    def cell(x) -> str:
        if type(x) is not float or not x or not math.isfinite(x):
            return _fmt(x)
        s = text.get(x)
        if s is None:
            s = text[x] = repr(x)
        return s

    lines = [f"# generated {_timestamp()}", ",".join(header)]
    for row in rows:
        lines.append(",".join([cell(x) for x in row]))
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
    domain = _domain(cfg["domain"])
    wt = weights.weight_from_json(cfg["weight"])
    xi = functional.functional_from_json(cfg["functional"])
    z = _point(cfg["point"])
    model = bergman.assemble_gram(
        domain, wt, _int(cfg["degree"], "degree"), _quad(cfg),
        cfg.get("method", "auto")
    )
    bergman.orthonormalize(model)
    if model.size == 0:
        print("warning: truncated space is {0}; kernel is 0", file=sys.stderr)
        K = 0.0
    else:
        K = bergman.xi_kernel(model, xi, z)
    payload = {
        "K": K,
        "logK": math.log(K) if K > 0 else "-inf",
        "modelRank": model.rank,
    }
    _write_json(out / "kernel.json", payload)
    return EXIT_OK


def _cmd_scan_psh(cfg: dict, out: Path, seed: int) -> int:
    fiber_domain = _domain(cfg["fiberDomain"])
    base_domain = _domain(cfg["baseDomain"])
    wt = weights.weight_from_json(cfg["weight"])
    fam = family.family_from_json(cfg["family"])
    if cfg.get("antiHolomorphicControl", False):
        fam = family.anti_holomorphic_control(fam)
    problem = fiberwise.FamilyProblem(
        fiber_domain, base_domain, wt, fam, _int(cfg["degree"], "degree"),
        _quad(cfg)
    )
    z = _point(cfg["z"])

    reports = []
    any_fail = False
    for c in cfg.get("circles", []):
        raw = c["w0"]
        if raw and isinstance(raw[0], (int, float)):
            raw = [raw]  # single [re, im] pair for a one-dimensional base
        w0 = _point(raw)
        radius = _real(c["radius"], "circle radius")
        kind = c.get("kind", "base")
        if kind not in ("base", "joint"):
            raise ConfigError(f"unknown circle kind {kind!r}")
        # the base track of a joint circle has radius radius * |dw_k|
        step = (
            _point(c["dw"]) if kind == "joint"
            else (1.0,) + (0.0,) * (base_domain.arity - 1)
        )
        if any(
            abs(wk - ck) + radius * abs(sk) >= rk
            for wk, ck, rk, sk in zip(w0, base_domain.center, base_domain.radii, step)
        ):
            raise ConfigError("circle radius exceeds the base domain")
        if kind == "base":
            rep = fiberwise.psh_verify_base(
                problem, _point(c.get("z", cfg["z"])), w0, radius,
                _int(c.get("samples", 64), "circle samples"),
            )
        else:
            rep = fiberwise.psh_verify_joint(
                problem, _point(c.get("z", cfg["z"])), w0,
                _point(c["dz"]), _point(c["dw"]), radius,
                _int(c.get("samples", 64), "circle samples"),
            )
        reports.append(rep.to_json())
        any_fail = any_fail or not rep.passed

    if "grid" in cfg:
        rows = fiberwise.scan_base(problem, z, _grid_points(cfg["grid"]))
        _write_csv(out / "scan.csv", ["w_re", "w_im", "logK"], rows)

    _write_json(out / "psh_report.json", {"reports": reports})
    return EXIT_VERIFY_FAIL if any_fail else EXIT_OK


def _cmd_annihilate(cfg: dict, out: Path, seed: int) -> int:
    fam = ideal.ideal_from_json(cfg["ideal"])
    # the witness grid; with m > 1 base variables it defaults to (0.3, ..., 0.3)
    default = (
        {"halfWidth": 0.6, "count": 5} if fam.w_arity == 1
        else [[[0.3, 0.0]] * fam.w_arity]
    )
    grid = _grid_points(cfg.get("wGrid", default), fam.w_arity)
    res = ideal.build_annihilator(fam, grid, seed=seed)
    _write_json(out / "annihilator.json", ideal.annihilator_to_json(res))
    return EXIT_OK


def _cmd_lambda(cfg: dict, out: Path, seed: int) -> int:
    fam = ideal.ideal_from_json(cfg["ideal"])
    wt = weights.weight_from_json(cfg["weight"])
    grid = _grid_points(cfg["grid"], fam.w_arity)
    fiber_domain = (
        _domain(cfg["fiberDomain"]) if "fiberDomain" in cfg
        else weights.Polydisc((1.0,) * fam.z_arity)
    )
    degree = _int(cfg.get("degree", 8), "degree")
    quad = _quad(cfg)
    n_max = _int(cfg.get("nMax", fam.truncation), "nMax")
    krull = None
    if n_max > fam.truncation:
        krull = ideal.krull_stabilize(
            fam, wt, grid, n_max, fiber_domain, degree, quad, seed=seed
        )
    # the Krull scans include this order unless N = 1
    scan = krull.per_n.get(fam.truncation) if krull else None
    if scan is None:
        scan = ideal.lambda_scan(fam, wt, grid, fiber_domain, degree, quad, seed=seed)
    rows = []
    for i, pt in enumerate(scan.points):
        rows.append(
            tuple(x for c in pt.w for x in (c.real, c.imag))
            + (int(i in scan.lambda_psi),
               pt.psi if pt.flag != "outside_U" else "nan")
        )
    if fam.w_arity == 1:
        coords = ["w_re", "w_im"]
    else:
        coords = [f"w{i}_{part}" for i in range(1, fam.w_arity + 1)
                  for part in ("re", "im")]
    _write_csv(out / "lambda.csv", coords + ["in_Lambda", "PsiN"], rows)
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
    fiber_domain = _domain(cfg["fiberDomain"])
    wt = weights.weight_from_json(cfg["weight"])
    fobj = cfg["f"]
    f = family.poly_from_json(fobj["terms"], _int(fobj["arity"], "f: arity"))
    prob = extension.ExtensionProblem(
        fiber_domain,
        _real(cfg["baseRadius"], "baseRadius"),
        wt,
        _cx(cfg.get("w0", 0.0)),
        f,
        _int(cfg["dz"], "dz"),
        _int(cfg["dw"], "dw"),
        _quad(cfg),
    )
    result = extension.minimal_extension(prob)
    payload = extension.extension_report(prob, result)
    if "jensen" in cfg:
        j = cfg["jensen"]
        fam = family.family_from_json(j["family"])
        payload["jensen"] = extension.jensen_diagnostic(
            prob, fam, _point(j["z0"]), result=result
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
        cfg = json.loads(Path(args.config).read_text())
        validate_config(cfg, args.command)
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
