"""Correctness checks for one benchmark command.

Each check reads the files a command wrote and returns a list of
``(check, detail)`` failures; an empty list is a pass.  Closed forms are
computed here from the config alone, independently of the program:

- the P* surface log K(w) = 2 log|w| - 2 log pi away from w = 0, and its
  exact circle averages;
- radial moments pi Gamma(e) P(e, q R^2) / q^e (DLMF 8.2) for zero,
  constant, centered log-monomial and centered quadratic weights, which
  give the truncated kernel as a finite sum;
- the divisor-factored basis g (z - c)^alpha, orthogonal with the
  unweighted monomial moments;
- the unit-disc Dirac kernel 1 / (pi (1 - |z|^2)^2) up to truncation;
- B(w) A(w) = 0 for annihilators, with A(w) rebuilt from the generators;
- an extension ratio of 1 for w-independent weights and at most 1 otherwise.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

from scipy.special import gammainc, gammaln

PSTAR_TOL = 1e-6  # absolute, on log K (as in the CLI tests)
CLOSED_REL_TOL = 1e-9  # kernels from exact moments
QUAD_REL_TOL = 1e-7  # kernels from Gauss-Legendre quadrature
PRODUCT_RESIDUAL_TOL = 1e-10
IDENTITY_REL_TOL = 1e-9
KKT_TOL = 1e-9
RATIO_TOL = 1e-9  # w-independent weights: the sharp ratio is exactly 1
RATIO_BOUND_SLACK = 5e-3  # quadrature slack on ratio <= 1 (as in the CLI tests)


def _payload(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())["payload"]


def _cx(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    return complex(pair[0], pair[1])


def _close(a: float, b: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(a - b) <= absolute + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# scan-psh
# ---------------------------------------------------------------------------

def _pstar_log_k(w: complex) -> float:
    return 2 * math.log(abs(w)) - 2 * math.log(math.pi)


def check_psh_pstar(cfg: dict, out: Path, meta: dict) -> list:
    fails = []
    reports = _payload(out, "psh_report.json")["reports"]
    for i, rep in enumerate(reports):
        if rep["verdict"] != "PASS":
            fails.append(("psh_verdict", f"circle {i}: {rep['diagnostic'] or rep}"))
    for i, (circle, rep) in enumerate(zip(cfg.get("circles", []), reports)):
        z = circle.get("z", cfg["z"])
        if circle.get("kind", "base") != "base" or any(_cx(p) != 0 for p in z):
            continue
        w0, r, k = _cx(circle["w0"]), circle["radius"], circle["samples"]
        avg = sum(
            _pstar_log_k(w0 + r * complex(math.cos(t), math.sin(t)))
            for t in (2 * math.pi * j / k for j in range(k))
        ) / k
        if not (_close(rep["centerValue"], _pstar_log_k(w0), 0, PSTAR_TOL)
                and _close(rep["circleAverage"], avg, 0, PSTAR_TOL)):
            fails.append(("pstar_circle", f"circle {i}: center "
                          f"{rep['centerValue']} avg {rep['circleAverage']}, "
                          f"closed form {_pstar_log_k(w0)} {avg}"))
    if "grid" in cfg:
        lines = (out / "scan.csv").read_text().splitlines()[2:]
        expect_rows = cfg["grid"]["count"] ** 2
        if len(lines) != expect_rows:
            fails.append(("pstar_surface", f"{len(lines)} rows, "
                          f"expected {expect_rows}"))
        worst = 0.0
        for line in lines:
            re, im, lk = line.split(",")
            w = complex(float(re), float(im))
            if abs(w) >= 0.05:
                worst = max(worst, abs(float(lk) - _pstar_log_k(w)))
        if worst > PSTAR_TOL:
            fails.append(("pstar_surface", f"max |log K - closed form| {worst:.3e}"))
    return fails


def check_psh_control(cfg: dict, out: Path, meta: dict) -> list:
    reports = _payload(out, "psh_report.json")["reports"]
    if any(rep["verdict"] == "FAIL" for rep in reports):
        return []
    return [("control_fail", "anti-holomorphic control reported no FAIL")]


# ---------------------------------------------------------------------------
# lambda / annihilate
# ---------------------------------------------------------------------------

def check_lambda_pstar(cfg: dict, out: Path, meta: dict) -> list:
    fails = []
    p = _payload(out, "lambda.json")
    if p["agree"] is not True:
        fails.append(("lambda_agree", f"mismatches {p['mismatches']}"))
    if cfg.get("nMax", 0) > cfg["ideal"]["truncation"]:
        if p.get("krull", {}).get("nested") is not True:
            fails.append(("krull_nested", f"krull {p.get('krull')}"))
    # Lambda of the P* pencil is the origin alone
    if p["lambdaPsi"] != [[[0.0, 0.0]]]:
        fails.append(("lambda_origin", f"lambdaPsi {p['lambdaPsi']}"))
    return fails


def _poly_eval(terms: list, w: tuple) -> complex:
    total = 0j
    for t in terms:
        term = complex(t["re"], t.get("im", 0.0))
        for wi, bi in zip(w, t["beta"]):
            term *= wi**bi
        total += term
    return total


def _jet_matrix(ideal: dict, basis: list, w: tuple):
    """A(w): coefficients of z^beta g_i (z, w) on the jet basis, rebuilt here."""
    import numpy as np

    n = ideal["zArity"]
    row = {tuple(a): i for i, a in enumerate(basis)}
    cols = []
    for gen in ideal["generators"]:
        for beta in basis:
            col = np.zeros(len(basis), dtype=complex)
            for t in gen:
                alpha = tuple(b + g for b, g in zip(beta, t["beta"][:n]))
                if alpha in row:
                    c = complex(t["re"], t.get("im", 0.0))
                    for wi, ei in zip(w, t["beta"][n:]):
                        c *= wi**ei
                    col[row[alpha]] += c
            cols.append(col)
    return np.stack(cols, axis=1)


def check_annihilate(cfg: dict, out: Path, meta: dict) -> list:
    import numpy as np

    fails = []
    p = _payload(out, "annihilator.json")
    ideal = cfg["ideal"]
    n, N = ideal["zArity"], ideal["truncation"]
    jets = {a for a in product(range(N), repeat=n) if sum(a) <= N - 1}
    if {tuple(a) for a in p["basis"]} != jets or len(p["basis"]) != len(jets):
        fails.append(("jet_basis", f"basis {p['basis']}"))
        return fails
    if p["productResidual"] > PRODUCT_RESIDUAL_TOL:
        fails.append(("product_residual", f"{p['productResidual']:.3e}"))
    if p["s"] != p["p"] - p["rank"] or len(p["rows"]) != p["s"]:
        fails.append(("functional_count", f"p {p['p']} r {p['rank']} s {p['s']}"))
    if "expect_s" in meta and p["s"] != meta["expect_s"]:
        fails.append(("functional_count",
                      f"s {p['s']}, expected {meta['expect_s']}"))
    for w in ((0.37 + 0.21j,), (-0.52 + 0.11j,)):
        A = _jet_matrix(ideal, p["basis"], w)
        B = np.zeros((p["s"], p["p"]), dtype=complex)
        for k, row in enumerate(p["rows"]):
            for l, entry in enumerate(row):
                B[k, p["rowPermutation"][l]] = _poly_eval(entry, w)
        resid = np.linalg.norm(B @ A)
        scale = np.linalg.norm(B) * np.linalg.norm(A)
        if resid > IDENTITY_REL_TOL * max(scale, 1e-300):
            fails.append(("annihilator_identity",
                          f"|B(w)A(w)| {resid:.3e} vs scale {scale:.3e} at w={w[0]}"))
    return fails


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def check_extend(cfg: dict, out: Path, meta: dict) -> list:
    fails = []
    p = _payload(out, "extend.json")
    if not p["kktResidual"] <= KKT_TOL:
        fails.append(("kkt_residual", f"{p['kktResidual']:.3e}"))
    if meta.get("w_independent"):
        if not _close(p["ratio"], 1.0, 0, RATIO_TOL):
            fails.append(("ratio_windependent", f"ratio {p['ratio']!r}, expected 1"))
    elif not p["ratio"] <= 1.0 + RATIO_BOUND_SLACK:
        fails.append(("ratio_bound", f"ratio {p['ratio']!r} > 1"))
    if "jensen" in cfg:
        j = p["jensen"]
        if j["holds"] is not True:
            fails.append(("jensen_holds", f"lhs {j['lhs']} rhs {j['rhs']}"))
        if not _close(j["areaCheck"], 1.0, 0, 1e-9):
            fails.append(("jensen_area", f"areaCheck {j['areaCheck']!r}"))
    return fails


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def radial_moment(e: float, q: float, R: float) -> float:
    """Integral over |z| < R of |z|^(2e-2) exp(-q |z|^2), e > 0."""
    if q == 0:
        return math.pi * R ** (2 * e) / e
    return math.pi * math.exp(
        gammaln(e) + math.log(gammainc(e, q * R * R)) - e * math.log(q)
    )


def _labels(n: int, degree: int):
    return [a for a in product(range(degree + 1), repeat=n) if sum(a) <= degree]


def _action(xi: dict, alpha: tuple, shift: tuple) -> complex:
    """xi applied to the Taylor data of (z - c)^alpha at z, shift = z - c."""
    total = 0j
    for t in xi["terms"]:
        beta = t["alpha"]
        if any(b > a for a, b in zip(alpha, beta)):
            continue
        v = complex(t["re"], t.get("im", 0.0))
        for a, b, s in zip(alpha, beta, shift):
            v *= math.comb(a, b) * s ** (a - b)
        total += v
    return total


def _radial_parts(weight: dict, n: int):
    """(q, c, shift): per-coordinate Gaussian and log exponents, constant."""
    q, c, shift = [0.0] * n, [0.0] * n, 0.0
    parts = weight["parts"] if weight["variant"] == "sum" else [weight]
    for part in parts:
        v = part["variant"]
        if v == "constant":
            shift += part["value"]
        elif v == "quadratic":
            q = [a + b for a, b in zip(q, part["coeffs"])]
        elif v == "log_monomial":
            c = [a + b for a, b in zip(c, part["coeffs"])]
        elif v != "zero":
            raise ValueError(f"no radial closed form for {v!r}")
    return q, c, shift


def radial_kernel(cfg: dict) -> float:
    """Truncated kernel for a weight radial about the domain center."""
    dom = cfg["domain"]
    n = len(dom["radii"])
    center = [_cx(c) for c in dom.get("center", [])] or [0j] * n
    weight = cfg["weight"]
    if weight["variant"] == "quadratic" and [
        _cx(a) for a in weight.get("center", [])
    ] not in ([], center):
        raise ValueError("quadratic weight is not centered on the domain")
    q, c, shift = _radial_parts(weight, n)
    z = [_cx(p) for p in cfg["point"]]
    dz = tuple(zi - ci for zi, ci in zip(z, center))
    total = 0.0
    for alpha in _labels(n, cfg["degree"]):
        es = [a - ci + 1.0 for a, ci in zip(alpha, c)]
        if any(e <= 0 for e in es):
            continue
        m = math.exp(-shift) * math.prod(
            radial_moment(e, qi, R) for e, qi, R in zip(es, q, dom["radii"])
        )
        total += abs(_action(cfg["functional"], alpha, dz)) ** 2 / m
    return total


def divisor_kernel(cfg: dict) -> float:
    """Truncated kernel on the basis g z^alpha of a centered polydisc."""
    dom = cfg["domain"]
    n = len(dom["radii"])
    g = [(tuple(t["beta"]), complex(t["re"], t.get("im", 0.0)))
         for t in cfg["weight"]["g"]]
    z = [_cx(p) for p in cfg["point"]]
    total = 0.0
    for alpha in _labels(n, cfg["degree"]):
        # Taylor data at z of g(z) z^alpha: shift every monomial of the product
        act = sum(
            cg * _action(cfg["functional"], tuple(a + b for a, b in zip(gb, alpha)),
                         tuple(z))
            for gb, cg in g
        )
        m = math.prod(radial_moment(a + 1.0, 0.0, R)
                      for a, R in zip(alpha, dom["radii"]))
        total += abs(act) ** 2 / m
    return total


def _kernel_value(out: Path) -> float:
    return float(_payload(out, "kernel.json")["K"])


def check_kernel_radial(cfg: dict, out: Path, meta: dict) -> list:
    fails = []
    K = _kernel_value(out)
    expect = radial_kernel(cfg)
    quadrature = cfg["weight"]["variant"] == "quadratic"
    tol = QUAD_REL_TOL if quadrature else CLOSED_REL_TOL
    if not _close(K, expect, tol):
        fails.append(("radial_closed_form", f"K {K!r}, closed form {expect!r}"))
    terms = cfg["functional"]["terms"]
    if (cfg["weight"]["variant"] == "zero" and cfg["domain"]["radii"] == [1.0]
            and not cfg["domain"].get("center")
            and [(t["alpha"], t["re"], t.get("im", 0.0)) for t in terms]
            == [([0], 1.0, 0.0)]):
        # unit-disc Dirac kernel; the truncation drops sum_{k>d} (k+1)|z|^2k / pi
        r2 = abs(_cx(cfg["point"][0])) ** 2
        d = cfg["degree"]
        tail = ((d + 2) * r2 ** (d + 1) - (d + 1) * r2 ** (d + 2)) / (
            math.pi * (1 - r2) ** 2)
        dirac = 1.0 / (math.pi * (1 - r2) ** 2)
        if not abs(K + tail - dirac) <= 1e-12 * dirac:
            fails.append(("dirac_closed_form", f"K {K!r} vs {dirac!r}"))
    return fails


def check_kernel_divisor(cfg: dict, out: Path, meta: dict) -> list:
    K = _kernel_value(out)
    expect = divisor_kernel(cfg)
    if _close(K, expect, CLOSED_REL_TOL):
        return []
    return [("divisor_closed_form", f"K {K!r}, closed form {expect!r}")]


def check_kernel_empty(cfg: dict, out: Path, meta: dict) -> list:
    p = _payload(out, "kernel.json")
    fails = []
    if p["K"] != 0.0 or p["modelRank"] != 0:
        fails.append(("empty_model", f"K {p['K']} rank {p['modelRank']}"))
    if "warning" not in meta.get("stderr", ""):
        fails.append(("empty_model_warning", "no warning on stderr"))
    return fails


CHECKS = {
    "psh_pstar": check_psh_pstar,
    "psh_control": check_psh_control,
    "lambda_pstar": check_lambda_pstar,
    "annihilate": check_annihilate,
    "extend": check_extend,
    "kernel_radial": check_kernel_radial,
    "kernel_divisor": check_kernel_divisor,
    "kernel_empty": check_kernel_empty,
}


def check_command(cmd, rc: int | None, error: str | None, out: Path,
                  stderr: str) -> list:
    """All failures of one command; an escaped exception is one failure."""
    if error is not None:
        return [("exception", error)]
    fails = []
    if rc != cmd.expect_exit:
        fails.append(("exit_code", f"exit {rc}, expected {cmd.expect_exit}: "
                      f"{stderr.strip()[-300:]}"))
    try:
        # also on a wrong exit code, so that a FAIL verdict names its circle
        fails += CHECKS[cmd.check](cmd.config, out, dict(cmd.meta, stderr=stderr))
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        if not fails:
            fails.append(("output", f"{type(exc).__name__}: {exc}"))
    return fails
