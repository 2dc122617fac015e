"""The one reader of points, ``bergman._rows``, and its grid reader.

Every public function that takes points refuses a point of another arity
with the same ``ArityMismatchError``; a listed grid is read once, by
``bergman._grid_rows``, into the rows of the old per-point reader; and one
``lambda`` command reads each listed grid point once.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman import bergman, cli, ideal
from xibergman.bergman import _grid_rows, assemble_gram, kernels, xi_kernel
from xibergman.family import FunctionalFamily, PolyW
from xibergman.fiberwise import FamilyProblem, kernel_on_fiber, square_grid
from xibergman.functional import ArityMismatchError, Functional
from xibergman.ideal import (
    IdealFamily,
    build_annihilator,
    build_coeff_matrix,
    krull_stabilize,
    max_rank,
    membership_by_functionals,
    membership_oracle,
    psi_scan,
)
from xibergman.weights import JointLogDivisor, Polydisc, ZeroWeight

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
Z1 = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0})], 2)
PSTAR = JointLogDivisor(PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0}), 2)
F = PolyW(2, {(1, 0): 1.0})  # z1, in I_w at every w
ZERO = PolyW(2, {})


def _as_w(w, m: int) -> tuple[complex, ...]:
    """The former per-point reader of ``ideal``, kept as the reference: a
    base point as an m-tuple, a scalar the point (w,)."""
    if np.isscalar(w) or isinstance(w, complex):
        w = (w,)
    w = tuple(complex(x) for x in w)
    if len(w) != m:
        raise ValueError(f"base point {w} has {len(w)} coordinates, not {m}")
    return w


def _readers():
    """(name, call of a bad point, k, m): each call hands a reader a point of
    k coordinates where points have m."""
    model = assemble_gram(Polydisc((1.0, 1.0)), ZeroWeight(2), 2)
    problem = FamilyProblem(Polydisc((1.0, 1.0)), Polydisc((1.0,)), PSTAR,
                            FunctionalFamily(2, 1, {(0, 1): PolyW.constant(1.0, 1)}), 4)
    A = build_coeff_matrix(Z1)
    res = build_annihilator(Z1, [0.3])
    one, rows = (0.1, 0.2), np.array([[0.1, 0.2]])
    return [
        ("bergman.kernels", lambda: kernels(model, [(0, 0)], [[1.0]], (0.1, 0.2, 0.3)), 3, 2),
        ("bergman.xi_kernel",
         lambda: xi_kernel(model, Functional(2, {(0, 0): 1.0}), (0.1,)), 1, 2),
        ("fiberwise.kernel_on_fiber", lambda: kernel_on_fiber(problem, one, (0.0, 0.0)), 2, 1),
        ("ideal.max_rank", lambda: max_rank(A, [0.3, one]), 2, 1),
        ("CoeffMatrixA.evaluate", lambda: A.evaluate(one), 2, 1),
        ("in_U-point", lambda: res.in_U(one), 2, 1),
        ("in_U-rows", lambda: res.in_U(rows), 2, 1),
        ("eval_B-point", lambda: res.eval_B(one), 2, 1),
        ("eval_B-rows", lambda: res.eval_B(rows), 2, 1),
        ("membership_by_functionals", lambda: membership_by_functionals(res, one, F), 2, 1),
        ("membership_oracle", lambda: membership_oracle(Z1, one, F), 2, 1),
        # f = 0 is a member everywhere: the point is refused before that
        ("membership_oracle-zero", lambda: membership_oracle(Z1, one, ZERO), 2, 1),
        ("psi_scan", lambda: psi_scan(Z1, PSTAR, [0.3, one], degree=2), 2, 1),
    ]


READERS = _readers()


@pytest.mark.parametrize("call,k,m", [r[1:] for r in READERS],
                         ids=[r[0] for r in READERS])
def test_every_point_reader_refuses_another_arity_alike(call, k, m):
    with pytest.raises(ArityMismatchError,
                       match=rf"^{k} coordinates, not {m} \(points of arity {m}\)$"):
        call()


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@st.composite
def grids(draw):
    """(grid, m): a listed grid in one of the accepted forms, points drawn
    from a small pool so that some repeat."""
    m = draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(st.tuples(*[NUMBERS] * m), min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    forms = ["tuples", "rows"] + (["numbers", "mixed", "vector"] if m == 1 else [])
    form = draw(st.sampled_from(forms))
    if form == "tuples":
        return pts, m
    if form == "rows":
        return np.array(pts, dtype=complex), m
    if form == "vector":
        return np.array([p[0] for p in pts], dtype=complex), m
    if form == "numbers":
        return [p[0] for p in pts], m
    bare = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    return [p[0] if b else p for p, b in zip(pts, bare)], m


@settings(max_examples=300, deadline=None)
@given(grids())
def test_grid_rows_match_the_per_point_reader(case):
    grid, m = case
    want = np.array([_as_w(w, m) for w in grid], dtype=complex)
    got = _grid_rows(grid, m)
    assert got.shape == want.shape == (len(grid), m)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [[[[0.1], [0.2]]], [[[0.1], [0.2]], [[0.3], [0.4]]]])
def test_a_listed_item_of_several_points_is_refused(grid):
    # a listed item is one point, never a block of rows
    with pytest.raises(ValueError):
        _grid_rows(grid, 1)


def test_krull_scans_alike_on_the_list_and_on_its_rows():
    # numbers, [re, im] values read as complex and 1-tuples, one repeated
    grid = [0.3, complex(0.0, 0.0), (-0.3 + 0j,), 0.2j, (0.3,), -0.1 + 0.1j]
    W = np.array([_as_w(w, 1) for w in grid])

    def reprs(krull):
        return {N: [repr((p.flag, p.psi, p.kernels)) for p in scan.points]
                for N, scan in krull.per_n.items()}

    on_list = krull_stabilize(Z1, PSTAR, grid, 3, degree=4)
    on_rows = krull_stabilize(Z1, PSTAR, W, 3, degree=4)
    assert reprs(on_list) == reprs(on_rows)
    assert on_list.per_n[2].lambda_psi == on_rows.per_n[2].lambda_psi == [1]


def test_one_lambda_reads_each_listed_grid_point_once(tmp_path, monkeypatch):
    """``lambda`` on the shipped P* config at nMax 4: its 81 listed grid
    points are read once each, not once per jet order and per stage."""
    cfg = json.loads((CONFIGS / "lambda_pstar.json").read_text())
    cfg["nMax"] = 4
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(cfg))
    listed, reads, arrays = [], Counter(), []
    grid_points, rows = cli._grid_points, bergman._rows

    def listing(grid, m=1):
        listed.extend(grid_points(grid, m))
        return listed

    def spy(x, arity):
        if np.ndim(x) == 2:
            arrays.append(np.shape(x))
        reads[id(x)] += 1
        return rows(x, arity)

    monkeypatch.setattr(cli, "_grid_points", listing)
    monkeypatch.setattr(bergman, "_rows", spy)
    monkeypatch.setattr(ideal, "_rows", spy)
    assert cli.main(["lambda", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(listed) == 81
    assert [reads[id(w)] for w in listed] == [1] * 81
    assert (81, 1) in arrays  # the grid, handed down as one array
