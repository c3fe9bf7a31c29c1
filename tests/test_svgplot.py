"""The M4 thinning of SVG polylines: every pixel column's first, last,
lowest and highest point survives, in order, on random polylines and on the
figures reproduce-paper writes."""

import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrate import svgplot
from qrate.cli import main


def _runs(xp, yp) -> list[list[int]]:
    """Maximal runs of consecutive points in one pixel column floor(x), as
    index lists; a point with a non-finite coordinate is a run of its own."""
    runs, prev_col = [], None
    for i, (x, y) in enumerate(zip(xp, yp)):
        col = math.floor(x) if math.isfinite(x) and math.isfinite(y) else None
        if col is not None and col == prev_col:
            runs[-1].append(i)
        else:
            runs.append([i])
        prev_col = col
    return runs


def _m4_problems(xp, yp, kept: list[str], key) -> list[str]:
    """How the kept points, as ``key(x, y)`` strings in polyline order, fail
    to be an in-order subsequence of (xp, yp) that keeps, of every run, at
    most four points among them its first, its last and the first at its
    lowest and at its highest y."""
    xp, yp = list(map(float, xp)), list(map(float, yp))
    keys = [key(x, y) for x, y in zip(xp, yp)]
    problems, pos = [], 0
    for run in _runs(xp, yp):
        run_keys = [keys[i] for i in run]
        got, at = [], 0
        # the kept points that follow in order within this run
        while pos < len(kept) and kept[pos] in run_keys[at:]:
            at = run_keys.index(kept[pos], at) + 1
            got.append(kept[pos])
            pos += 1
        ys = [yp[i] for i in run]
        need = {run_keys[0], run_keys[-1],
                run_keys[min(range(len(ys)), key=ys.__getitem__)],
                run_keys[max(range(len(ys)), key=ys.__getitem__)]}
        if not need <= set(got):
            problems.append(f"run at x={xp[run[0]]!r}: kept {got}, needs {sorted(need)}")
        if len(got) > 4:
            problems.append(f"run at x={xp[run[0]]!r}: kept {len(got)} points")
    if pos < len(kept):
        problems.append(f"kept point {kept[pos]} is not next in the polyline")
    return problems


def _exact(x: float, y: float) -> str:
    return f"{x!r},{y!r}"


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _polylines(draw):
    """Polylines over a few pixel columns: monotone or not, constant or
    step traces, with non-finite coordinates dropped in."""
    n = draw(st.integers(0, 80))
    xs = draw(st.lists(st.floats(0.0, 12.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        xs.sort()
    ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        ys = [ys[0]] * n
    xs, ys = np.array(xs), np.array(ys)
    if n > 1 and draw(st.booleans()):  # as render_svg draws a step trace
        xs, ys = np.repeat(xs, 2)[1:], np.repeat(ys, 2)[:-1]
    for _ in range(draw(st.integers(0, 3)) if xs.size else 0):
        coord = ys if draw(st.booleans()) else xs
        coord[draw(st.integers(0, xs.size - 1))] = draw(_NON_FINITE)
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(_polylines())
@example((np.array([0.5, 0.6, 0.7, 0.8, 0.9]), np.array([0.0, 3.0, 1.0, 1.0, 1.0])))
@example((np.array([0.5, 1.5, 0.5, 1.5, 0.5, 1.5]), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])))
@example((np.full(6, math.nan), np.zeros(6)))
@example((np.array([1.0, 2.0, math.inf, math.inf, -math.inf, 3.0]), np.arange(6.0)))
@example((np.arange(6.0), np.array([0.0, math.inf, math.inf, math.nan, -math.inf, 1.0])))
@example((np.array([2.1, 2.2, 2.3]), np.array([1.0, -1.0, 0.0])))
def test_m4_keeps_every_columns_first_last_lowest_and_highest(polyline):
    xs, ys = polyline
    kx, ky = svgplot._m4(xs, ys)
    assert kx.shape == ky.shape
    if xs.size <= 4:
        assert kx is xs and ky is ys
    kept = [_exact(x, y) for x, y in zip(kx.tolist(), ky.tolist())]
    assert _m4_problems(xs, ys, kept, _exact) == []


def test_reproduce_paper_svgs_keep_every_columns_extremes(tmp_path, monkeypatch):
    unthinned = []  # the px/py of each polyline, as render_svg maps the log

    def recording_m4(xp, yp):
        unthinned.append((xp.copy(), yp.copy()))
        return m4(xp, yp)

    m4 = svgplot._m4
    monkeypatch.setattr(svgplot, "_m4", recording_m4)
    assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
    polylines = []
    for label in ("raw", "certified"):
        n_dense = len((tmp_path / label / "dense.csv").read_text().splitlines()) - 1
        n_samples = len((tmp_path / label / "samples.csv").read_text().splitlines()) - 1
        for name, sizes in (("err_E.svg", (n_dense, 2 * n_samples - 1)),
                            ("x1_aux.svg", (n_dense, n_dense))):
            svg = (tmp_path / label / name).read_bytes()
            assert len(svg) < 100_000, (label, name, len(svg))
            points = re.findall(r'points="([^"]*)"', svg.decode("utf-8"))
            polylines += [(label, name, size, p.split(" ")) for size, p in zip(sizes, points)]
    assert len(polylines) == len(unthinned) == 8
    for (label, name, size, kept), (xp, yp) in zip(polylines, unthinned):
        assert xp.size == size, (label, name)  # every record of the log
        assert len(kept) <= 4 * 870 + np.count_nonzero(~np.isfinite(xp + yp))
        assert _m4_problems(xp, yp, kept, lambda x, y: svgplot._POINT % (x, y)) == [], \
            (label, name)
