"""The threshold sweep, ``metrics._curves``, against the broadcast form
(``protocol_oracle.ref_curves``): the same bits on every shape, grid and
value, and a fraction of its memory on a long sequence."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fusebench.metrics import MetricConfig, _curves
from fusebench.report import POOLING_MODES
from protocol_oracle import ref_curves


def _grid(draw, high: float) -> np.ndarray:
    """A strictly increasing grid of one to six points in ``[0, high]``,
    starting at 0.0, -0.0 or a positive point."""
    n = draw(st.integers(1, 6))
    points = sorted(draw(st.lists(st.floats(0.0, high, exclude_min=True), min_size=n, max_size=n, unique=True)))
    start = draw(st.sampled_from([None, 0.0, -0.0]))
    return np.array(points if start is None else [start, *points[1:]])


@st.composite
def sweeps(draw):
    """Arguments of ``_curves``: values of shape ``(T,)``, ``(S, T)`` or
    ``(P, S, T)``, many of them on a grid point or 1 ulp either side, with
    NaN and infinite distances and correct absences mixed in."""
    shape = (*draw(st.lists(st.integers(1, 4), max_size=2)), draw(st.integers(1, 25)))
    ths, thp = _grid(draw, 1.0), _grid(draw, 60.0)
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(grid: np.ndarray, extra: list[float], high: float) -> np.ndarray:
        near = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), extra])
        return np.where(data.random(shape) < 0.7, data.choice(near, shape), data.uniform(0.0, high, shape))

    overlap = column(ths, [0.0, 1.0], 1.0)
    distance = column(thp, [0.0, np.nan, np.inf], 80.0)
    correct = data.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    return (overlap, distance, correct), ths, thp


class TestSweepReference:
    @settings(max_examples=300, deadline=None)
    @given(sweep=sweeps(), pooling=st.sampled_from(POOLING_MODES))
    def test_equals_the_broadcast_sweep(self, sweep, pooling):
        values, ths, thp = sweep
        for got, want in zip(_curves(values, ths, thp, pooling), ref_curves(values, ths, thp, pooling)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestSweepMemory:
    def test_long_sequence_peaks_under_three_columns(self):
        # one 200,000-frame sequence on the default grids: the sort holds a
        # copy of each value column (3.2 MB), the broadcast form (51 + 21)
        # booleans per frame and their or-ed copies (20.4 MB)
        t = 200_000
        rng = np.random.default_rng(0)
        correct = rng.random(t) < 0.1
        values = (np.where(correct, 1.0, rng.random(t)), np.where(correct, np.nan, 60.0 * rng.random(t)), correct)
        ths, thp = np.array(MetricConfig().success_thresholds), np.array(MetricConfig().precision_thresholds)
        peaks = []
        for sweep in (_curves, ref_curves):
            tracemalloc.start()
            try:
                sweep(values, ths, thp, "frame")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 2.5 * t * 8  # two and a half float columns of the sequence, 4 MB
        assert peaks[0] < bound < peaks[1], peaks
