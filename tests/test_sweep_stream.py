"""The streamed ``sweep`` command against the library path it replaced.

The command builds its grid as a range of integers, evaluates it through the
same series generator as :func:`~lcoai.sensitivity.sweep` and writes its CSV
a chunk at a time. Its stdout must equal ``sweep_series_csv(sweep(...))`` on
every scenario and grid, its memory must stay flat in the point count, and
an undiscounted volume point must cost O(1) whatever the period count.
"""

import contextlib
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcoai import (
    CapexItem,
    CostScenario,
    DiscountPolicy,
    Horizon,
    Money,
    OpexModel,
    PerInferenceRate,
    SweepSpec,
    UndefinedMetricError,
    VolumeProjection,
    compute_lcoai,
    save_scenarios,
    sweep,
    sweep_series_csv,
    with_total_volume,
)
from lcoai.cli_report import SWEEP_CHUNK_ROWS, main
from lcoai.cost_core import CompiledScenario, _rescaled, decimal_text

from conftest import FIXTURES

TABLE1 = str(FIXTURES / "table1.json")
GPT = "GPT-4.1 API"


class _Discard:
    """A text stream that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class _Capture:
    """A text stream that keeps each write."""

    def __init__(self):
        self.parts = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@st.composite
def scenarios(draw):
    """1 to 40 periods on yearly, quarterly or monthly grids, no discounting
    or wacc with either denominator, drawn, all-zero or one-spike
    projections, and a zero rate or fixed charge among the draws."""
    periods = draw(st.integers(1, 40))
    months = draw(st.sampled_from((12, 3, 1)))
    shape = draw(st.sampled_from(("drawn", "zero", "spike")))
    volumes = [0] * periods
    if shape == "drawn":
        volumes = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**8)),
                                min_size=periods, max_size=periods))
    elif shape == "spike":
        volumes[draw(st.integers(0, periods - 1))] = draw(st.integers(1, 10**9))
    mode = draw(st.sampled_from(("none", "wacc")))
    rate = Fraction(draw(st.integers(0, 40)), 100) if mode == "wacc" else None
    lives = st.one_of(st.just("horizon"), st.integers(1, 4 * periods * months))
    capex = draw(st.lists(st.builds(lambda amount, life: CapexItem("c", Money(amount), life),
                                    st.integers(0, 10**12), lives), max_size=2))
    return CostScenario(
        "s", capex,
        OpexModel(PerInferenceRate(draw(st.sampled_from((0, 1, 4_800, 99_999)))),
                  Money(draw(st.sampled_from((0, 10**6, 7_654_321_987))))),
        VolumeProjection(volumes), Horizon(periods, months),
        DiscountPolicy(mode, rate, draw(st.booleans())))


_decimal_fractions = st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
                               st.integers(1, 10**6), st.integers(0, 6), st.integers(0, 6))


@st.composite
def grids(draw):
    """``(parameter, start, step, count)``: a grid of each parameter, a
    volume grid that may start at 0, and counts past one chunk."""
    parameter = draw(st.sampled_from(("volume", "opex_rate", "capex_multiplier")))
    count = draw(st.one_of(st.integers(1, 30),
                           st.integers(SWEEP_CHUNK_ROWS - 1, 2 * SWEEP_CHUNK_ROWS + 1)))
    if parameter == "volume":
        start = draw(st.one_of(st.just(0), st.integers(0, 10**9)))
        step = draw(st.integers(1, 10**7))
    elif parameter == "opex_rate":
        start, step = draw(st.integers(0, 10**5)), draw(st.integers(1, 10**4))
    else:
        start, step = draw(_decimal_fractions), draw(_decimal_fractions)
    return parameter, start, step, count


def _grid_text(parameter: str, value) -> str:
    if parameter == "opex_rate":
        return decimal_text(Fraction(value, 10**6))
    return decimal_text(value)


def _library_points(parameter: str, start, step, count: int) -> tuple:
    values = [start + k * step for k in range(count)]
    if parameter == "opex_rate":
        return tuple(map(PerInferenceRate, values))
    return tuple(values)


@settings(max_examples=60)
@given(scenario=scenarios(), grid=grids())
def test_command_prints_the_library_csv(scenario, grid):
    parameter, start, step, count = grid
    stop = start + (count - 1) * step
    expected = sweep_series_csv(sweep(scenario, SweepSpec(
        parameter, _library_points(parameter, start, step, count))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_scenarios(path, [scenario])
        out = _Capture()
        with contextlib.redirect_stdout(out):
            code = main(["sweep", str(path), "s", parameter,
                         *(f"--{name}={_grid_text(parameter, value)}"
                           for name, value in (("start", start), ("stop", stop), ("step", step)))])
    assert code == 0
    assert "".join(out.parts) == expected
    assert len(out.parts) == 1 + -(-count // SWEEP_CHUNK_ROWS)  # the header, then each chunk


@settings(max_examples=150)
@given(scenario=scenarios(), total=st.one_of(st.integers(0, 3), st.integers(0, 10**12)))
def test_terms_at_is_the_rescaled_projections_terms(scenario, total):
    kernel = CompiledScenario(scenario)
    try:
        expected = kernel.volume_terms(_rescaled(kernel.volumes, total))
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            kernel.terms_at(total)
        return
    assert kernel.terms_at(total) == expected


@pytest.mark.parametrize("per_period, total", [((0,), 0), ((0,), 7), ((5,), 0), ((5,), 7)])
def test_one_period_rescales_to_the_total(per_period, total):
    assert _rescaled(per_period, total) == (total,)


@pytest.mark.parametrize("points", [10_000, 100_000])
def test_sweep_memory_is_flat_in_the_point_count(points):
    argv = ["sweep", TABLE1, GPT, "volume", "--start", "0", "--stop", str(points - 1),
            "--step", "1"]
    with contextlib.redirect_stdout(_Discard()):
        main(argv[:5] + ["0", "--stop", "1", "--step", "1"])  # imports and parser built
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20


def test_undiscounted_volume_point_is_constant_in_the_period_count(tmp_path):
    # 100,000 points on 100,000 periods: O(periods) per point would take hours
    periods = 100_000
    scenario = CostScenario(
        "long", (CapexItem("cluster", Money(10**11)),),
        OpexModel(PerInferenceRate(4_800), Money(10**6)),
        VolumeProjection([t % 7 for t in range(periods)]), Horizon(periods, 1))
    path = tmp_path / "long.json"
    save_scenarios(path, [scenario])
    out = _Capture()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", str(path), "long", "volume", "--start", "1000000000",
                     "--stop", str(10**9 + 99_999 * 1000), "--step", "1000"])
    assert time.perf_counter() - began < 10
    assert code == 0
    lines = "".join(out.parts).split("\r\n")
    assert len(lines) == 1 + 100_000 + 1
    volume = 10**9 + 99_999 * 1000
    cents = (compute_lcoai(with_total_volume(scenario, volume)).per_thousand.amount + 5_000) // 10_000
    assert lines[-2] == f"{volume},{cents // 100}.{cents % 100:02}"
