"""The command line against the benchmark's independent oracle.

``bench/oracle.py`` re-derives every documented rule (rounding, capital
charging, discount factors, rendering) without importing lcoai. Here random
oracle specs are written as scenario files and every command's text from
``cli_report.main`` must equal the oracle's: compute, baseline and all three
sweeps. Break-even crossovers are confirmed at V-1 and V by the oracle, and
single-period undiscounted pairs must match its closed form exactly. The
oracle module is only read, never changed.
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lcoai.cli_report import EXIT_OK, EXIT_UNDEFINED, main

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "bench"))
import oracle  # noqa: E402
from oracle import Spec, usd_text  # noqa: E402

_STEPS = ("0.0001", "0.000001", "0.25")


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "scenarios.json"


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@st.composite
def specs(draw, name="s"):
    """1-, 3-, 6- and 12-month periods, none or wacc, the denominator
    discounted or not, asset lives within, past and equal to the horizon,
    and projections that start (or stay) at zero volume."""
    periods = draw(st.integers(1, 8))
    period_months = draw(st.sampled_from((1, 3, 6, 12)))
    months = periods * period_months
    lives = st.one_of(st.just("horizon"), st.integers(1, months),
                      st.integers(months, 4 * months))
    capex = draw(st.lists(st.tuples(st.just("c"), st.integers(0, 10**12), lives), max_size=3))
    volumes = draw(st.lists(st.integers(0, 10**8), min_size=periods, max_size=periods))
    zero_start = min(periods, draw(st.sampled_from((0, 0, 0, 1, 2, periods))))  # no volume yet
    wacc = draw(st.sampled_from((None, "0.05", "0.08", "0.105", "0.12")))
    return Spec(name=name, capex=tuple((f"{label}{i}", micro, life)
                                       for i, (label, micro, life) in enumerate(capex)),
                rate=draw(st.integers(0, 10**5)),
                fixed=draw(st.sampled_from((0, 0, 10**6, 7_654_321_987))),
                volumes=(0,) * zero_start + tuple(volumes[zero_start:]),
                period_months=period_months, wacc=wacc,
                discount_denominator=wacc is not None and draw(st.booleans()))


@st.composite
def crossing_pairs(draw, base):
    """``base`` with more capital, and a rival on the same horizon and
    volumes that charges ``base``'s capital and a dearer rate. The capital
    gap is small enough that the curves cross at some V > 1 below the
    default search bound."""
    gap = draw(st.integers(10**8, 10**11))
    heavy = replace(base, name="heavy", capex=base.capex + (("gap", gap, "horizon"),))
    light = replace(base, name="light",
                    capex=(("api", oracle.charged_capex(base), "horizon"),),
                    rate=base.rate + draw(st.integers(10**3, 10**4)), fixed=0)
    return heavy, light


def _stop(start: str, step: str, points: int) -> str:
    return str(Decimal(start) + Decimal(step) * (points - 1))


def _sweep_lines(spec: Spec, parameter: str, start: str, step: str, points: int) -> str:
    """The oracle's series; at a zero-volume base every opex and capex cost is NA."""
    stop = _stop(start, step, points)
    if sum(spec.volumes) or parameter == "volume":
        return oracle.sweep_text(spec, parameter, start, stop, step)[0]
    ones = replace(spec, volumes=(1,) * len(spec.volumes))
    rows = oracle.sweep_text(ones, parameter, start, stop, step)[0].split("\r\n")
    return "\r\n".join(rows[:1] + [r.split(",")[0] + ",NA" for r in rows[1:-1]]) + "\r\n"


@settings(max_examples=300)
@given(data=st.data())
def test_cli_text_matches_the_oracle(scenario_path, data):
    spec = data.draw(specs())
    heavy, light = data.draw(crossing_pairs(spec))
    scenario_path.write_text(json.dumps(
        {"version": 1, "scenarios": [s.to_json() for s in (spec, heavy, light)]}))

    defined = sum(spec.volumes) > 0
    code, out = _run(["compute", scenario_path, spec.name])
    assert (code, out) == ((EXIT_OK, oracle.compute_text(spec)) if defined else (EXIT_UNDEFINED, ""))

    baseline = data.draw(st.integers(1, 10**6))
    code, out = _run(["baseline", scenario_path, spec.name, "--baseline", usd_text(baseline)])
    if defined:
        assert (code, out) == (EXIT_OK, oracle.baseline_text(spec, baseline))
    else:
        assert code == EXIT_UNDEFINED

    points = data.draw(st.integers(1, 4))
    grids = {
        "volume": (str(data.draw(st.sampled_from((0, 1, 999_999)))),
                   str(data.draw(st.integers(1, 10**7)))),
        "opex_rate": (usd_text(data.draw(st.integers(0, 10**5))), data.draw(st.sampled_from(_STEPS))),
        "capex_multiplier": (str(Decimal(data.draw(st.integers(1, 30_000))).scaleb(-4)),
                             data.draw(st.sampled_from(_STEPS))),
    }
    for parameter, (start, step) in grids.items():
        code, out = _run(["sweep", scenario_path, spec.name, parameter, "--start", start,
                          "--stop", _stop(start, step, points), "--step", step])
        assert (code, out) == (EXIT_OK, _sweep_lines(spec, parameter, start, step, points))

    code, out = _run(["breakeven", scenario_path, heavy.name, light.name])
    assert code == EXIT_OK
    assert oracle.confirm_breakeven(heavy, light, out), out
    if len(spec.volumes) == 1 and spec.wacc is None and spec.fixed == 0:
        assert out == oracle.closed_form_breakeven_text(heavy, light)
