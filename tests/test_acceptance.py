"""Acceptance gate: every exit criterion for the toolkit, one test each.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
All money comparisons are exact (tolerance $0.00) because the arithmetic is
integer micro-dollars end to end.
"""

import random
import socket
from datetime import datetime, timezone
from fractions import Fraction

from lcoai import (
    CapexItem,
    CostScenario,
    DiscountPolicy,
    HORIZON_LIFE,
    Horizon,
    InferenceRecord,
    Money,
    OpexModel,
    PerInferenceRate,
    RecordKind,
    RecordStatus,
    SweepSpec,
    VolumeProjection,
    amortize_capex,
    break_even,
    build_comparison_table,
    compute_lcoai,
    count_valid,
    load_scenarios,
    round_half_away,
    sweep,
    sweep_series_csv,
    with_capex_scaled,
    with_total_volume,
)

from conftest import FIXTURES, GOLDEN

N_INSTANCES = 120  # every randomized property below runs at least this often


def _fixture(name_part):
    scenarios = load_scenarios(FIXTURES / "table1.json")
    return next(s for s in scenarios if name_part in s.name)


def test_criterion_1_comparison_table_values():
    expected = {
        "GPT-4.1 API": "15.00",
        "Claude Haiku API": "9.80",
        "LLaMA-2-13B self-hosted": "24.80",
    }
    for name, usd in expected.items():
        result = compute_lcoai(_fixture(name))
        assert result.per_thousand == Money.from_usd(usd), name
    print("criterion 1: PASS — fixture trio yields exactly "
          "$15.00 / $9.80 / $24.80 per 1,000")


def test_criterion_2_volume_sweep_endpoints():
    spec = SweepSpec("volume", (1_000_000, 50_000_000))
    llama = sweep(_fixture("LLaMA"), spec).series
    assert llama[0][1] == Money.from_usd("204.80")
    assert llama[1][1] == Money.from_usd("8.80")
    gpt = sweep(_fixture("GPT"), spec).series
    assert gpt[0][1] == Money.from_usd("60.00")
    assert gpt[1][1] == Money.from_usd("11.00")
    claude = sweep(_fixture("Claude"), spec).series
    assert claude[0][1] == Money.from_usd("54.80")
    # The 50M endpoint computes to exactly $5.80. The $9.80 figure sometimes
    # quoted for this deployment "at higher volumes" is actually its
    # 10M-volume baseline value, not the 50M endpoint; the toolkit reports
    # the computed value.
    assert claude[1][1] == Money.from_usd("5.80")
    assert compute_lcoai(_fixture("Claude")).per_thousand == Money.from_usd("9.80")
    print("criterion 2: PASS — volume endpoints $204.80/$8.80, $60.00/$11.00, "
          "$54.80 exact; 50M value $5.80 asserted (the $9.80 figure is the "
          "10M baseline)")


def test_criterion_3_opex_sweep_points():
    llama = sweep(_fixture("LLaMA"),
                  SweepSpec("opex_rate", (PerInferenceRate.from_usd("0.012"),)))
    assert llama.series[0][1] == Money.from_usd("32.00")
    gpt = sweep(_fixture("GPT"),
                SweepSpec("opex_rate", (PerInferenceRate.from_usd("0.015"),)))
    assert gpt.series[0][1] == Money.from_usd("20.00")
    print("criterion 3: PASS — OPEX points $32.00 and $20.00 exact")


def test_criterion_4_capex_sweep_points():
    spec = SweepSpec("capex_multiplier", (Fraction(7, 10), Fraction(13, 10)))
    series = sweep(_fixture("LLaMA"), spec).series
    assert series[0][1] == Money.from_usd("18.80")
    assert series[1][1] == Money.from_usd("30.80")
    print("criterion 4: PASS — CAPEX swing endpoints $18.80 and $30.80 exact")


def test_criterion_5_break_even():
    llama, gpt = _fixture("LLaMA"), _fixture("GPT")
    result = break_even(llama, gpt)
    assert result.crossover_volume == 28_846_154
    assert 25_000_000 <= result.crossover_volume <= 40_000_000
    assert result.cheaper_above == llama.name

    # brute-force grid oracle at 1,000-inference resolution
    def total_cost(scenario, volume):
        capex = scenario.capex[0].amount.amount
        return capex + scenario.opex.per_inference.rate * volume

    first_grid = next(v for v in range(1_000, 40_000_001, 1_000)
                      if total_cost(llama, v) < total_cost(gpt, v))
    assert abs(first_grid - result.crossover_volume) <= 1_000
    print("criterion 5: PASS — crossover 28,846,154 inside [25M, 40M]; "
          "1,000-step grid oracle agrees within one step")


def _random_scenario(rng, *, min_capex=0, periods=1):
    capex = rng.randint(min_capex, 10**11)
    rate = rng.randint(0, 10**5)
    volumes = tuple(rng.randint(1, 10**7) for _ in range(periods))
    return CostScenario(
        name="prop",
        capex=(CapexItem("c", Money(capex)),),
        opex=OpexModel(PerInferenceRate(rate)),
        volume=VolumeProjection(volumes),
        horizon=Horizon(periods, 12),
    )


def test_criterion_6_property_suite():
    rng = random.Random(0x1C0A1)

    # monotonicity in volume: exact value strictly decreasing, rounded value
    # non-increasing, whenever CAPEX > 0
    for _ in range(N_INSTANCES):
        scenario = _random_scenario(rng, min_capex=1)
        v1 = rng.randint(1, 10**8)
        v2 = v1 + rng.randint(1, 10**8)
        small = compute_lcoai(with_total_volume(scenario, v1))
        large = compute_lcoai(with_total_volume(scenario, v2))
        assert large.exact_per_inference < small.exact_per_inference
        assert large.per_inference.rate <= small.per_inference.rate

    # affine OPEX response: slope exactly 1,000 micro-dollars per 1,000
    # inferences for each micro-dollar of rate
    for _ in range(N_INSTANCES):
        scenario = _random_scenario(rng, periods=rng.randint(1, 3))
        r1 = rng.randint(0, 10**5)
        r2 = r1 + rng.randint(1, 10**5)
        points = (PerInferenceRate(r1), PerInferenceRate(r2))
        series = sweep(scenario, SweepSpec("opex_rate", points)).series
        assert series[1][1].amount - series[0][1].amount == 1000 * (r2 - r1)

    # affine CAPEX response: with exact item scaling, the unrounded value is
    # exactly affine in the multiplier
    for _ in range(N_INSTANCES):
        base = CostScenario(
            name="prop",
            capex=(CapexItem("c", Money(rng.randint(0, 10**10) * 10)),),
            opex=OpexModel(PerInferenceRate(rng.randint(0, 10**5))),
            volume=VolumeProjection((rng.randint(1, 10**7),)),
            horizon=Horizon(1, 12),
        )
        start = rng.randint(1, 20)
        step = rng.randint(1, 10)
        ks = [Fraction(start + i * step, 10) for i in range(3)]
        exact = [compute_lcoai(with_capex_scaled(base, k)).exact_per_inference
                 for k in ks]
        assert exact[0] + exact[2] == 2 * exact[1]

    # homogeneity: scaling every cost component by k scales the exact value
    # by k, and the rounded value stays within one micro-dollar for k <= 1
    for _ in range(N_INSTANCES):
        den = rng.randint(1, 10)
        num = rng.randint(1, den)
        k = Fraction(num, den)
        capex = rng.randint(0, 10**9) * den
        rate = rng.randint(0, 10**4) * den
        volume = rng.randint(1, 10**7)
        base = CostScenario(
            "prop", (CapexItem("c", Money(capex)),),
            OpexModel(PerInferenceRate(rate)),
            VolumeProjection((volume,)), Horizon(1, 12))
        scaled = CostScenario(
            "prop", (CapexItem("c", Money(capex).scaled(k)),),
            OpexModel(PerInferenceRate(Money(rate).scaled(k).amount)),
            VolumeProjection((volume,)), Horizon(1, 12))
        r_base, r_scaled = compute_lcoai(base), compute_lcoai(scaled)
        assert r_scaled.exact_per_inference == k * r_base.exact_per_inference
        assert abs(Fraction(r_scaled.per_inference.rate)
                   - k * r_base.per_inference.rate) <= 1

    # zero-rate discount degeneracy: wacc at 0% is bit-identical to none
    for _ in range(N_INSTANCES):
        periods = rng.randint(1, 4)
        plain = _random_scenario(rng, periods=periods)
        degenerate = CostScenario(
            plain.name, plain.capex, plain.opex, plain.volume, plain.horizon,
            DiscountPolicy("wacc", Fraction(0),
                           discount_denominator=rng.random() < 0.5))
        assert compute_lcoai(degenerate) == compute_lcoai(plain)

    # amortization conservation: stream total never exceeds the item total,
    # with equality for horizon-life items and lives within the horizon
    for _ in range(N_INSTANCES):
        amount = rng.randint(0, 10**12)
        life = HORIZON_LIFE if rng.random() < 0.4 else rng.randint(1, 120)
        horizon = Horizon(rng.randint(1, 8), rng.choice([1, 3, 6, 12]))
        stream = amortize_capex([CapexItem("c", Money(amount), life)], horizon)
        total = sum(m.amount for m in stream)
        assert total <= amount
        if life == HORIZON_LIFE or life <= horizon.months:
            assert total == amount

    # ingest partition / permutation / additivity
    horizon = Horizon(4, 6)
    start = datetime(2025, 1, 1, tzinfo=timezone.utc)
    kinds = list(RecordKind)
    statuses = list(RecordStatus)
    for _ in range(N_INSTANCES):
        records = [
            InferenceRecord(
                datetime(rng.randint(2024, 2027), rng.randint(1, 12),
                         rng.randint(1, 28), rng.randint(0, 23),
                         tzinfo=timezone.utc),
                rng.choice(kinds), rng.choice(statuses))
            for _ in range(rng.randint(0, 40))
        ]
        counts = count_valid(records, horizon, start)
        assert counts.total == len(records)
        assert sum(counts.period_buckets.values()) == counts.valid

        shuffled = list(records)
        rng.shuffle(shuffled)
        assert count_valid(shuffled, horizon, start) == counts

        cut = rng.randint(0, len(records)) if records else 0
        a = count_valid(records[:cut], horizon, start)
        b = count_valid(records[cut:], horizon, start)
        assert a.valid + b.valid == counts.valid
        assert a.out_of_range + b.out_of_range == counts.out_of_range
        merged = dict(a.period_buckets)
        for period, n in b.period_buckets.items():
            merged[period] = merged.get(period, 0) + n
        assert merged == counts.period_buckets

    print(f"criterion 6: PASS — property suite held over {N_INSTANCES} "
          "randomized instances per property")


def test_criterion_7_golden_files():
    scenarios = load_scenarios(FIXTURES / "table1.json")
    markdown = build_comparison_table(scenarios).render()
    assert markdown.encode() == (GOLDEN / "table1.md").read_bytes()

    llama = _fixture("LLaMA")
    points = tuple(range(1_000_000, 50_000_001, 1_000_000))
    first = sweep_series_csv(sweep(llama, SweepSpec("volume", points)))
    second = sweep_series_csv(sweep(llama, SweepSpec("volume", points)))
    assert first == second  # byte-identical across runs
    assert first.encode() == (GOLDEN / "fig2_volume_llama.csv").read_bytes()

    gpt = _fixture("GPT")
    rates = tuple(PerInferenceRate(r) for r in range(1_000, 20_001, 1_000))
    opex_csv = sweep_series_csv(sweep(gpt, SweepSpec("opex_rate", rates)))
    assert opex_csv.encode() == (GOLDEN / "fig3_opex_gpt41.csv").read_bytes()
    print("criterion 7: PASS — table and sweep outputs byte-identical to the "
          "checked-in goldens")


def test_criterion_8_no_external_services(monkeypatch):
    # every vendor price is a scenario parameter; the whole analysis must run
    # with networking unavailable
    def _refuse(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", _refuse)
    monkeypatch.setattr(socket, "create_connection", _refuse)

    scenarios = load_scenarios(FIXTURES / "vendors.json")
    table = build_comparison_table(scenarios).render()
    assert "Gemini Flash API" in table
    for scenario in scenarios:
        compute_lcoai(scenario)
    llama, gpt = _fixture("LLaMA"), _fixture("GPT")
    assert break_even(llama, gpt).crossover_volume == 28_846_154
    sweep(llama, SweepSpec("volume", (1_000_000, 50_000_000)))
    print("criterion 8: PASS — full analysis runs with networking disabled; "
          "all prices come from scenario parameters")
