import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumnorm import simulate
from sumnorm.model import QuantileSummary, Scenario
from sumnorm.normal import critical_value
from sumnorm.simulate import (DEFAULT_N_GRID, DEMO_PAIRS, POWER_ALTERNATIVES,
                              DistSpec, _draw, _generator, _order_columns,
                              _statistics, _summary_matrix, isotonic_fit_r2,
                              power_curve, skew_distortion_demo, summarize,
                              type1_curve, write_experiment_csv)
from sumnorm.symmetry import DEFAULT_KAPPA_C


class TestDistSpec:
    def test_parse_two_param(self):
        d = DistSpec.parse("lognormal:0,1")
        assert d == DistSpec("lognormal", (0.0, 1.0))

    def test_parse_one_param(self):
        assert DistSpec.parse("exponential:1.5") == DistSpec(
            "exponential", (1.5,))

    def test_parse_normalizes_case_and_space(self):
        assert DistSpec.parse(" Normal:0,2 ") == DistSpec("normal", (0.0, 2.0))

    def test_label(self):
        assert DistSpec("lognormal", (0.0, 1.0)).label() == "lognormal(0,1)"
        assert DistSpec("beta", (2.0, 5.5)).label() == "beta(2,5.5)"

    def test_hashable(self):
        assert len({DistSpec("normal", (0.0, 1.0)),
                    DistSpec("normal", (0.0, 1.0))}) == 1

    @pytest.mark.parametrize("text,match", [
        ("normal", "must look like"),
        ("beta:a,b", "non-numeric"),
        ("cauchy:0,1", "unknown family"),
        ("exponential:1,2", "parameter"),
        ("normal:0,0", "invalid parameters"),
        ("beta:0,1", "invalid parameters"),
        ("chisquare:-3", "invalid parameters"),
        ("normal:inf,1", "invalid parameters"),
        ("normal:nan,1", "invalid parameters"),
        ("exponential:inf", "invalid parameters"),
        ("chisquare:inf", "invalid parameters"),
    ])
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            DistSpec.parse(text)


class TestSample:
    # The family samplers behind ``_draw``, which the sort path and the
    # demo draw from.
    @pytest.mark.parametrize("dist,mean", [
        (DistSpec("normal", (3.0, 2.0)), 3.0),
        (DistSpec("exponential", (2.0,)), 0.5),   # rate 2 -> mean 1/2
        (DistSpec("chisquare", (3.0,)), 3.0),
        (DistSpec("beta", (2.0, 5.0)), 2.0 / 7.0),
        (DistSpec("weibull", (2.0, 3.0)), 3.0 * math.gamma(1.5)),
        (DistSpec("lognormal", (0.0, 1.0)), math.exp(0.5)),
    ])
    def test_family_parameterization(self, dist, mean):
        # large-sample mean pins down each family's parameter convention
        x = _draw(dist, _generator(9), 400_000)
        assert float(x.mean()) == pytest.approx(mean, rel=0.02)

    def test_lognormal_median(self):
        x = _draw(DistSpec("lognormal", (0.0, 1.0)), _generator(9), 400_000)
        assert float(np.median(x)) == pytest.approx(1.0, abs=0.01)


class TestSummarize:
    def test_even_n(self):
        s = summarize(np.arange(1.0, 9.0))
        assert s == QuantileSummary(min=1.0, q1=2.0, median=4.0,
                                    q3=6.0, max=8.0)

    def test_odd_n(self):
        # [np]-th order statistics, 1-based: [1.25] = 1, [2.5] = 2, [3.75] = 3
        s = summarize(np.arange(1.0, 6.0))
        assert s == QuantileSummary(min=1.0, q1=1.0, median=2.0,
                                    q3=3.0, max=5.0)

    def test_constant_sample(self):
        s = summarize(np.full(10, 7.0))
        assert (s.min, s.q1, s.median, s.q3, s.max) == (7.0,) * 5

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            summarize(np.array([1.0, 2.0, 3.0]))

    @given(n=st.integers(4, 400), seed=st.integers(0, 50))
    def test_matches_sorted_positions(self, n, seed):
        x = np.sort(_draw(DistSpec("normal", (0.0, 1.0)), _generator(seed), n))
        s = summarize(x)
        assert s.min == x[0] and s.max == x[-1]
        assert s.q1 == x[max(1, int(0.25 * n)) - 1]
        assert s.median == x[max(1, int(0.5 * n)) - 1]
        assert s.q3 == x[max(1, int(0.75 * n)) - 1]
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


class TestRejectionCurves:
    def test_type1_deterministic(self):
        a = type1_curve(Scenario.S1, [50], replicates=400, seed=11)
        b = type1_curve(Scenario.S1, [50], replicates=400, seed=11)
        assert a == b

    def test_rate_independent_of_grid(self):
        # chunk seeding is per (seed, n), so a shared grid changes nothing
        alone = type1_curve(Scenario.S2, [100], replicates=500, seed=3)
        paired = type1_curve(Scenario.S2, [50, 100], replicates=500, seed=3)
        assert alone.rates[0] == paired.rates[1]

    def test_alpha_one_rejects_everything(self):
        r = type1_curve(Scenario.S1, [50], replicates=200, alpha=1.0, seed=2)
        assert r.rates == (1.0,)

    def test_null_rate_near_alpha(self):
        r = type1_curve(Scenario.S1, [200], replicates=2000, seed=4)
        assert 0.03 < r.rates[0] < 0.075

    def test_normal_alternative_matches_null(self):
        # power against a shifted normal is still just the type I rate:
        # the statistics are location-scale invariant
        null = type1_curve(Scenario.S3, [100], replicates=500, seed=6)
        alt = power_curve(Scenario.S3, DistSpec("normal", (5.0, 3.0)),
                          [100], replicates=500, seed=6)
        assert alt.rates == null.rates

    def test_skewed_alternative_has_power(self):
        r = power_curve(Scenario.S1, DistSpec("lognormal", (0.0, 1.0)),
                        [100], replicates=500, seed=8)
        assert r.rates[0] > 0.9

    def test_monte_carlo_se(self):
        r = type1_curve(Scenario.S1, [50], replicates=400, seed=11)
        rate = r.rates[0]
        assert r.ses[0] == pytest.approx(
            math.sqrt(rate * (1 - rate) / 400), rel=1e-12)

    def test_metadata_recorded(self):
        d = DistSpec("chisquare", (1.0,))
        r = power_curve(Scenario.S2, d, [64], replicates=100, alpha=0.01,
                        seed=13, kappa_c=10.5)
        assert r.scenario is Scenario.S2
        assert r.dist == d
        assert r.n_grid == (64,)
        assert r.alpha == 0.01
        assert r.seed == 13
        assert r.kappa_c == 10.5
        assert len(r.rates) == len(r.ses) == 1

    def test_n_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="below the scenario minimum"):
            type1_curve(Scenario.S1, [3], replicates=100, seed=1)

    def test_replicates_domain(self):
        with pytest.raises(ValueError, match="replicates"):
            type1_curve(Scenario.S1, [50], replicates=0, seed=1)

    @pytest.mark.parametrize("dist", [DistSpec("lognormal", (1000.0, 1.0)),
                                      DistSpec("normal", (1e308, 1e308)),
                                      DistSpec("normal", (1e17, 1.0))],
                             ids=["lognormal", "normal", "zero-spread"])
    def test_non_finite_statistics_refused(self, dist):
        # Overflowing draws, or draws that round to one value, give nan
        # statistics, which would count as "retain"; the cell is refused
        # in words instead, with no RuntimeWarning on the way.
        with pytest.raises(ValueError, match=re.escape(
                f"{dist.label()} at n=10: ") + r"\d+ of 200 statistics"):
            power_curve(Scenario.S1, dist, [10, 50], replicates=200, seed=1)

    def test_non_finite_sorted_draws_refused(self, monkeypatch):
        # chi-square(3) takes the sort path and cannot overflow, so its
        # draws are made infinite by hand.
        real = simulate._draw
        monkeypatch.setattr(simulate, "_draw", lambda *a: real(*a) * np.inf)
        with pytest.raises(ValueError, match=r"chisquare\(3\) at n=10: "
                           r"200 of 200 statistics are not finite"):
            power_curve(Scenario.S2, DistSpec("chisquare", (3.0,)), [10],
                        replicates=200, seed=1)

    def test_default_grid_is_sane(self):
        assert DEFAULT_N_GRID[0] >= 4
        assert list(DEFAULT_N_GRID) == sorted(DEFAULT_N_GRID)

    def test_power_alternatives_are_skewed_families(self):
        families = {d.family for d in POWER_ALTERNATIVES}
        assert families == {"lognormal", "exponential", "beta", "chisquare",
                            "weibull"}


_SPACINGS_FAMILIES = (DistSpec("normal", (0.0, 1.0)),) + POWER_ALTERNATIVES
_SORTED_FAMILIES = (DistSpec("chisquare", (3.0,)), DistSpec("beta", (2.0, 5.0)))


def _sorted_matrix(monkeypatch, dist, n, replicates, seed):
    # The sort path, forced by hiding the family's quantile: the oracle.
    arity, positive, sampler, _ = simulate._FAMILIES[dist.family]
    with monkeypatch.context() as m:
        m.setitem(simulate._FAMILIES, dist.family,
                  (arity, positive, sampler, lambda p: None))
        return _summary_matrix(dist, n, replicates, seed)


class TestSpacings:
    @pytest.mark.parametrize("dist,spacings", (
        [(d, True) for d in _SPACINGS_FAMILIES]
        + [(d, False) for d in _SORTED_FAMILIES]))
    def test_path_choice(self, monkeypatch, dist, spacings):
        shapes = []
        draw = simulate._draw

        def recording(dist, rng, shape, gaps=None):
            shapes.append(shape)
            return draw(dist, rng, shape, gaps)

        monkeypatch.setattr(simulate, "_draw", recording)
        _summary_matrix(dist, 50, 300, 0)
        # Six gamma spacings per row, or a whole sample of 50 to sort.
        assert shapes == [(6, 300) if spacings else (300, 50)]

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES, ids=DistSpec.label)
    @pytest.mark.parametrize("n", [10, 100])
    def test_matches_sorted_samples(self, monkeypatch, dist, n):
        # Two independent seeded samples of 20000 summaries: the column
        # means and variances, and the S1/S2/S3 rejection rates, agree
        # within 4 standard errors of their difference.
        reps, k = 20_000, 4.0
        fast = _summary_matrix(dist, n, reps, 1)
        slow = _sorted_matrix(monkeypatch, dist, n, reps, 2)
        mean_se = np.sqrt((fast.var(axis=0) + slow.var(axis=0)) / reps)
        assert np.all(np.abs(fast.mean(axis=0) - slow.mean(axis=0))
                      <= k * mean_se)

        def var_and_se2(x):
            v = x.var(axis=0)
            m4 = np.mean((x - x.mean(axis=0)) ** 4, axis=0)
            return v, (m4 - v * v) / reps

        (v_fast, se2_fast), (v_slow, se2_slow) = (var_and_se2(fast),
                                                  var_and_se2(slow))
        assert np.all(np.abs(v_fast - v_slow) <= k * np.sqrt(se2_fast + se2_slow))
        crit = critical_value(0.05)
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            r_fast, r_slow = (float(np.mean(np.abs(
                _statistics(scenario, x, n, DEFAULT_KAPPA_C)) > crit))
                for x in (fast, slow))
            se = math.sqrt((r_fast * (1 - r_fast) + r_slow * (1 - r_slow))
                           / reps)
            assert abs(r_fast - r_slow) <= k * se + 1e-12, scenario

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES, ids=DistSpec.label)
    def test_rows_ordered_and_tied_ranks_equal(self, dist):
        for n in range(4, 12):
            x = _summary_matrix(dist, n, 500, 3)
            assert np.all(np.diff(x, axis=1) >= 0)
            columns = _order_columns(n)
            for i in range(4):
                if columns[i] == columns[i + 1]:  # n = 4..7: min is q1
                    assert np.array_equal(x[:, i], x[:, i + 1])


class TestSkewDistortionDemo:
    def test_deterministic(self):
        case, ctrl, n = DEMO_PAIRS["lognormal"]
        assert (skew_distortion_demo(case, ctrl, n, seed=42)
                == skew_distortion_demo(case, ctrl, n, seed=42))

    def test_gap_identity(self):
        case, ctrl, n = DEMO_PAIRS["beta"]
        r = skew_distortion_demo(case, ctrl, n, seed=42)
        assert r.gap == r.d_true - r.d_estimated

    def test_normal_control_pair_has_small_gap(self):
        # summary estimation is nearly faithful when the data really are
        # normal; the skewed pairs distort much more
        case, ctrl, n = DEMO_PAIRS["normal"]
        normal_gap = abs(skew_distortion_demo(case, ctrl, n, seed=42).gap)
        case, ctrl, n = DEMO_PAIRS["lognormal"]
        skewed_gap = abs(skew_distortion_demo(case, ctrl, n, seed=42).gap)
        assert normal_gap < 0.1
        assert skewed_gap > normal_gap

    def test_pair_catalog(self):
        assert set(DEMO_PAIRS) == {"lognormal", "chisquare", "exponential",
                                   "beta", "weibull", "normal"}
        for case, ctrl, n in DEMO_PAIRS.values():
            assert isinstance(case, DistSpec)
            assert isinstance(ctrl, DistSpec)
            assert n >= 100


class TestIsotonicFit:
    def test_single_violation(self):
        # PAVA merges (0.2, 0.1) into 0.15 twice; residual SS is 0.005
        # against a total SS of 0.02
        assert isotonic_fit_r2([0.2, 0.1, 0.3]) == pytest.approx(0.75)

    def test_already_monotone(self):
        assert isotonic_fit_r2([0.1, 0.2, 0.2, 0.9]) == 1.0

    def test_flat(self):
        assert isotonic_fit_r2([0.3, 0.3, 0.3]) == 1.0

    def test_strictly_decreasing_is_zero(self):
        # the best nondecreasing fit to a decreasing curve is its mean
        assert isotonic_fit_r2([0.9, 0.5, 0.1]) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            isotonic_fit_r2([])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
    def test_bounded_above(self, rates):
        assert isotonic_fit_r2(rates) <= 1.0 + 1e-12

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
    def test_sorted_scores_one(self, rates):
        assert isotonic_fit_r2(sorted(rates)) == pytest.approx(1.0)


class TestWriteExperimentCsv:
    def test_format(self, tmp_path):
        r = type1_curve(Scenario.S1, [50, 100], replicates=400, seed=11)
        out = tmp_path / "curve.csv"
        write_experiment_csv(r, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "rate", "se", "replicates", "scenario",
                           "family", "params", "seed"]
        assert len(rows) == 3
        n, rate, se, reps, scenario, family, params, seed = rows[1]
        assert n == "50"
        assert float(rate) == pytest.approx(r.rates[0], abs=1e-6)
        assert "." in rate and len(rate.split(".")[1]) == 6
        assert (reps, scenario, family, params, seed) == (
            "400", "S1", "normal", "0,1", "11")

    def test_deterministic_bytes(self, tmp_path):
        r = power_curve(Scenario.S2, DistSpec("chisquare", (1.0,)), [64],
                        replicates=200, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_experiment_csv(r, a)
        write_experiment_csv(r, b)
        assert a.read_bytes() == b.read_bytes()
