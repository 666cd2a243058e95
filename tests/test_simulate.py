import csv
import math
import os
import pickle
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from sumnorm import simulate
from sumnorm.cli import DEFAULT_N_GRID
from sumnorm.model import QuantileSummary, Scenario
from sumnorm.normal import critical_value, std_normal_quantile
from sumnorm.simulate import (DEMO_PAIRS, POWER_ALTERNATIVES, DistSpec, _draw,
                              _draw_chunk, _error_bound, _generator,
                              _order_columns, _quantile_row,
                              _statistics, _summary_matrix, isotonic_fit_r2,
                              power_curve, skew_distortion_demo, summarize,
                              write_experiment_csv)
from sumnorm.symmetry import READS

_NORMAL = DistSpec("normal", (0.0, 1.0))


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

    def test_label_and_csv_params_round_trip(self, tmp_path):
        dist = DistSpec("normal", (1.0000001, 1234567.0))
        assert dist.label() == "normal(1.0000001,1234567)"
        result = simulate.ExperimentResult(
            scenario=Scenario.S1, dist=dist, n_grid=(10,), rates=(0.5,),
            ses=(0.1,), replicates=50, alpha=0.05, seed=1)
        out = tmp_path / "curve.csv"
        write_experiment_csv(result, out)
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["params"] == "1.0000001,1234567"
        assert DistSpec.parse(f"normal:{row['params']}") == dist

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

    @pytest.mark.parametrize("n", [3, 0, -5])
    def test_order_columns_refuse_small_n(self, n):
        # The one n >= 4 check: summarize and every grid cell use it.
        with pytest.raises(ValueError, match=re.escape(
                f"n={n} is below the scenario minimum: a five-number "
                f"summary needs n >= 4")):
            _order_columns(n)

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
        a = power_curve(Scenario.S1, _NORMAL, [50], replicates=400, seed=11)
        b = power_curve(Scenario.S1, _NORMAL, [50], replicates=400, seed=11)
        assert a == b

    def test_rate_independent_of_grid(self):
        # chunk seeding is per (seed, n), so a shared grid changes nothing
        alone = power_curve(Scenario.S2, _NORMAL, [100],
                            replicates=500, seed=3)
        paired = power_curve(Scenario.S2, _NORMAL, [50, 100],
                             replicates=500, seed=3)
        assert alone.rates[0] == paired.rates[1]

    def test_alpha_one_rejects_everything(self):
        r = power_curve(Scenario.S1, _NORMAL, [50],
                        replicates=200, alpha=1.0, seed=2)
        assert r.rates == (1.0,)

    def test_null_rate_near_alpha(self):
        r = power_curve(Scenario.S1, _NORMAL, [200], replicates=2000, seed=4)
        assert 0.03 < r.rates[0] < 0.075

    def test_normal_alternative_matches_null(self):
        # power against a shifted normal is still just the type I rate:
        # the statistics are location-scale invariant
        null = power_curve(Scenario.S3, _NORMAL, [100], replicates=500, seed=6)
        alt = power_curve(Scenario.S3, DistSpec("normal", (5.0, 3.0)),
                          [100], replicates=500, seed=6)
        assert alt.rates == null.rates

    def test_skewed_alternative_has_power(self):
        r = power_curve(Scenario.S1, DistSpec("lognormal", (0.0, 1.0)),
                        [100], replicates=500, seed=8)
        assert r.rates[0] > 0.9

    def test_monte_carlo_se(self):
        r = power_curve(Scenario.S1, _NORMAL, [50], replicates=400, seed=11)
        rate = r.rates[0]
        assert r.ses[0] == pytest.approx(
            math.sqrt(rate * (1 - rate) / 400), rel=1e-12)

    def test_metadata_recorded(self):
        d = DistSpec("chisquare", (1.0,))
        r = power_curve(Scenario.S2, d, [64], replicates=100, alpha=0.01,
                        seed=13)
        assert r.scenario is Scenario.S2
        assert r.dist == d
        assert r.n_grid == (64,)
        assert r.alpha == 0.01
        assert r.seed == 13
        assert len(r.rates) == len(r.ses) == 1

    def test_n_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="below the scenario minimum"):
            power_curve(Scenario.S1, _NORMAL, [3], replicates=100, seed=1)

    def test_grid_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(simulate, "_draw", no_draw)
        with pytest.raises(ValueError, match="n=3 is below"):
            power_curve(Scenario.S1, _NORMAL, [50, 3], replicates=10, seed=1)

    def test_replicates_domain(self):
        with pytest.raises(ValueError, match="replicates"):
            power_curve(Scenario.S1, _NORMAL, [50], replicates=0, seed=1)

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
# A two-sample KS p-value at or below this fails.  Fixed before any run:
# this file makes about 130 seeded KS comparisons, so a true null fails
# one of them with probability about 1.3%.
_KS_FLOOR = 1e-4
_SORTED_FAMILIES = (DistSpec("chisquare", (3.0,)), DistSpec("beta", (2.0, 5.0)))


def _sorted_matrix(monkeypatch, dist, n, replicates, seed):
    # The sort path, forced by hiding the family's quantile: the oracle.
    row = simulate._FAMILIES[dist.family]
    with monkeypatch.context() as m:
        m.setitem(simulate._FAMILIES, dist.family,
                  (*row[:3], lambda p: None, lambda p: None))
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
                _statistics(scenario, x, n)) > crit))
                for x in (fast, slow))
            se = math.sqrt((r_fast * (1 - r_fast) + r_slow * (1 - r_slow))
                           / reps)
            assert abs(r_fast - r_slow) <= k * se + 1e-12, scenario

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES, ids=DistSpec.label)
    @pytest.mark.parametrize("n", [4, 5, 7, 10, 1000])
    def test_reads_map_only_their_rows(self, monkeypatch, dist, n):
        # The rows a scenario reads are finite; the others are NaN.  S3
        # reads all five, so its rows are the full matrix's bytes.  S1
        # and S2 draw the gaps of their three ranks only, so their rows
        # are other draws of the same joint law: their statistic matches
        # that of the full six-row matrix and of the sort path, each on
        # its own seed, by two-sample KS.  Recorded on numpy 2.4.6 and
        # scipy's ks_2samp: the 120 p-values have median 0.50, and the
        # smallest is 0.0048 (normal, n = 4, S2 against the six-row
        # draw; 0.11 at 200000 replicates a side).
        full = _summary_matrix(dist, n, 700, 6)
        references = (_summary_matrix(dist, n, 700, 7),
                      _sorted_matrix(monkeypatch, dist, n, 700, 8))
        for scenario, reads in READS.items():
            got = _summary_matrix(dist, n, 700, 6, reads=reads)
            unread = [i for i in range(5) if i not in reads]
            assert np.all(np.isnan(got[:, unread])), scenario
            assert np.all(np.isfinite(got[:, reads])), scenario
            if scenario is Scenario.S3:
                assert got.tobytes() == full.tobytes()
                continue
            stats = _statistics(scenario, got, n)
            for reference in references:
                p = ks_2samp(stats,
                             _statistics(scenario, reference, n)).pvalue
                assert p > _KS_FLOOR, (scenario, p)

    @pytest.mark.parametrize("scenario,rows", [
        (Scenario.S1, 4), (Scenario.S2, 4), (Scenario.S3, 6)])
    def test_one_gamma_row_per_gap_of_the_read_ranks(self, monkeypatch,
                                                     scenario, rows):
        # The gaps run between 0, the ranks the statistic reads and
        # n + 1: four rows for the three ranks of S1 and S2, six for S3.
        shapes = []
        draw = simulate._draw

        def recording(dist, rng, shape, gaps=None):
            assert len(gaps) == len(READS[scenario]) + 1
            shapes.append(shape)
            return draw(dist, rng, shape, gaps)

        monkeypatch.setattr(simulate, "_draw", recording)
        power_curve(scenario, _NORMAL, (10, 1000), replicates=300, seed=1)
        assert shapes == [(rows, 300)] * 2

    @pytest.mark.parametrize("dist", [_NORMAL, DistSpec("lognormal",
                                                        (0.0, 1.0))],
                             ids=DistSpec.label)
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_merged_gaps_match_the_sort_path(self, monkeypatch, dist, n):
        # The oracle for drawing the read ranks only: S1's and S2's
        # statistics from merged gaps (100000 replicates) and from sorted
        # samples (20000, another seed) agree by two-sample KS, and their
        # rejection rates agree within 4 standard errors of the
        # difference.  Recorded on numpy 2.4.6: p from 0.151 to 0.979,
        # rates at most 1.30 standard errors apart.
        fast_reps, slow_reps = 100_000, 20_000
        slow = _sorted_matrix(monkeypatch, dist, n, slow_reps, 22)
        crit = critical_value(0.05)
        for scenario in (Scenario.S1, Scenario.S2):
            fast = _summary_matrix(dist, n, fast_reps, 21,
                                   reads=READS[scenario])
            t_fast, t_slow = (_statistics(scenario, x, n)
                              for x in (fast, slow))
            p = ks_2samp(t_fast, t_slow).pvalue
            assert p > _KS_FLOOR, (scenario, p)
            r_fast, r_slow = (float(np.mean(np.abs(t) > crit))
                              for t in (t_fast, t_slow))
            se = math.sqrt(r_fast * (1 - r_fast) / fast_reps
                           + r_slow * (1 - r_slow) / slow_reps)
            assert abs(r_fast - r_slow) <= 4.0 * se + 1e-12, scenario

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_curve_maps_what_its_statistic_reads(self, monkeypatch,
                                                 scenario):
        seen = []
        real = simulate._summary_matrix

        def recording(*args, **kwargs):
            seen.append(kwargs["reads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "_summary_matrix", recording)
        power_curve(scenario, _NORMAL, (10, 20), replicates=50, seed=1)
        assert seen == [READS[scenario]] * 2

    def test_curve_without_a_statistic_refused_before_any_draw(
            self, monkeypatch):
        monkeypatch.setattr(simulate, "_draw", None)  # any draw fails
        with pytest.raises(ValueError, match="no test statistic"):
            power_curve(Scenario.DIRECT, _NORMAL, (10,), replicates=50)

    @pytest.mark.parametrize("dist", _SORTED_FAMILIES, ids=DistSpec.label)
    def test_sort_path_fills_every_row(self, dist):
        full = _summary_matrix(dist, 30, 300, 6)
        got = _summary_matrix(dist, 30, 300, 6, reads=READS[Scenario.S1])
        assert got.tobytes() == full.tobytes()

    @pytest.mark.parametrize("dist", _SORTED_FAMILIES, ids=DistSpec.label)
    def test_sort_path_maps_its_draw_without_a_copy(self, dist):
        # The sort path's draw is already the chunk's order statistics:
        # its map returns them as they are.
        reads = READS[Scenario.S1]
        drawn = simulate._draw_chunk(dist, 30, 300, 6, 0, reads)
        got = _summary_matrix(dist, 30, 300, 6, reads=reads, drawn=drawn)
        assert np.shares_memory(got, drawn)
        assert got.tobytes() == _summary_matrix(dist, 30, 300, 6).tobytes()

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES, ids=DistSpec.label)
    def test_rows_ordered_and_tied_ranks_equal(self, dist):
        for n in range(4, 12):
            x = _summary_matrix(dist, n, 500, 3)
            assert np.all(np.diff(x, axis=1) >= 0)
            columns = _order_columns(n)
            for i in range(4):
                if columns[i] == columns[i + 1]:  # n = 4..7: min is q1
                    assert np.array_equal(x[:, i], x[:, i + 1])


def _force_cpus(monkeypatch, count):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: count)


@pytest.fixture
def own_helpers(monkeypatch):
    # A helper pool of the test's own, empty at the start and stopped at
    # the end, so the test sees exactly the helpers its curves start.
    tasks, helpers = queue.SimpleQueue(), []
    monkeypatch.setattr(simulate, "_helper_tasks", tasks)
    monkeypatch.setattr(simulate, "_helpers", helpers)
    yield helpers
    for _ in helpers:
        tasks.put(None)
    for thread in helpers:
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.usefixtures("own_helpers")
class TestConcurrentCells:
    # A curve's (cell, chunk) units run in two stages, the draw and the
    # count, on the calling thread and min(units, usable CPUs) - 1 helper
    # threads.  The helpers stay, parked, for the next curve.  The CPU
    # count is forced, so these tests run the same on any machine.

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES + _SORTED_FAMILIES[:1],
                             ids=DistSpec.label)
    def test_same_result_at_any_cpu_count(self, monkeypatch, dist):
        results = []
        for cpus in (1, 4):
            _force_cpus(monkeypatch, cpus)
            results.append(power_curve(Scenario.S3, dist, (4, 10, 25, 50, 100),
                                       replicates=500, seed=9))
        assert results[0] == results[1]

    @pytest.mark.parametrize("cpus,grid,replicates", [
        (1, (10, 20, 30), 50), (4, (10, 20), 50), (2, (10, 20, 30), 50),
        (2, (10, 20, 30, 40), 50), (4, (10, 20, 30, 40, 50), 50),
        (2, (10, 20, 30, 40, 50, 60), 50), (4, (10,), 700), (2, (10,), 1000),
        (4, (10, 20), 1000)])
    def test_each_unit_once_on_one_helper_per_further_cpu(
            self, monkeypatch, own_helpers, cpus, grid, replicates):
        # Each unit is drawn once and counted once, and at no time do more
        # chunks wait, drawn and not yet counted, than there are threads.
        # On one CPU each unit is drawn, then counted, in grid order.
        # A count starts at the float32 map of the screen, which every
        # normal(0,1) unit takes once; it is matched to its chunk by the
        # contents of that float32 copy.  A float64 recount is not a count
        # of its own.
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 300)
        _force_cpus(monkeypatch, cpus)
        before = set(threading.enumerate())
        stages, waiting, most = [], 0, 0
        real_draw, real = simulate._draw_chunk, simulate._summary_matrix
        lock = threading.Lock()
        chunks = {}  # a drawn chunk's float32 bytes -> its chunk index

        def recording_draw(dist, n, replicates, seed, chunk, reads):
            nonlocal waiting, most
            drawn = real_draw(dist, n, replicates, seed, chunk, reads)
            with lock:
                stages.append(("draw", n, chunk, threading.current_thread()))
                chunks[drawn.astype(np.float32).tobytes()] = chunk
                waiting += 1
                most = max(most, waiting)
            return drawn

        def recording(dist, n, replicates, seed, *, drawn, **kwargs):
            nonlocal waiting
            if drawn.dtype == np.float32:
                with lock:
                    stages.append(("count", n, chunks.pop(drawn.tobytes()),
                                   threading.current_thread()))
                    waiting -= 1
            return real(dist, n, replicates, seed, drawn=drawn, **kwargs)

        monkeypatch.setattr(simulate, "_draw_chunk", recording_draw)
        monkeypatch.setattr(simulate, "_summary_matrix", recording)
        power_curve(Scenario.S1, _NORMAL, grid, replicates, seed=1)
        every = [(n, c) for n in grid for c in range(-(-replicates // 300))]
        for stage in ("draw", "count"):
            assert sorted((n, c) for s, n, c, _ in stages
                          if s == stage) == every
        assert most <= min(len(every), cpus)
        if cpus == 1:
            assert [s[:3] for s in stages] == [
                (stage, n, c) for n, c in every for stage in ("draw", "count")]
        assert len(own_helpers) <= min(len(every), cpus) - 1
        assert {t for *_, t in stages} <= {threading.current_thread(),
                                           *own_helpers}
        # No thread is left but the parked helpers, and the next curve
        # reuses them: a thread started per curve can cost its memory
        # arena.
        after = set(threading.enumerate())
        assert after - before == set(own_helpers)
        power_curve(Scenario.S1, _NORMAL, grid, replicates, seed=1)
        assert set(threading.enumerate()) == after

    def test_next_draw_overlaps_counts(self, monkeypatch):
        # Three one-chunk cells on 2 CPUs: the counts of cells 0 and 1
        # each wait for cell 2's draw, so that draw must start while a
        # drawn chunk waits, on the thread that does not count it.  Run
        # as whole units, one thread per unit, both counts would wait
        # with no thread left to draw cell 2, and time out.
        _force_cpus(monkeypatch, 2)
        grid = (10, 20, 30)
        drawn_last, waits = threading.Event(), []
        real_draw, real = simulate._draw, simulate._statistics

        def draw(dist, rng, shape, gaps=None):
            x = real_draw(dist, rng, shape, gaps)
            if sum(gaps) == grid[2] + 1:
                drawn_last.set()
            return x

        def statistics(scenario, summaries, n):
            if n in grid[:2]:
                waits.append(drawn_last.wait(timeout=10))
            return real(scenario, summaries, n)

        monkeypatch.setattr(simulate, "_draw", draw)
        monkeypatch.setattr(simulate, "_statistics", statistics)
        got = power_curve(Scenario.S1, _NORMAL, grid, replicates=50, seed=4)
        assert waits == [True, True]
        _force_cpus(monkeypatch, 1)
        monkeypatch.setattr(simulate, "_statistics", real)
        assert got == power_curve(Scenario.S1, _NORMAL, grid, replicates=50,
                                  seed=4)

    @pytest.mark.parametrize("stage", ["_draw_chunk", "_statistics"])
    def test_raising_stage_raised_in_grid_order(self, monkeypatch, stage):
        # A stage that raises fails its cell; with two failing cells the
        # lower one's error is raised, though the other failed first.
        _force_cpus(monkeypatch, 2)
        start = threading.active_count()
        real = getattr(simulate, stage)

        def raising(dist_or_scenario, *args, **kwargs):
            n = args[0] if stage == "_draw_chunk" else args[1]
            if n == 20:
                time.sleep(0.1)
            if n in (20, 40):
                raise RuntimeError(f"{stage} at n={n}")
            return real(dist_or_scenario, *args, **kwargs)

        monkeypatch.setattr(simulate, stage, raising)
        with pytest.raises(RuntimeError, match=f"{stage} at n=20$"):
            power_curve(Scenario.S1, _NORMAL, (10, 20, 30, 40),
                        replicates=50, seed=1)
        assert threading.active_count() == start + 1  # the parked helper

    def test_each_cell_once_under_fast_switching(self, monkeypatch):
        # More threads than cores, switching as often as possible: a cell
        # handed out twice, or never, breaks the counts or the curve.
        grid = tuple(range(4, 44))
        _force_cpus(monkeypatch, 1)
        serial = power_curve(Scenario.S2, _NORMAL, grid, replicates=20, seed=2)
        _force_cpus(monkeypatch, 16)
        seen = []
        real = simulate._statistics

        def recording(scenario, summaries, n):
            seen.append(n)
            return real(scenario, summaries, n)

        monkeypatch.setattr(simulate, "_statistics", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = power_curve(Scenario.S2, _NORMAL, grid, replicates=20,
                                   seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(grid)
        assert threaded == serial

    def test_first_failure_in_grid_order_raised(self, monkeypatch):
        # On 2 CPUs n=30's draw is slow, so n=20 and n=10 are drawn and
        # counted while it runs, by whichever thread is free: n=30 fails
        # after n=10 has.  The error still names n=30, as a loop over the
        # grid would.
        _force_cpus(monkeypatch, 2)
        power_curve(Scenario.S2, _NORMAL, [10, 20], replicates=10, seed=1)
        start = threading.active_count()  # with the parked helper
        real = simulate._draw

        def failing(dist, rng, shape, gaps=None):
            n = shape[1]  # the sort path draws (rows, n)
            if n == 30:
                time.sleep(0.2)
            x = real(dist, rng, shape, gaps)
            return x * np.inf if n in (10, 30) else x

        monkeypatch.setattr(simulate, "_draw", failing)
        with pytest.raises(ValueError, match=r"chisquare\(3\) at n=30: "
                           r"200 of 200 statistics are not finite"):
            power_curve(Scenario.S2, DistSpec("chisquare", (3.0,)),
                        [40, 30, 20, 10], replicates=200, seed=1)
        assert threading.active_count() == start

    def test_overflow_refused_without_warning_on_helpers(self, monkeypatch):
        # numpy's error state is per thread; each unit sets its own.  A
        # warning on a helper is recorded here rather than raised, where
        # the calling thread's error for n=10 would hide it.
        _force_cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"at n=10: \d+ of 200 "):
                power_curve(Scenario.S1, DistSpec("lognormal", (1000.0, 1.0)),
                            [10, 50, 100, 200], replicates=200, seed=1)
        assert caught == []


    def test_back_to_back_curves_keep_one_helper(self, monkeypatch,
                                                 own_helpers):
        # Curves that each need one helper reuse one parked thread, however
        # many CPUs are usable: each further thread can keep a memory arena.
        _force_cpus(monkeypatch, 8)
        power_curve(Scenario.S1, _NORMAL, (10, 20), replicates=20, seed=0)
        after = set(threading.enumerate())
        for seed in range(300):
            power_curve(Scenario.S1, _NORMAL, (10, 20), replicates=20,
                        seed=seed)
        assert len(own_helpers) == 1
        assert set(threading.enumerate()) == after

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_curve(self, monkeypatch, own_helpers):
        # The parent's parked helper does not run in the child; the child
        # starts its own, which takes a unit, and leaves no task queued.
        # The calling thread's first unit waits for a helper's, so that a
        # helper is sure to take one.  A hang fails the test instead of
        # stalling it.
        _force_cpus(monkeypatch, 2)
        args = (Scenario.S1, _NORMAL, (10, 20, 30), 50)
        want = power_curve(*args, seed=3)
        caller = threading.current_thread()
        helped = threading.Event()
        real = simulate._summary_matrix

        def recording(*a, **kwargs):
            if threading.current_thread() is caller:
                helped.wait(timeout=10)
            else:
                helped.set()
            return real(*a, **kwargs)

        read, write = os.pipe()
        with warnings.catch_warnings():  # forking with threads alive
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                monkeypatch.setattr(simulate, "_summary_matrix", recording)
                got = power_curve(*args, seed=3)
                os.write(write, pickle.dumps(
                    (got, helped.is_set(), simulate._helper_tasks.empty(),
                     [t.is_alive() for t in own_helpers])))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 30
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's curve did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0
        with os.fdopen(read, "rb") as fh:
            assert pickle.loads(fh.read()) == (want, True, True, [True])

    def test_curve_runs_during_interpreter_shutdown(self, src_env):
        # A non-daemon thread that runs a curve after the main thread has
        # returned, while the interpreter waits to exit, still gets the
        # curve, helpers included.
        code = (
            "import threading, time\n"
            "from sumnorm import simulate\n"
            "from sumnorm.model import Scenario\n"
            "from sumnorm.simulate import DistSpec, power_curve\n"
            "simulate._usable_cpus = lambda: 2\n"
            "args = (Scenario.S1, DistSpec('normal', (0.0, 1.0)),"
            " (10, 20, 30), 50)\n"
            "print(power_curve(*args, seed=3).rates)\n"
            "def late():\n"
            "    while threading.main_thread().is_alive():\n"
            "        time.sleep(0.01)\n"
            "    print(power_curve(*args, seed=3).rates)\n"
            "threading.Thread(target=late).start()\n")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        early, late = proc.stdout.splitlines()
        assert early == late


def _maps(scenario, n, drawn, dist=_NORMAL):
    """The float32 and the float64 statistics of ``drawn``, a chunk of
    ``dist``, and the float32 map's error bound."""
    reads = READS[scenario]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m32 = _summary_matrix(dist, n, 1, 0, reads=reads,
                              drawn=drawn.astype(np.float32))
        t32 = _statistics(scenario, m32, n)
        t64 = _statistics(scenario, _summary_matrix(
            dist, n, 1, 0, reads=reads, drawn=drawn.copy()), n)
        error = simulate._FAMILIES[dist.family][4](dist.params)
        return t32, t64, _error_bound(scenario, error, m32, t32, n)


def _without_error_column(m, family):
    # The family's row with no error column: its curves map in float64.
    row = simulate._FAMILIES[family]
    m.setitem(simulate._FAMILIES, family, (*row[:4], lambda p: None))


def _float64_curve(monkeypatch, *args):
    # The same curve counted by the float64 map alone.
    with monkeypatch.context() as m:
        _without_error_column(m, args[1].family)
        return power_curve(*args)


def _at_critical(dist, scenario, n, crit, rows=64, pool=4):
    """A chunk of ``dist`` whose first half is moved to float64 statistics
    at -crit and +crit, as near as bisection on the gap below the median
    gets, from either side.  Its columns are drawn ones, of ``pool *
    rows``, where that gap takes the statistic from above crit to below
    -crit."""
    reads = READS[scenario]
    drawn = _draw_chunk(dist, n, pool * rows, 17, 0, reads)
    row, half = reads.index(2), rows // 2

    def statistics(gap, columns=slice(None)):
        moved = drawn.copy()
        moved[row, columns] = gap
        return _maps(scenario, n, moved, dist)[1][columns]

    lo = np.zeros(drawn.shape[1])  # the median at the rank below
    hi = 1e6 * drawn.sum(axis=0)  # the median next to the rank above
    cross = np.flatnonzero((statistics(lo) > crit)
                           & (statistics(hi) < -crit))[:half]
    assert len(cross) == half
    order = np.r_[cross, np.setdiff1d(np.arange(len(lo)), cross)][:rows]
    drawn, lo, hi = drawn[:, order], lo[cross], hi[cross]
    target = np.where(np.arange(half) % 2, crit, -crit)
    for _ in range(200):
        mid = (lo + hi) / 2
        above = statistics(mid, slice(half)) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    drawn[row, :half] = np.where(np.arange(half) % 4 < 2, lo, hi)
    return drawn


class TestTypeIScreen:
    # Under the standard normal a unit counts each replicate that the
    # float32 map's error bound decides, and recounts the others in
    # float64, the oracle.

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_counts_equal_the_float64_counts(self, monkeypatch, scenario):
        grid = (4, 5, 6, 7, 8, 9, 10, 11, 12, 25, 200, 1000, 10 ** 5)
        recounted = []
        real = simulate._summary_matrix

        def recording(*args, drawn, **kwargs):
            if drawn.dtype == np.float64:
                recounted.append(drawn.shape[1])
            return real(*args, drawn=drawn, **kwargs)

        for alpha in (0.05, 0.01, 1.0):
            for seed in (1, 2, 3):
                args = (scenario, _NORMAL, grid, 25000, alpha, seed)
                with monkeypatch.context() as m:
                    m.setattr(simulate, "_summary_matrix", recording)
                    screened = power_curve(*args)
                assert screened == _float64_curve(monkeypatch, *args)
        # Some replicates fell inside the band, and under 1% of a unit.
        assert recounted and max(recounted) < simulate._CHUNK_ROWS // 100

    @pytest.mark.parametrize("scenario,n,alpha", [
        (Scenario.S1, 12, 0.05), (Scenario.S1, 1000, 0.01),
        (Scenario.S2, 25, 0.05), (Scenario.S2, 10 ** 5, 0.01),
        (Scenario.S3, 7, 0.05), (Scenario.S3, 200, 0.01),
        (Scenario.S1, 4, 1.0), (Scenario.S2, 4, 1.0), (Scenario.S3, 4, 1.0)])
    def test_replicates_inside_the_band_recounted(self, monkeypatch,
                                                   scenario, n, alpha):
        crit = critical_value(alpha)
        drawn = _at_critical(_NORMAL, scenario, n, crit)
        t32, t64, bound = _maps(scenario, n, drawn)
        over = np.abs(t32) - crit
        assert np.all(np.abs(over[:32]) <= bound[:32])  # all undecided
        if alpha < 1.0:  # the float32 statistic alone would miscount
            assert np.any((over > 0) != (np.abs(t64) > crit))
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, _NORMAL, (n,), drawn.shape[1], alpha, 1)
        got = power_curve(*args)
        assert got.rates[0] * drawn.shape[1] == np.count_nonzero(
            np.abs(t64) > crit)
        assert got == _float64_curve(monkeypatch, *args)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_non_finite_float32_statistics_recounted(self, monkeypatch,
                                                      scenario):
        # A gamma past float32's range gives a non-finite float32
        # statistic and a finite float64 one, which is counted.  Where
        # the float64 statistic is not finite too (all read ranks tied,
        # a zero spread), the refusal counts it exactly.
        reads, n, rows = READS[scenario], 50, 40
        drawn = _draw_chunk(_NORMAL, n, rows, 3, 0, reads)
        drawn[-1, 0] = 1e39
        t32, t64, _ = _maps(scenario, n, drawn)
        assert not np.isfinite(t32[0]) and np.isfinite(t64).all()
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, _NORMAL, (n,), rows, 0.05, 1)
        got = power_curve(*args)
        assert got.rates[0] * rows == np.count_nonzero(np.abs(t64) > 1.96)
        assert got == _float64_curve(monkeypatch, *args)
        drawn[1:len(reads), 1] = 0.0
        for curve in (power_curve, lambda *a: _float64_curve(monkeypatch, *a)):
            with pytest.raises(ValueError, match=rf"normal\(0,1\) at n=50: "
                               rf"1 of {rows} statistics are not finite"):
                curve(*args)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_spread_within_its_error_recounted(self, monkeypatch, scenario):
        # Gaps between the read ranks of 1e-11 to 1e-6 of the total, 1 to
        # 3 below and above the median, leave some float32 spreads within
        # their own error of zero: no bound holds there, though the
        # float32 statistic is finite and decides otherwise than the
        # float64 one.
        reads, n, rows = READS[scenario], 1000, 80
        drawn = _draw_chunk(_NORMAL, n, rows, 8, 0, reads)
        drawn[1:len(reads), :64] = (
            np.repeat([1.0, 3.0], len(reads) // 2)[:, None]
            * np.geomspace(1e-11, 1e-6, 64) * drawn[:, :64].sum(axis=0))
        t32, t64, bound = _maps(scenario, n, drawn)
        assert np.any(np.isinf(bound) & np.isfinite(t32)
                      & ((np.abs(t32) > 1.96) != (np.abs(t64) > 1.96)))
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, _NORMAL, (n,), rows, 0.05, 1)
        got = power_curve(*args)
        assert got.rates[0] * rows == np.count_nonzero(np.abs(t64) > 1.96)
        assert got == _float64_curve(monkeypatch, *args)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_far_tail_recounted(self, monkeypatch, scenario):
        # A lowest gap of 1e-45 to 1e-41 of the total puts the lowest read
        # rank's p in float32's subnormal range, about x = -14: its float32
        # value is off by far more than one order statistic's error, and
        # no bound holds past |x| = 12.
        reads, n, rows = READS[scenario], 1000, 40
        drawn = _draw_chunk(_NORMAL, n, rows, 8, 0, reads)
        drawn[0, :16] = (np.geomspace(1e-45, 1e-41, 16)
                         * drawn[:, :16].sum(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lowest32, lowest64 = (_summary_matrix(
                _NORMAL, n, 1, 0, reads=reads,
                drawn=drawn.astype(dtype))[:16, reads[0]]
                for dtype in (np.float32, np.float64))
        assert np.max(np.abs(lowest32 - lowest64)) > 1e-3
        assert np.all(lowest64 < -13.0)
        assert np.all(np.isinf(_maps(scenario, n, drawn)[2][:16]))
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, _NORMAL, (n,), rows, 0.05, 1)
        assert power_curve(*args) == _float64_curve(monkeypatch, *args)

    def test_bound_holds_with_headroom(self):
        # 1.05e6 standard-normal replicates: the float32 statistic is
        # within a tenth of its bound of the float64 one.
        replicates, seen = 50000, 0
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            for n in (4, 5, 7, 12, 50, 1000, 10 ** 6):
                for chunk in range(3):
                    t32, t64, bound = _maps(scenario, n, _draw_chunk(
                        _NORMAL, n, replicates, 5, chunk, READS[scenario]))
                    finite = np.isfinite(t32) & np.isfinite(bound)
                    assert finite.all()
                    assert np.all(np.abs(t32 - t64) <= bound / 10)
                    seen += len(t32)
        assert seen >= 10 ** 6


# Every spacings family with an error column, at the benchmark's
# parameters and at far ones: a location and scales far from 1, a
# lognormal sigma below 1 (its y * (1 + |z|) peaks below the median), a
# beta b whose upper guard cuts inside (0, 1), and the Weibull shapes
# whose float32 power is a square and a copy.  Chi-square takes the
# spacings path at one degree of freedom only.
_SCREENED = POWER_ALTERNATIVES + (
    DistSpec("normal", (-40.0, 7.0)), DistSpec("lognormal", (2.0, 0.3)),
    DistSpec("exponential", (250.0,)), DistSpec("beta", (1.0, 60.0)),
    DistSpec("weibull", (0.5, 30.0)), DistSpec("weibull", (1.0, 0.01)))


class TestFamilyScreen:
    # Every spacings-path curve whose family row has an error column
    # counts through the float32 screen, and its counts are the float64
    # map's.

    @pytest.mark.parametrize("dist", _SCREENED, ids=DistSpec.label)
    def test_counts_equal_the_float64_counts(self, monkeypatch, dist):
        grid = (4, 5, 7, 10, 25, 100, 1000)
        recounted, screened = [], []
        real = simulate._summary_matrix

        def recording(*args, drawn, **kwargs):
            (screened if drawn.dtype == np.float32 else recounted).append(
                drawn.shape[1])
            return real(*args, drawn=drawn, **kwargs)

        for seed, scenario in enumerate(READS, 1):
            for alpha in (0.05, 0.01):
                args = (scenario, dist, grid, 20000, alpha, seed)
                with monkeypatch.context() as m:
                    m.setattr(simulate, "_summary_matrix", recording)
                    got = power_curve(*args)
                assert got == _float64_curve(monkeypatch, *args)
        assert len(screened) == 6 * len(grid)
        assert max(recounted, default=0) < simulate._CHUNK_ROWS // 100

    def test_bound_holds_with_headroom(self):
        # 1.32e6 replicates over the families: each float32 statistic is
        # within a tenth of its bound of the float64 one.
        seen = 0
        for dist in _SCREENED:
            for scenario in READS:
                for n in (4, 10, 100, 1000):
                    drawn = _draw_chunk(dist, n, 10000, 5, 0, READS[scenario])
                    t32, t64, bound = _maps(scenario, n, drawn, dist)
                    finite = np.isfinite(t32) & np.isfinite(bound)
                    assert np.count_nonzero(~finite) <= 1, dist
                    assert np.all(np.abs(t32 - t64)[finite]
                                  <= bound[finite] / 10), (dist, scenario, n)
                    seen += len(t32)
        assert seen >= 10 ** 6

    @pytest.mark.parametrize("dist,scenario", [
        (dist, list(READS)[i % 3]) for i, dist in enumerate(_SCREENED)],
        ids=lambda x: x.label() if isinstance(x, DistSpec) else x.value)
    def test_replicates_inside_the_band_recounted(self, monkeypatch, dist,
                                                   scenario):
        n, crit = 25, critical_value(0.05)
        drawn = _at_critical(dist, scenario, n, crit, pool=16)
        t32, t64, bound = _maps(scenario, n, drawn, dist)
        over = np.abs(t32) - crit
        assert np.all(np.abs(over[:32]) <= bound[:32])  # all undecided
        assert np.any((over > 0) != (np.abs(t64) > crit))
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, dist, (n,), drawn.shape[1], 0.05, 1)
        got = power_curve(*args)
        assert got.rates[0] * drawn.shape[1] == np.count_nonzero(
            np.abs(t64) > crit)
        assert got == _float64_curve(monkeypatch, *args)

    @pytest.mark.parametrize("dist", _SCREENED, ids=DistSpec.label)
    def test_float32_overflow_recounted_not_refused(self, monkeypatch,
                                                    dist):
        # A gamma past float32's range below the lowest read rank: the
        # float32 statistic is not finite, the float64 one is, and the
        # curve counts it.
        scenario, n, rows = Scenario.S3, 50, 40
        drawn = _draw_chunk(dist, n, rows, 3, 0, READS[scenario])
        drawn[0, 0] = 1e39
        t32, t64, _ = _maps(scenario, n, drawn, dist)
        assert not np.isfinite(t32[0]) and np.isfinite(t64).all()
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, dist, (n,), rows, 0.05, 1)
        got = power_curve(*args)
        assert got.rates[0] * rows == np.count_nonzero(np.abs(t64) > 1.96)
        assert got == _float64_curve(monkeypatch, *args)

    @pytest.mark.parametrize("dist", _SCREENED, ids=DistSpec.label)
    def test_far_tails_recounted(self, monkeypatch, dist):
        # A lowest gap of 1e-40 of the total puts U in float32's
        # subnormal range, and a highest one 1 - U.  The guard makes the
        # bound inf wherever the map reads that p: chi-square reads only
        # 1 - U.
        scenario, n, rows = Scenario.S1, 1000, 40
        drawn = _draw_chunk(dist, n, rows, 8, 0, READS[scenario])
        total = drawn.sum(axis=0)
        drawn[0, :8] = 1e-40 * total[:8]
        drawn[-1, 8:16] = 1e-40 * total[8:16]
        guarded = slice(8 if dist.family == "chisquare" else 0, 16)
        assert np.all(np.isinf(_maps(scenario, n, drawn, dist)[2][guarded]))
        monkeypatch.setattr(simulate, "_draw_chunk",
                            lambda *args: drawn.copy())
        args = (scenario, dist, (n,), rows, 0.05, 1)
        assert power_curve(*args) == _float64_curve(monkeypatch, *args)

    @pytest.mark.parametrize("text", [
        "weibull:1.5,1", "weibull:3,1", "lognormal:0,8", "lognormal:80,1",
        "normal:0,1e-40", "normal:1e35,1", "exponential:1e-40",
        "beta:1,1e31", "beta:2,5", "chisquare:3"])
    def test_no_error_column(self, text):
        # No known float32 bound: a Weibull power that numpy does not
        # round correctly, a float32 exp or map that overflows, or a
        # parameter float32 rounds past its unit roundoff; and the sort
        # path.
        dist = DistSpec.parse(text)
        assert simulate._FAMILIES[dist.family][4](dist.params) is None

    @pytest.mark.parametrize("k,oracle", [(0.5, np.square),
                                          (1.0, np.positive),
                                          (2.0, np.sqrt)])
    def test_weibull_power_is_correctly_rounded(self, k, oracle):
        # The Weibull column's premise: numpy's float32 x ** (1 / k) at
        # these k has the bits of a square, a copy and a sqrt.
        x = np.geomspace(1e-30, 1e4, 100001, dtype=np.float32)
        assert (x ** (1 / k)).tobytes() == oracle(x).tobytes()

    @pytest.mark.parametrize("text,counts", [
        ("weibull:1.5,1", {Scenario.S1: (444, 1837, 2977),
                           Scenario.S3: (304, 1547, 2961)}),
        ("beta:2,5", {Scenario.S1: (248, 952, 2393),
                      Scenario.S3: (201, 814, 2198)})])
    def test_float64_families_keep_their_counts(self, monkeypatch, text,
                                                 counts):
        # Without an error column a curve maps in float64 only, and its
        # counts are those recorded before the screen reached any family
        # but the standard normal.
        dist, dtypes = DistSpec.parse(text), set()
        real = simulate._summary_matrix

        def recording(*args, drawn, **kwargs):
            dtypes.add(drawn.dtype)
            return real(*args, drawn=drawn, **kwargs)

        monkeypatch.setattr(simulate, "_summary_matrix", recording)
        for scenario, want in counts.items():
            got = power_curve(scenario, dist, (10, 25, 100), 3000, seed=3)
            assert tuple(round(r * 3000) for r in got.rates) == want
        assert dtypes == {np.dtype(np.float64)}


class TestChunkUnits:
    # Cells of several chunks: with _CHUNK_ROWS = 300, R = 1000 is three
    # whole chunks and a partial one of 100 rows.

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 300)

    @pytest.mark.parametrize("dist", [DistSpec("lognormal", (0.0, 1.0)),
                                      _SORTED_FAMILIES[0]], ids=DistSpec.label)
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_rates_are_the_mean_over_the_whole_matrix(self, monkeypatch,
                                                      dist, cpus):
        _force_cpus(monkeypatch, cpus)
        grid, crit = (10, 20, 30), critical_value(0.05)
        got = power_curve(Scenario.S3, dist, grid, replicates=1000, seed=9)
        want = tuple(float(np.mean(np.abs(_statistics(
            Scenario.S3, _summary_matrix(dist, n, 1000, 9), n)) > crit))
            for n in grid)
        assert got.rates == want
        assert 0.0 < min(want) and max(want) < 1.0

    @pytest.mark.parametrize("dist", [
        _NORMAL, DistSpec("lognormal", (0.0, 1.0)), *_SORTED_FAMILIES],
        ids=DistSpec.label)
    @pytest.mark.parametrize("scenario", list(READS))
    def test_whole_matrix_is_its_chunk_maps(self, dist, scenario):
        # R = 700: two whole chunks and a partial one of 100 rows, each
        # drawn on its own stream and mapped alone, then stacked.
        reads = READS[scenario]
        maps = [_summary_matrix(dist, 30, 700, 4, reads=reads,
                                drawn=simulate._draw_chunk(dist, 30, 700, 4,
                                                           chunk, reads))
                for chunk in range(3)]
        assert [len(m) for m in maps] == [300, 300, 100]
        whole = _summary_matrix(dist, 30, 700, 4, reads=reads)
        assert whole.shape == (700, 5)
        assert whole.tobytes() == np.concatenate(maps).tobytes()

    @pytest.mark.parametrize("cpus,screen", [
        pytest.param(1, True, id="1"), pytest.param(2, True, id="2"),
        pytest.param(1, False, id="1-float64_only"),
        pytest.param(2, False, id="2-float64_only")])
    def test_last_chunk_overflow_counts_the_whole_cell(self, monkeypatch,
                                                        cpus, screen):
        # n=10's last chunk overflows in half its rows: an inf gap makes
        # their statistics nan in the float32 map and again in the
        # float64 recount.  On 2 CPUs the first chunk's count, on the
        # calling thread, is slow, so the helper reaches the last chunk
        # first: the error still waits for the slow chunk, counts over
        # all R, and no unit of n=25 starts.  A count starts at the
        # unit's first map, float32 under the screen, and is matched to
        # its chunk by the contents of the draw.  float64_only runs the
        # same curve with the screen off, as a family row without an
        # error column runs.
        _force_cpus(monkeypatch, cpus)
        if not screen:
            _without_error_column(monkeypatch, "normal")
        first = np.float32 if screen else np.float64  # a unit's first map
        units, chunks = [], {}  # chunks: a draw's float32 bytes -> its index
        real_draw, real = simulate._draw_chunk, simulate._summary_matrix

        def overflowing_draw(dist, n, replicates, seed, chunk, reads):
            drawn = real_draw(dist, n, replicates, seed, chunk, reads)
            if (n, chunk) == (10, 3):
                drawn[-1, ::2] = np.inf
            chunks[drawn.astype(np.float32).tobytes()] = chunk
            return drawn

        def recording(dist, n, replicates, seed, *, drawn, **kwargs):
            if drawn.dtype == first:
                chunk = chunks.pop(drawn.astype(np.float32).tobytes())
                units.append((n, chunk))
                if (n, chunk) == (10, 0):
                    time.sleep(0.2)
            return real(dist, n, replicates, seed, drawn=drawn, **kwargs)

        monkeypatch.setattr(simulate, "_draw_chunk", overflowing_draw)
        monkeypatch.setattr(simulate, "_summary_matrix", recording)
        with pytest.raises(ValueError, match=r"normal\(0,1\) at n=10: "
                           r"50 of 1000 statistics are not finite"):
            power_curve(Scenario.S1, _NORMAL, [10, 25], replicates=1000,
                        seed=1)
        assert sorted(units) == [(10, 0), (10, 1), (10, 2), (10, 3)]


class TestWorkingSet:
    @pytest.mark.parametrize("dist", _SORTED_FAMILIES, ids=DistSpec.label)
    @pytest.mark.parametrize("values", [100, 1])  # 3 rows, 1 row a block
    def test_sort_blocks_match_one_block(self, monkeypatch, dist, values):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 300)
        whole = _summary_matrix(dist, 30, 700, 4)
        monkeypatch.setattr(simulate, "_SORT_VALUES", values)
        assert np.array_equal(_summary_matrix(dist, 30, 700, 4), whole)

    @staticmethod
    def _peak(dist, n, replicates, warm=100):
        _summary_matrix(dist, n, warm, 0)  # first-call allocations
        tracemalloc.start()
        try:
            result = _summary_matrix(dist, n, replicates, 0)
            return tracemalloc.get_traced_memory()[1], result.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("dist", _SPACINGS_FAMILIES, ids=DistSpec.label)
    def test_spacings_cell_peak(self, dist):
        # The gammas, the result and a few rows of temporaries.
        peak, result = self._peak(dist, 50, 20_000)
        assert peak < 5 * result

    @pytest.mark.parametrize("dist", _SORTED_FAMILIES, ids=DistSpec.label)
    def test_sort_cell_peak_does_not_grow_with_n(self, dist):
        # 2000 samples of 1000 are 16 MB; one block is at most 2 MiB.
        peak, result = self._peak(dist, 1000, 2000)
        assert peak < 8 * simulate._SORT_VALUES + 5 * result

    @pytest.mark.parametrize("dist", _SORTED_FAMILIES, ids=DistSpec.label)
    def test_sort_cell_peak_is_one_sample_past_the_block(self, dist):
        # Past _SORT_VALUES values a sample, a block is one whole sample:
        # at n = 2^20 the cell holds one 8 MiB sample at a time, not its
        # four, so the bound is max(2 MiB, 8n bytes) of values.
        n = 1 << 20
        assert n > simulate._SORT_VALUES
        peak, _ = self._peak(dist, n, 4, warm=1)
        assert 8 * n <= peak < 1.01 * 8 * n

    @staticmethod
    def _curve_peak(dist, replicates):
        power_curve(Scenario.S1, dist, [50], 100, seed=0)  # first calls
        tracemalloc.start()
        try:
            power_curve(Scenario.S1, dist, [50], replicates, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("dist", [_NORMAL, _SORTED_FAMILIES[0]],
                             ids=DistSpec.label)
    def test_curve_peak_does_not_grow_with_replicates(self, monkeypatch, dist):
        # A curve holds one chunk per thread, never a cell's whole
        # (5, R) matrix: five chunks cost about what one does.
        _force_cpus(monkeypatch, 1)
        one = self._curve_peak(dist, simulate._CHUNK_ROWS)
        five = self._curve_peak(dist, 5 * simulate._CHUNK_ROWS)
        assert five < 1.5 * one


class TestFastPathsBitIdentical:
    # Each fast path of the spacings sampler against the formulation it
    # replaced, kept here as the oracle: the same bytes, not a tolerance.

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10, 1000])
    def test_gamma_rows_match_one_broadcast_call(self, n):
        # The gaps of the ranks each scenario reads: shape-1 rows (drawn
        # by the exponential sampler) among larger shapes, and zero
        # shapes where S3's ranks tie.
        columns = _order_columns(n)
        for scenario, reads in READS.items():
            gaps = np.diff([0, *(columns[i] + 1 for i in reads), n + 1])
            if scenario is Scenario.S3:
                assert bool(np.any(gaps == 0)) == (n <= 7)  # tied ranks
            if scenario is Scenario.S1:
                assert gaps[0] == gaps[-1] == 1  # the min's and the max's
            shape = (len(gaps), 999)
            rng, oracle_rng = _generator(5, n, 0), _generator(5, n, 0)
            got = _draw(DistSpec("normal", (0.0, 1.0)), rng, shape, gaps)
            want = oracle_rng.standard_gamma(gaps[:, None], shape)
            assert got.tobytes() == want.tobytes(), scenario
            assert np.all(got[gaps == 0] == 0.0)
            # The same draws consumed.
            assert rng.random() == oracle_rng.random(), scenario

    # The map of the drawn gammas before its shortcuts: the total by one
    # reduction, and each quantile by its whole formula.
    _FORMULAS = {
        "normal": lambda p: lambda u, v: p[0] + p[1] * _quantile_row(u, v),
        "lognormal": lambda p: lambda u, v: np.exp(
            p[0] + p[1] * _quantile_row(u, v)),
        "chisquare": lambda p: lambda u, v: (
            _quantile_row(v / 2, (1 + u) / 2) ** 2),
        "exponential": lambda p: lambda u, v: (
            -simulate._log_upper(u, v) / p[0]),
        "beta": lambda p: lambda u, v: -np.expm1(
            simulate._log_upper(u, v) / p[1]),
        "weibull": lambda p: lambda u, v: (
            p[1] * (-simulate._log_upper(u, v)) ** (1 / p[0])),
    }

    @classmethod
    def _whole_formula_map(cls, dist, g, reads):
        quantile = cls._FORMULAS[dist.family](dist.params)
        out = np.full((5, g.shape[1]), np.nan)
        total = g.sum(axis=0)
        below = np.cumsum(g, axis=0)
        above = np.cumsum(g[::-1], axis=0)[::-1]
        for j, i in enumerate(reads):
            out[i] = quantile(below[j] / total, above[j + 1] / total)
        return out.T

    @pytest.mark.parametrize("dist", [
        DistSpec.parse(text) for text in (
            "normal:0,1", "normal:1,2", "normal:0,2", "normal:0,5e-324",
            "lognormal:0,1", "lognormal:1,0.5", "exponential:1",
            "exponential:2.5", "weibull:2,1", "weibull:1.5,3", "beta:1,5",
            "chisquare:1")], ids=DistSpec.label)
    def test_map_matches_the_whole_formulas(self, dist):
        # Every spacings family at unit and other parameters, a subnormal
        # scale among them (its products underflow to -0.0, which the
        # added 0.0 turns to 0.0).  np.cumsum along axis 0 makes the same
        # additions in the same order as the map's running sums.
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            reads = READS[scenario]
            for n in (4, 5, 7, 10, 100, 1000):
                g = simulate._draw_chunk(dist, n, 2000, 4, 0, reads)
                want = self._whole_formula_map(dist, g, reads)
                got = _summary_matrix(dist, n, 2000, 4, reads=reads)
                assert got.tobytes() == want.tobytes(), (scenario, n)

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    max_size=40))
    def test_quantile_row_never_negative_zero(self, ps):
        # The unit-parameter quantiles skip 0.0 + z, which only differs
        # from z at z = -0.0.  p = 0.5, the zero of Phi^-1, is in every
        # row, whichever branch most of the row takes.
        p = np.array(ps + [0.5])
        z = _quantile_row(p, 1.0 - p)
        assert not np.any((z == 0.0) & np.signbit(z))
        assert z[-1] == 0.0

    @staticmethod
    def _masked_quantiles(p, upper):
        # The whole-array evaluation: every branch on the elements that
        # take it, Horner started from a filled array.
        def horner(coeffs, x):
            y = np.full_like(x, coeffs[0])
            for c in coeffs[1:]:
                y *= x
                y += c
            return y

        central_c, near_c, far_c = (simulate._CENTRAL, simulate._NEAR_TAIL,
                                    simulate._FAR_TAIL)
        p = np.asarray(p, dtype=float)
        q = p - 0.5
        x = np.empty_like(q)
        central = np.abs(q) <= 0.425
        qc = q[central]
        r = 0.180625 - qc * qc
        x[central] = qc * horner(central_c[0], r) / horner(central_c[1], r)
        tail = ~central
        lower = q[tail] < 0.0
        s = np.sqrt(-np.log(np.where(lower, p[tail],
                                     np.asarray(upper)[tail])))
        far = s > 5.0
        near = ~far
        z = np.empty_like(s)
        z[near] = (horner(near_c[0], s[near] - 1.6)
                   / horner(near_c[1], s[near] - 1.6))
        z[far] = (horner(far_c[0], s[far] - 5.0)
                  / horner(far_c[1], s[far] - 5.0))
        x[tail] = np.where(lower, -z, z)
        return x

    @staticmethod
    def _log_uniform(rng, lo, hi, size=1000):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    def _assert_same_bytes(self, p, upper):
        got = _quantile_rows(p, upper)
        want = self._masked_quantiles(p, upper)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_single_branch_rows(self):
        # All central, all lower tail, all upper tail, and both tails
        # wholly beyond s = 5 (p < e^-25).
        rng = np.random.default_rng(0)
        far = math.exp(-25.0)
        u = np.stack([rng.uniform(0.0751, 0.5, 1000),
                      self._log_uniform(rng, far, 0.0749),
                      self._log_uniform(rng, far, 0.0749),
                      self._log_uniform(rng, 1e-300, far),
                      self._log_uniform(rng, 1e-300, far)])
        p, upper = u.copy(), 1.0 - u
        for row in (0, 2, 4):  # the mirror images, read from upper
            p[row], upper[row] = 1.0 - u[row], u[row]
        self._assert_same_bytes(p, upper)

    def test_mixed_rows(self):
        # Rows straddling 0.075, 0.925 and s = 5 (in both tails), and a
        # row over the whole of (0, 1).
        rng = np.random.default_rng(1)
        far = math.exp(-25.0)

        def around(edge):
            ulps = np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)
            return np.concatenate([ulps, edge * rng.uniform(0.5, 1.5, 997)])

        u = np.stack([around(0.075), around(0.075), around(far),
                      around(far), self._log_uniform(rng, 1e-300, 0.5)])
        p, upper = u.copy(), 1.0 - u
        for row in (1, 3):
            p[row], upper[row] = 1.0 - u[row], u[row]
        p[4, ::2], upper[4, ::2] = upper[4, ::2], p[4, ::2]
        p[0, :3] = np.nextafter(0.925, 0.0), 0.925, np.nextafter(0.925, 1.0)
        upper[0, :3] = 1.0 - p[0, :3]
        self._assert_same_bytes(p, upper)

    @pytest.mark.parametrize("central", [19000, 10001, 10000, 9999, 1000])
    def test_mixed_row_majorities(self, monkeypatch, central):
        # 20000 elements, ``central`` of them central and the rest in
        # both tails down to 1e-300, in random order.  A row at least
        # half central runs the central formula on all 20000 elements;
        # any other runs it on its central ones only.
        rng = np.random.default_rng(central)
        c = rng.uniform(0.0751, 0.9249, central)
        t = self._log_uniform(rng, 1e-300, 0.0749, 20000 - central)
        p, upper = np.concatenate([c, t]), np.concatenate([1.0 - c, 1.0 - t])
        mirror = central + np.flatnonzero(rng.uniform(size=len(t)) < 0.5)
        p[mirror], upper[mirror] = upper[mirror], p[mirror]
        order = rng.permutation(20000)
        sizes = []
        central_quantiles = simulate._central_quantiles

        def recording(q):
            sizes.append(len(q))
            return central_quantiles(q)

        monkeypatch.setattr(simulate, "_central_quantiles", recording)
        self._assert_same_bytes(p[order][None], upper[order][None])
        assert sizes == [20000 if 2 * central >= 20000 else central]

    @pytest.mark.parametrize("at", [0, 19999])
    def test_single_minority_element_at_either_end(self, at):
        # One tail element (far lower, upper) among 19999 central ones,
        # and one central element among 19999 lower or upper tail ones,
        # first or last in the row.
        rng = np.random.default_rng(3)
        c = rng.uniform(0.0751, 0.9249, 19999)
        t = self._log_uniform(rng, 1e-300, 0.0749, 19999)
        rows = []
        for p, upper, singles in (
                (c, 1.0 - c, [(1e-300, 1.0), (0.999, 1e-3)]),
                (t, 1.0 - t, [(0.5, 0.5), (0.9, 0.1)]),
                (1.0 - t, t, [(0.1, 0.9), (0.3, 0.7)])):
            for one in singles:
                rows.append([np.insert(row, at, value)
                             for row, value in zip((p, upper), one)])
        p, upper = map(np.stack, zip(*rows))
        self._assert_same_bytes(p, upper)

    @staticmethod
    def _masked_tail_quantiles(s):
        # The tail split before it went through ``_by_majority``: each
        # formula on its own elements only, picked out by a boolean mask.
        far = s > 5.0
        if not far.any():
            return simulate._rational(simulate._NEAR_TAIL_PAIR, s - 1.6)
        near = ~far
        z = np.empty_like(s)
        z[near] = simulate._rational(simulate._NEAR_TAIL_PAIR, s[near] - 1.6)
        z[far] = simulate._rational(simulate._FAR_TAIL_PAIR, s[far] - 5.0)
        return z

    @pytest.mark.parametrize("far", [19998, 15000, 10001, 10000, 9999, 5000,
                                     2])
    def test_tail_rows_split_by_majority(self, far):
        # 20000 tail elements (p < 0.075), ``far`` of them beyond s = 5
        # (p < e^-25) down to 1e-300, in random order: mostly far with a
        # few near, and the reverse.  s = 5, its neighbours and the s of
        # the smallest double are among them.  Each formula also runs on
        # the other's elements, and no floating-point error may arise.
        rng = np.random.default_rng(far)
        edge = math.exp(-25.0)
        w = np.concatenate([self._log_uniform(rng, 1e-300, edge / 1.001, far),
                            self._log_uniform(rng, edge * 1.001, 0.0749,
                                              20000 - far)])
        s = np.sqrt(-np.log(w))
        assert np.count_nonzero(s > 5.0) == far
        s[:2] = np.nextafter(5.0, 6.0), math.sqrt(-math.log(5e-324))
        s[-2:] = 5.0, np.nextafter(5.0, 0.0)
        order = rng.permutation(20000)
        w, s = w[order], s[order]
        p, upper = w.copy(), 1.0 - w
        p[::2], upper[::2] = upper[::2], w[::2]  # half in the upper tail
        with np.errstate(all="raise"):
            got = simulate._tail_quantiles(s)
            want = self._masked_tail_quantiles(s)
            assert got.tobytes() == want.tobytes()
            self._assert_same_bytes(p[None], upper[None])

    @pytest.mark.parametrize("below", [20000, 15000, 10000, 5000, 0])
    def test_log_upper_rows(self, below):
        # 20000 elements, ``below`` of them under 0.5 and the rest at or
        # above it, exactly 0.5 included, in random order.
        rng = np.random.default_rng(below)
        w = np.concatenate([self._log_uniform(rng, 1e-300, 0.4999, below),
                            self._log_uniform(rng, 2.0 ** -52, 0.5,
                                              20000 - below)])
        w[below::7] = 0.5
        u, v = w.copy(), 1.0 - w
        u[below:], v[below:] = v[below:], w[below:]
        order = rng.permutation(20000)
        u, v = u[order], v[order]
        assert np.count_nonzero(u < 0.5) == below
        assert below == 20000 or np.any(u == 0.5)
        want = np.where(u < 0.5, np.log1p(-u), np.log(v))
        assert simulate._log_upper(u, v).tobytes() == want.tobytes()


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
        r = power_curve(Scenario.S1, _NORMAL, [50, 100],
                        replicates=400, seed=11)
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


def _quantile_rows(p, upper):
    # Phi^-1 of a 2-D array, one row at a time, as the sampler takes it.
    return np.array([_quantile_row(p_row, upper_row)
                     for p_row, upper_row in zip(p, upper)])


def _within_ulps(got, want, ulps=4):
    return np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


class TestQuantileArray:
    # The scalar std_normal_quantile is the oracle of the numpy port.

    def test_dense_grid_both_tails(self):
        lower = np.logspace(-300, math.log10(0.5), 4000)
        p = np.concatenate([lower, np.linspace(1e-4, 1 - 1e-4, 9999),
                            1.0 - lower[lower > 1e-16]])
        want = np.array([std_normal_quantile(float(x)) for x in p])
        assert _within_ulps(_quantile_row(p, 1.0 - p), want)

    @pytest.mark.parametrize("edge", [0.075, 0.925, math.exp(-25.0)])
    def test_branch_edges(self, edge):
        p = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
        want = np.array([std_normal_quantile(float(x)) for x in p])
        assert _within_ulps(_quantile_row(p, 1.0 - p), want)

    def test_upper_tail_read_from_upper(self):
        # 1 - u rounds to 1.0 below u = 1e-16; the separate upper keeps
        # the whole tail, which is the mirror of the lower one.
        u = np.logspace(-300, -1, 600)
        want = np.array([-std_normal_quantile(float(x)) for x in u])
        assert _within_ulps(_quantile_row(1.0 - u, u), want)

    def test_center_and_shape(self):
        p = np.array([[0.5, 0.25], [0.75, 0.975]])
        got = _quantile_rows(p, 1.0 - p)
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.0
        assert got[1, 1] == std_normal_quantile(0.975)


class TestFloat32Quantile:
    # The port in float32 against itself in float64 at the same float32
    # input: within the 41 u (1 + |z|) that ``_error_bound`` allows.

    @staticmethod
    def _evenly(lo, hi, count):
        # ``count`` float32 values evenly spaced in their bit patterns.
        a, b = np.array([lo, hi], np.float32).view(np.int32)
        return np.linspace(a, b, count).astype(np.int32).view(np.float32)

    def test_error_within_the_allowance(self):
        # 2^18 inputs: 2^17 central p in [0.075, 0.925], 2^16 lower-tail
        # p from float32's smallest normal number to 0.075, and their
        # mirrors in the upper tail, read through ``upper``.
        central = self._evenly(0.075, 0.925, 1 << 17)
        tail = self._evenly(2.0 ** -126, 0.075, 1 << 16)

        def mirror(x):
            return (1.0 - x.astype(np.float64)).astype(np.float32)

        for p, upper in ((central, mirror(central)), (tail, mirror(tail)),
                         (mirror(tail), tail)):
            z32 = _quantile_row(p, upper)
            z64 = _quantile_row(p.astype(np.float64), upper.astype(np.float64))
            assert z32.dtype == np.float32
            assert np.all(np.abs(z32 - z64)
                          <= 41 * simulate._U32 * (1.0 + np.abs(z64)))
