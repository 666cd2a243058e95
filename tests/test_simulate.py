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

from sumnorm import simulate
from sumnorm.cli import DEFAULT_N_GRID
from sumnorm.model import QuantileSummary, Scenario
from sumnorm.normal import critical_value, std_normal_quantile
from sumnorm.simulate import (DEMO_PAIRS, POWER_ALTERNATIVES, DistSpec, _draw,
                              _generator, _order_columns, _quantile_row,
                              _statistics, _summary_matrix, isotonic_fit_r2,
                              power_curve, skew_distortion_demo, summarize,
                              write_experiment_csv)
from sumnorm.symmetry import DEFAULT_KAPPA_C, READS

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
            power_curve(Scenario.S1, _NORMAL, [3], replicates=100, seed=1)

    def test_grid_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(simulate, "_draw", no_draw)
        with pytest.raises(ValueError, match="n=3 is below"):
            power_curve(Scenario.S1, _NORMAL, [50, 3], replicates=10, seed=1)

    @pytest.mark.parametrize("kappa_c", [-1e6, math.nan, 9.9])
    def test_bad_kappa_c_raises(self, kappa_c):
        # S1 never uses kappa_c, so only an explicit check refuses it.
        with pytest.raises(ValueError, match="kappa_c must be one of"):
            power_curve(Scenario.S1, _NORMAL, [50], replicates=10, seed=1,
                        kappa_c=kappa_c)

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
    @pytest.mark.parametrize("n", [4, 5, 7, 10, 1000])
    def test_reads_map_only_their_rows(self, dist, n):
        # The rows a scenario reads are the full matrix's bytes; the
        # others are NaN.  The sort path fills every row.
        full = _summary_matrix(dist, n, 700, 6)
        for scenario, reads in READS.items():
            got = _summary_matrix(dist, n, 700, 6, reads=reads)
            unread = [i for i in range(5) if i not in reads]
            assert got[:, reads].tobytes() == full[:, reads].tobytes()
            assert np.all(np.isnan(got[:, unread])), scenario
            assert np.all(np.isfinite(got[:, reads])), scenario

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
    # A curve's (cell, chunk) units run on the calling thread and
    # min(units, usable CPUs) - 1 helper threads, each taking the next
    # unit until none is left.  The helpers stay, parked, for the next
    # curve.  The CPU count is forced, so these tests run the same on
    # any machine.

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
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 300)
        _force_cpus(monkeypatch, cpus)
        before = set(threading.enumerate())
        units = []
        real = simulate._summary_matrix

        def recording(dist, n, replicates, seed, chunk=None, **kwargs):
            units.append((n, chunk, threading.current_thread()))
            return real(dist, n, replicates, seed, chunk, **kwargs)

        monkeypatch.setattr(simulate, "_summary_matrix", recording)
        power_curve(Scenario.S1, _NORMAL, grid, replicates, seed=1)
        every = [(n, c) for n in grid for c in range(-(-replicates // 300))]
        assert sorted((n, c) for n, c, _ in units) == every
        assert len(own_helpers) <= min(len(every), cpus) - 1
        assert {t for *_, t in units} <= {threading.current_thread(),
                                          *own_helpers}
        # No thread is left but the parked helpers, and the next curve
        # reuses them: a thread started per curve can cost its memory
        # arena.
        after = set(threading.enumerate())
        assert after - before == set(own_helpers)
        power_curve(Scenario.S1, _NORMAL, grid, replicates, seed=1)
        assert set(threading.enumerate()) == after

    def test_each_cell_once_under_fast_switching(self, monkeypatch):
        # More threads than cores, switching as often as possible: a cell
        # handed out twice, or never, breaks the counts or the curve.
        grid = tuple(range(4, 44))
        _force_cpus(monkeypatch, 1)
        serial = power_curve(Scenario.S2, _NORMAL, grid, replicates=20, seed=2)
        _force_cpus(monkeypatch, 16)
        seen = []
        real = simulate._statistics

        def recording(scenario, summaries, n, kappa_c):
            seen.append(n)
            return real(scenario, summaries, n, kappa_c)

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
        # On 2 CPUs the helper takes n=30, the second unit, and the
        # calling thread n=40, 20 and 10.  n=30 fails after n=10 has:
        # the error still names n=30, as a loop over the grid would.
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
            Scenario.S3, _summary_matrix(dist, n, 1000, 9), n,
            DEFAULT_KAPPA_C)) > crit)) for n in grid)
        assert got.rates == want
        assert 0.0 < min(want) and max(want) < 1.0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_last_chunk_overflow_counts_the_whole_cell(self, monkeypatch,
                                                        cpus):
        # n=10's last chunk overflows in half its rows.  On 2 CPUs its
        # first chunk, on the calling thread, is slow, so the helper
        # reaches the last chunk first: the error still waits for the
        # slow chunk, counts over all R, and no unit of n=25 starts.
        _force_cpus(monkeypatch, cpus)
        units = []
        real = simulate._summary_matrix

        def overflowing(dist, n, replicates, seed, chunk=None, **kwargs):
            units.append((n, chunk))
            if (n, chunk) == (10, 0):
                time.sleep(0.2)
            x = real(dist, n, replicates, seed, chunk, **kwargs)
            if (n, chunk) == (10, 3):
                x[::2] = np.inf
            return x

        monkeypatch.setattr(simulate, "_summary_matrix", overflowing)
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
    def _peak(dist, n, replicates):
        _summary_matrix(dist, n, 100, 0)  # first-call allocations
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

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 1000])
    def test_gamma_rows_match_one_broadcast_call(self, n):
        gaps = np.diff([0, *(k + 1 for k in _order_columns(n)), n + 1])
        assert bool(np.any(gaps == 0)) == (n <= 7)  # tied ranks
        shape = (len(gaps), 999)
        rng, oracle_rng = _generator(5, n, 0), _generator(5, n, 0)
        got = _draw(DistSpec("normal", (0.0, 1.0)), rng, shape, gaps)
        want = oracle_rng.standard_gamma(gaps[:, None], shape)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[gaps == 0] == 0.0)
        assert rng.random() == oracle_rng.random()  # same draws consumed

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
