"""Golden outputs: CLI stdout and artifacts pinned by sha256.

Every run of ``test``, ``estimate`` and ``meta`` (default flags, and
``--hedges --model fixed``) on each bundled dataset, of ``test`` and
``meta`` on ``s3_groups.csv``, and a set of seeded ``simulate`` and
``demo`` runs, is compared with a fixed reference, not just with a rerun
of itself.  The reference table and the runner live in
``golden_table.py``, which needs no pytest, so that the stdlib-only runs
are also checked under every supported Python found here
(``test_golden_table_on_every_supported_python``).  ``simulate`` and
``demo`` need numpy, so they are checked under the interpreter that runs
the suite only.  A change that alters any of these bytes on purpose must
say so in CHANGES.md and refresh the table; print the current digests
with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

from golden_table import (DATASETS, ENV, GOLDEN, RUNS, dataset_argv,
                          run_digests)

_OUT = ["--output-dir", "out"]
_SMALL_GRID = ["--grid", "4,5,7,10,200", "--replicates", "2000", *_OUT]
_POWER_GRID = ["--grid", "4,10,50", "--replicates", "2000", *_OUT]

# name -> argv of a seeded Monte Carlo run.  The type I runs cover the
# smallest n, where [0.25n] is 1; the 20001-replicate run crosses the
# 20000-row chunk boundary; each family is drawn once under --power.
# chisquare:3 has no closed-form quantile, so it pins the sort path.
SIM_RUNS = {
    "simulate/type1-s1": ["simulate", "--type1", "--scenario", "s1",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s2": ["simulate", "--type1", "--scenario", "s2",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s3": ["simulate", "--type1", "--scenario", "s3",
                          *_SMALL_GRID, "--seed", "7"],
    "simulate/type1-s3-chunks": ["simulate", "--type1", "--scenario", "s3",
                                 "--grid", "10", "--replicates", "20001",
                                 *_OUT, "--seed", "11"],
    "simulate/power-normal": ["simulate", "--power", "--scenario", "s1",
                              "--dist", "normal:1,2", *_POWER_GRID,
                              "--seed", "5"],
    "simulate/power-lognormal": ["simulate", "--power", "--scenario", "s1",
                                 "--dist", "lognormal:0,1", *_POWER_GRID,
                                 "--seed", "5"],
    "simulate/power-chisquare": ["simulate", "--power", "--scenario", "s2",
                                 "--dist", "chisquare:1", *_POWER_GRID,
                                 "--seed", "5"],
    "simulate/power-exponential": ["simulate", "--power", "--scenario", "s2",
                                   "--dist", "exponential:3", *_POWER_GRID,
                                   "--seed", "5"],
    "simulate/power-beta": ["simulate", "--power", "--scenario", "s3",
                            "--dist", "beta:1,5", *_POWER_GRID,
                            "--seed", "5"],
    "simulate/power-weibull": ["simulate", "--power", "--scenario", "s3",
                               "--dist", "weibull:2,3", *_POWER_GRID,
                               "--seed", "5"],
    "simulate/power-chisquare-sorted": ["simulate", "--power",
                                        "--scenario", "s1",
                                        "--dist", "chisquare:3",
                                        *_POWER_GRID, "--seed", "5"],
    "demo/all-pairs": ["demo", "--seed", "3", "--pairs",
                       "lognormal,chisquare,exponential,beta,weibull,normal"],
}

# name -> argv of a run on s3_groups.csv.  No bundled dataset reports
# all five numbers, so these pin T3 and its constant on the ``test`` and
# ``meta`` path: groups that reject and retain, and a study whose case
# arm is pooled from two groups.
_S3_CSV = str(Path(__file__).with_name("s3_groups.csv"))
S3_RUNS = {
    "test/s3-groups": ["test", _S3_CSV],
    "meta/s3-groups": ["meta", _S3_CSV, *_OUT],
}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_digests(run, dataset, tmp_path, monkeypatch):
    for name in ENV:
        monkeypatch.delenv(name, raising=False)
    got = run_digests(dataset_argv(run, dataset), tmp_path)
    assert got == GOLDEN[f"{run}/{dataset}"]


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_simulate_golden_digests(name, tmp_path, monkeypatch):
    for env in ENV:
        monkeypatch.delenv(env, raising=False)
    assert run_digests(SIM_RUNS[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(S3_RUNS))
def test_s3_golden_digests(name, tmp_path, monkeypatch):
    for env in ENV:
        monkeypatch.delenv(env, raising=False)
    assert run_digests(S3_RUNS[name], tmp_path) == GOLDEN[name]


def _python(minor: int) -> str | None:
    """A Python 3.``minor`` interpreter that runs, or None.

    ``python3.<minor>`` on PATH first, kept only if it starts and is that
    version (a pyenv shim without a setting for it fails), then pyenv's
    ``~/.pyenv/versions/3.<minor>.*/bin/python``.
    """
    candidates = [shutil.which(f"python3.{minor}"), *sorted(glob.glob(
        os.path.expanduser(f"~/.pyenv/versions/3.{minor}.*/bin/python")))]
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[1])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == str(minor):
            return exe
    return None


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_golden_table_on_every_supported_python(minor, src_env):
    # requires-python is >=3.10.  Float sums and the JSON and int()
    # limits have differed between versions, so the stdlib-only runs
    # and refusals are checked under each version found.
    exe = _python(minor)
    if exe is None:
        pytest.skip(f"no Python 3.{minor} that runs: neither python3.{minor} "
                    f"on PATH nor ~/.pyenv/versions/3.{minor}.*")
    for name in ENV:
        src_env.pop(name, None)
    proc = subprocess.run(
        [exe, str(Path(__file__).with_name("golden_table.py"))],
        env=src_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": 0 mismatches in 24 golden runs and 18 "
                                "refusals\n"), proc.stdout


def _record_all() -> dict[str, dict[str, str]]:
    for name in ENV:
        os.environ.pop(name, None)
    table = {}
    for run in sorted(RUNS):
        for dataset in DATASETS:
            with tempfile.TemporaryDirectory() as tmp:
                table[f"{run}/{dataset}"] = run_digests(
                    dataset_argv(run, dataset), Path(tmp))
    for name, argv in {**SIM_RUNS, **S3_RUNS}.items():
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = run_digests(argv, Path(tmp))
    return table


if __name__ == "__main__":
    import pprint

    pprint.pprint(_record_all(), width=79, sort_dicts=False)
