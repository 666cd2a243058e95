"""The attributes the benchmark's tracer wraps (``bench/tracing.py``).

The tracer reports a renamed attribute as an absent layer and a bypassed
one as an idle layer, and runs on.  These tests make either a failure of
the suite instead.  They read ``bench/tracing.py`` and change nothing
there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sumnorm import cli, meta, simulate
from sumnorm.model import Scenario
from sumnorm.simulate import DistSpec, power_curve

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_layer_resolves(layers):
    for module_name, attr, *_ in layers:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _record_calls(monkeypatch, layers, module, calls):
    """Make each wrapped attribute of ``module`` append its name to
    ``calls`` when called."""
    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls.append(attr)  # atomic: helper threads call these too
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, *_ in layers:
        if module_name == module.__name__:
            monkeypatch.setattr(module, attr,
                                counting(attr, getattr(module, attr)))


@pytest.mark.parametrize("dist", [DistSpec("normal", (0.0, 1.0)),
                                  DistSpec("chisquare", (3.0,))],
                         ids=DistSpec.label)
def test_curve_runs_through_the_simulate_layers(monkeypatch, layers, dist):
    # A two-cell curve, the spacings path and the sort path, calls each
    # wrapped stage of the Monte Carlo.
    calls = []
    _record_calls(monkeypatch, layers, simulate, calls)
    power_curve(Scenario.S1, dist, (10, 20), replicates=50, seed=1)
    assert set(calls) >= {"_rejection_curve", "_draw", "_summary_matrix",
                          "_statistics"}
    assert calls.count("_summary_matrix") == calls.count("_statistics") == 2


def test_meta_runs_through_the_pipeline_layers(monkeypatch, layers, data_dir,
                                               tmp_path):
    # A meta run on a bundled file, with included and excluded studies,
    # calls each wrapped stage of the pipeline.  curve_svg is the one
    # wrapped cli attribute that only simulate calls.
    calls = []
    for module in (meta, cli):
        _record_calls(monkeypatch, layers, module, calls)
    assert cli.main(["meta", str(data_dir / "zhang2017_leptin.csv"),
                     "--output-dir", str(tmp_path)]) == 0
    wrapped = {attr for module_name, attr, *_ in layers
               if module_name in (meta.__name__, cli.__name__)}
    assert set(calls) == wrapped - {"curve_svg"}
    assert wrapped >= {"parse_studies", "run_pipeline", "run_test",
                       "estimate_moments", "cohen_d", "pool",
                       "report_to_dict", "forest_svg"}
