import os
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import sumnorm

# One deterministic profile for the whole suite: no deadline (some
# properties run vectorized batches) and derandomized so reruns are
# byte-identical.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(str(files("sumnorm") / "data"))


@pytest.fixture
def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(sumnorm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return env
