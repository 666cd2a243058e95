"""The README's library section is a checked contract.

Its fenced ``python`` example must run, and every lower-level name it
lists must resolve, so deleting a documented name fails here.
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_README = (_ROOT / "README.md").read_text(encoding="utf-8")


def _documented_names() -> list[str]:
    """Expand the README's ``module.a/b/c`` list into dotted names.

    A part without an underscore shares the first name's prefix
    (``coeff_tau/phi`` names ``coeff_phi``); ``...`` is skipped.
    """
    paragraph = _README.split("Lower-level pieces", 1)[1].split("\n\n", 1)[0]
    names = []
    for item in re.findall(r"`([a-z]+)\.([\w/.]+)`", paragraph):
        module, parts = item[0], item[1].split("/")
        for part in parts:
            if part == "...":
                continue
            if "_" not in part and part != parts[0]:
                part = parts[0].rsplit("_", 1)[0] + "_" + part
            names.append(f"{module}.{part}")
    return names


def test_library_example_runs(src_env):
    block = re.search(r"## Library use\n\n```python\n(.*?)```", _README,
                      re.S)
    assert block is not None
    proc = subprocess.run([sys.executable, "-c", block.group(1)], cwd=_ROOT,
                          env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_listed_lower_level_names_resolve():
    names = _documented_names()
    assert {"symmetry.run_test", "symmetry.statistic",
            "normal.quartile_width", "estimators.estimate_sd",
            "simulate.power_curve", "plots.forest_svg"} <= set(names)
    for dotted in names:
        module, name = dotted.split(".")
        mod = importlib.import_module(f"sumnorm.{module}")
        assert callable(getattr(mod, name, None)), dotted
        assert name in mod.__all__, dotted


def test_package_exposes_only_modules_and_version(src_env):
    # Names are imported from their modules, so each has one import
    # path: ``sumnorm.meta.run_pipeline``, not ``sumnorm.run_pipeline``.
    # A fresh interpreter shows what ``import sumnorm`` alone exposes:
    # every module but simulate, which loads numpy only when asked for.
    code = ("import json, sumnorm\n"
            "public = {k: type(v).__name__ for k, v in vars(sumnorm).items()\n"
            "          if not k.startswith('_')}\n"
            "version = type(sumnorm.__version__).__name__\n"
            "from sumnorm import simulate\n"
            "print(json.dumps([public, version, simulate.__name__]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    public, version, simulate = json.loads(proc.stdout)
    assert public == dict.fromkeys(["estimators", "meta", "model", "normal",
                                    "plots", "symmetry"], "module")
    assert version == "str"
    assert simulate == "sumnorm.simulate"
