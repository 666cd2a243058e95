"""The README's command transcripts and library section are checked.

Each ``$ sumnorm ...`` block must print what it shows, its fenced
``python`` example must run, and every lower-level name it lists must
resolve, so deleting a documented name fails here.
"""

import contextlib
import importlib
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sumnorm.cli import _SETTINGS, main

_ROOT = Path(__file__).resolve().parents[1]
_README = (_ROOT / "README.md").read_text(encoding="utf-8")

# (command line, the output lines shown under it)
_TRANSCRIPTS = [(m.group(1), m.group(2).splitlines())
                for m in re.finditer(r"```\n\$ sumnorm ([^\n]*)\n(.*?)```",
                                     _README, re.S)]


def _shown_output(lines: list[str]) -> str:
    # A "..." line stands for any number of omitted output lines.
    return "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                   for line in lines)


def test_every_command_has_a_transcript():
    assert sorted(cmd.split()[0] for cmd, _ in _TRANSCRIPTS) == [
        "demo", "estimate", "meta", "simulate", "test"]


@pytest.mark.parametrize("command, shown", _TRANSCRIPTS,
                         ids=[cmd.split()[0] for cmd, _ in _TRANSCRIPTS])
def test_command_transcript(command, shown, tmp_path, monkeypatch):
    # Run from a fresh directory holding the bundled data at the path
    # the README names, so output paths such as out/ print as shown.
    data = Path("src", "sumnorm", "data")
    shutil.copytree(_ROOT / data, tmp_path / data)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    assert re.fullmatch(_shown_output(shown), out.getvalue()), (
        out.getvalue())


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
            "normal.quartile_width", "estimators.estimate_mean_sd",
            "simulate.power_curve", "plots.forest_svg"} <= set(names)
    for dotted in names:
        module, name = dotted.split(".")
        mod = importlib.import_module(f"sumnorm.{module}")
        assert callable(getattr(mod, name, None)), dotted
        assert name in mod.__all__, dotted


def test_configuration_names_every_setting_variable():
    # A setting added to or deleted from the CLI shows here until the
    # README's Configuration section follows it.
    section = _README.split("### Configuration", 1)[1].split("\n#", 1)[0]
    assert set(re.findall(r"SUMNORM_[A-Z_]+", section)) == {
        env for env, *_ in _SETTINGS.values()}


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
