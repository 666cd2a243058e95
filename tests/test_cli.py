import contextlib
import csv
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumnorm
from sumnorm.cli import main

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    for name in ("SUMNORM_ALPHA", "SUMNORM_SEED", "SUMNORM_KAPPA_C"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def leptin_csv(data_dir):
    return str(data_dir / "zhang2017_leptin.csv")


def _cells(line: str) -> list[str]:
    return re.split(r"\s{2,}", line.strip())


def _table_rows(stdout: str) -> list[list[str]]:
    lines = stdout.splitlines()
    return [_cells(line) for line in lines[2:] if line.strip()
            and not line.startswith(("csv:", "svg:", "report:", "isotonic",
                                     "warning:", "  excluded:"))]


class TestTestCommand:
    def test_exit_code_and_shape(self, capsys, leptin_csv):
        assert main(["test", leptin_csv]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert _cells(lines[0]) == ["study", "group", "n", "scenario",
                                    "statistic", "p", "decision"]
        rows = _table_rows(out)
        assert len(rows) == 26
        direct = [r for r in rows if r[3] == "direct"]
        assert len(direct) == 13
        assert all(r[4] == "NS" and r[5] == "NS" and r[6] == "-"
                   for r in direct)

    def test_representative_rows(self, capsys, leptin_csv):
        main(["test", leptin_csv])
        rows = {(r[0], r[1]): r for r in _table_rows(capsys.readouterr().out)}
        assert rows[("cobanoglu2013", "asthma")][3:] == [
            "S1", "3.022", "0.003", "reject"]
        assert rows[("leivo2011", "healthy")][3:] == [
            "S2", "2.205e-15", "1.000", "retain"]
        assert rows[("giouleka2011", "asthma")][5:] == ["<0.001", "reject"]
        assert rows[("dasilva2012", "asthma")][6] == "retain"

    def test_deterministic(self, capsys, leptin_csv):
        main(["test", leptin_csv])
        first = capsys.readouterr().out
        main(["test", leptin_csv])
        assert capsys.readouterr().out == first

    def test_alpha_flag_changes_decision(self, capsys, leptin_csv):
        # cobanoglu asthma has p ~ 0.0025: rejected at 0.05, retained at
        # a stricter cutoff
        main(["test", leptin_csv, "--alpha", "0.001"])
        rows = {(r[0], r[1]): r for r in _table_rows(capsys.readouterr().out)}
        assert rows[("cobanoglu2013", "asthma")][6] == "retain"

    def test_env_alpha_and_flag_precedence(self, capsys, monkeypatch,
                                           leptin_csv):
        monkeypatch.setenv("SUMNORM_ALPHA", "0.001")
        main(["test", leptin_csv])
        rows = {(r[0], r[1]): r for r in _table_rows(capsys.readouterr().out)}
        assert rows[("cobanoglu2013", "asthma")][6] == "retain"
        # an explicit flag beats the environment
        main(["test", leptin_csv, "--alpha", "0.05"])
        rows = {(r[0], r[1]): r for r in _table_rows(capsys.readouterr().out)}
        assert rows[("cobanoglu2013", "asthma")][6] == "reject"

    def test_json_input(self, capsys, tmp_path, data_dir, leptin_csv):
        with open(leptin_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        out = tmp_path / "leptin.json"
        out.write_text(json.dumps(rows), encoding="utf-8")
        assert main(["test", str(out)]) == 0
        from_json = capsys.readouterr().out
        main(["test", leptin_csv])
        from_csv = capsys.readouterr().out
        assert from_json == from_csv

    def test_violation_row_reported_not_fatal(self, capsys, tmp_path):
        header = ("study_id,outcome,arm,group_label,n,mean,sd,"
                  "min,q1,median,q3,max\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(header +
                       "a,o,case,case,12,,,,9,5,2,\n" +
                       "a,o,control,control,12,1,1,,,,,\n")
        assert main(["test", str(bad)]) == 0
        out = capsys.readouterr().out
        (case_row,) = [r for r in _table_rows(out) if r[1] == "case"]
        assert case_row[3] == "-"
        assert case_row[6].startswith("error: ordering violation")

    def test_overflowing_row_reported_as_error(self, capsys, tmp_path):
        # a + b overflows; the row used to print "nan  nan  retain"
        p = tmp_path / "huge.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n"
                     "a,o,case,case,20,,,1e308,,1.5e308,,1.7e308\n"
                     "a,o,control,control,20,1,1,,,,,\n")
        assert main(["test", str(p)]) == 0
        (case_row,) = [r for r in _table_rows(capsys.readouterr().out)
                       if r[1] == "case"]
        assert case_row[3:] == [
            "-", "-", "-", "error: statistic is nan: the summary values "
            "overflow the float range"]


class TestEstimateCommand:
    def test_estimated_and_reported_rows(self, capsys, leptin_csv):
        assert main(["estimate", leptin_csv]) == 0
        out = capsys.readouterr().out
        assert _cells(out.splitlines()[0]) == [
            "study", "group", "n", "scenario", "mean", "sd", "source"]
        rows = {(r[0], r[1]): r for r in _table_rows(out)}
        assert rows[("dasilva2012", "asthma")][3:] == [
            "S2", "43.005", "23.530", "estimated"]
        assert rows[("cobanoglu2013", "asthma")][3:] == [
            "S1", "7.672", "6.999", "estimated"]
        assert rows[("haidari2014", "asthma")][3:] == [
            "direct", "1.410", "0.500", "reported"]

    def test_overflowing_estimates_reported_as_error(self, capsys, tmp_path):
        # The first row's mean and the second row's SD overflow; they
        # used to print as inf.
        p = tmp_path / "huge.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n"
                     "huge,o,case,case,20,,,1e308,,1.5e308,,1.7e308\n"
                     "huge,o,control,control,20,1,1,,,,,\n"
                     "wide,o,case,case,20,,,-1.7e308,,0,,1.7e308\n"
                     "wide,o,control,control,20,1,1,,,,,\n")
        assert main(["estimate", str(p)]) == 0
        rows = {r[0]: r for r in _table_rows(capsys.readouterr().out)
                if r[1] == "case"}
        assert rows["huge"][3:] == [
            "-", "-", "-", "error: estimated mean is inf: the summary "
            "values overflow the float range"]
        assert rows["wide"][3:] == [
            "-", "-", "-", "error: estimated SD is inf: the summary "
            "values overflow the float range"]

    def test_deterministic(self, capsys, leptin_csv):
        main(["estimate", leptin_csv])
        first = capsys.readouterr().out
        main(["estimate", leptin_csv])
        assert capsys.readouterr().out == first


class TestMetaCommand:
    def test_two_outcome_run(self, capsys, tmp_path, data_dir):
        out_dir = tmp_path / "meta"
        code = main(["meta", str(data_dir / "zhang2017.csv"),
                     "--output-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^leptin: SMD 1\.420 \[", out, re.M)
        assert re.search(r"^adiponectin: SMD -0\.490 \[", out, re.M)
        assert "  excluded: " in out
        assert (out_dir / "forest_leptin.svg").is_file()
        assert (out_dir / "forest_adiponectin.svg").is_file()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["alpha"] == 0.05
        assert payload["model"] == "random"
        assert [o["outcome"] for o in payload["outcomes"]] == [
            "leptin", "adiponectin"]

    def test_banach_outcomes_and_files(self, capsys, tmp_path, data_dir):
        out_dir = tmp_path / "meta"
        assert main(["meta", str(data_dir / "banach2016.csv"),
                     "--output-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        for label in ("total cholesterol", "LDL-C", "HDL-C", "triglycerides"):
            assert f"{label}: SMD " in out
        names = sorted(p.name for p in out_dir.glob("forest_*.svg"))
        assert names == ["forest_hdl-c.svg", "forest_ldl-c.svg",
                         "forest_total-cholesterol.svg",
                         "forest_triglycerides.svg"]

    def test_colliding_slugs_keep_every_forest(self, capsys, tmp_path):
        # "LDL-C" and "LDL C" both slug to ldl-c; the later one gets -2.
        rows = [_HEADER]
        for outcome in ("LDL-C", "LDL C"):
            rows += [f"s,{outcome},case,case,20,5.0,2.0,,,,,",
                     f"s,{outcome},control,control,20,4.0,2.0,,,,,"]
        p = tmp_path / "ldl.csv"
        p.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "meta"
        assert main(["meta", str(p), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        names = sorted(f.name for f in out_dir.glob("forest_*.svg"))
        assert names == ["forest_ldl-c-2.svg", "forest_ldl-c.svg"]
        assert "LDL-C" in (out_dir / "forest_ldl-c.svg").read_text()
        assert "LDL C" in (out_dir / "forest_ldl-c-2.svg").read_text()

    def test_out_is_an_alias_of_output_dir(self, capsys, tmp_path, data_dir):
        dirs = (tmp_path / "long", tmp_path / "short")
        main(["meta", str(data_dir / "zhang2017.csv"),
              "--output-dir", str(dirs[0])])
        main(["meta", str(data_dir / "zhang2017.csv"), "--out", str(dirs[1])])
        capsys.readouterr()
        assert ((dirs[0] / "report.json").read_bytes()
                == (dirs[1] / "report.json").read_bytes())

    @pytest.mark.parametrize("command", ["meta", "simulate"])
    def test_out_is_a_declared_option(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--output-dir OUTPUT_DIR, --out OUTPUT_DIR" in \
            capsys.readouterr().out

    def test_flagged_rows_excluded_not_fatal(self, capsys, tmp_path):
        p = tmp_path / "flagged.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n"
                     "ok,o,case,case,20,5.0,2.0,,,,,\n"
                     "ok,o,control,control,20,4.0,2.0,,,,,\n"
                     "bad,o,case,case,40,,,,6,5,8,\n"
                     "bad,o,control,control,40,4.0,,,,,,\n")
        out_dir = tmp_path / "meta"
        assert main(["meta", str(p), "--output-dir", str(out_dir)]) == 0
        assert "  excluded: bad" in capsys.readouterr().out
        payload = json.loads((out_dir / "report.json").read_text())
        (bad,) = [s for s in payload["outcomes"][0]["studies"]
                  if s["study_id"] == "bad"]
        assert len(bad["exclusion_reasons"]) == 2

    @pytest.mark.parametrize("sd_a, sd_b", [("1e-9", "2"),
                                            ("1e-100", "2e-100")])
    def test_dominated_weight_pooled(self, capsys, tmp_path, sd_a, sd_b):
        # At sd 1e-9 study a's weight is about 2^57 times smaller than
        # b's, and the DerSimonian-Laird denominator cancelled to 0; at
        # 1e-100 each product of two weights underflows to 0.
        p = tmp_path / "dominated.csv"
        p.write_text("\n".join([_HEADER,
                                f"a,o,case,case,20,5,{sd_a},,,,,",
                                f"a,o,control,control,20,4,{sd_a},,,,,",
                                f"b,o,case,case,20,5,{sd_b},,,,,",
                                f"b,o,control,control,20,4,{sd_b},,,,,"])
                     + "\n")
        out_dir = tmp_path / "meta"
        assert main(["meta", str(p), "--output-dir", str(out_dir)]) == 0
        assert "included 2/2" in capsys.readouterr().out
        payload = json.loads((out_dir / "report.json").read_text(),
                             parse_constant=_reject_constant)
        (outcome,) = payload["outcomes"]
        assert [s["included"] for s in outcome["studies"]] == [True, True]
        assert outcome["pooled"]["tau_squared"] > 0

    def test_byte_deterministic_artifacts(self, capsys, tmp_path, data_dir):
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            main(["meta", str(data_dir / "zhang2017.csv"),
                  "--output-dir", str(d)])
        capsys.readouterr()
        for name in ("report.json", "forest_leptin.svg",
                     "forest_adiponectin.svg"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_fixed_model_flag(self, capsys, tmp_path, data_dir):
        out_dir = tmp_path / "meta"
        main(["meta", str(data_dir / "zhang2017.csv"), "--model", "fixed",
              "--output-dir", str(out_dir)])
        capsys.readouterr()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["model"] == "fixed"
        assert payload["outcomes"][0]["pooled"]["model"] == "fixed"


_HEADER = "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max"
_COLUMNS = ("mean", "sd", "min", "q1", "median", "q3", "max")
# Each row fills the columns of one reporting pattern, or all of them.
_PATTERNS = (("mean", "sd"), ("min", "median", "max"),
             ("q1", "median", "q3"), ("min", "q1", "median", "q3", "max"),
             _COLUMNS)
_NUMBERS = ["0", "1", "-1", "1e-9", "1e308", "-1e308"]
_MESSY = ["", "NS", "nan", "x"]


@st.composite
def _meta_csv(draw) -> str:
    # In half the files a reported cell may also be empty, NS or a value
    # the parser rejects; the other half reach the screen, the
    # estimators and the pooling more often, the more so when a row's
    # quantiles are drawn in order.  Two or four rows are one or two
    # case/control studies; a third row is a subgroup of study a.
    cell = st.sampled_from(_NUMBERS + _MESSY * draw(st.booleans()))
    rows = draw(st.integers(2, 4))
    lines = [_HEADER]
    for i in range(rows):
        study = "b" if rows == 4 and i >= 2 else "a"
        if rows == 3 and i == 2:
            arm = draw(st.sampled_from(["case", "control"]))
        else:
            arm = ("case", "control")[i % 2]
        n = str(draw(st.integers(1, 6)))
        fields = draw(st.sampled_from(_PATTERNS))
        row = {c: draw(cell) if c in fields else "" for c in _COLUMNS}
        if draw(st.booleans()):
            quantiles = [c for c in _COLUMNS[2:] if row[c] in _NUMBERS]
            values = sorted((row[c] for c in quantiles), key=float)
            row.update(zip(quantiles, values))
        lines.append(",".join([study, "o", arm, f"g{i}", n,
                               *(row[c] for c in _COLUMNS)]))
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report.json")


@settings(max_examples=150)
@given(_meta_csv())
def test_meta_never_crashes_on_generated_rows(text):
    # Any CSV ends in exit 0 or 2 without a traceback, and report.json,
    # when written, is strict JSON.
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "rows.csv"
        csv_path.write_text(text)
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["meta", str(csv_path), "--output-dir", str(out_dir)])
        assert code in (0, 2)
        report = out_dir / "report.json"
        if report.exists():
            json.loads(report.read_text(), parse_constant=_reject_constant)


class TestSimulateCommand:
    def test_type1_run(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--type1", "--scenario", "s1",
                     "--grid", "50,200", "--replicates", "2000",
                     "--seed", "4", "--output-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        rows = _table_rows(out)
        by_n = {r[0]: r for r in rows}
        assert by_n["50"][3] == "-"       # below the advisory band floor
        assert by_n["200"][3] == "ok"
        assert (out_dir / "type1_s1.csv").is_file()
        assert (out_dir / "type1_s1.svg").is_file()
        assert f"csv: {out_dir / 'type1_s1.csv'}" in out

    def test_power_run(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--power", "--scenario", "s2",
                     "--dist", "chisquare:1", "--grid", "50,100",
                     "--replicates", "500", "--seed", "3",
                     "--output-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "isotonic fit R2 " in out
        assert all(r[3] == "-" for r in _table_rows(out))
        assert (out_dir / "power_s2_chisquare-1.csv").is_file()
        assert (out_dir / "power_s2_chisquare-1.svg").is_file()

    @pytest.mark.parametrize("dist", ["lognormal:1000,1",
                                      "normal:1e308,1e308"])
    def test_overflowing_draws_exit_two(self, capsys, tmp_path, dist):
        out_dir = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--power", "--dist", dist,
                         "--scenario", "s1", "--grid", "10,50",
                         "--replicates", "200", "--seed", "1",
                         "--output-dir", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "at n=10: " in line and "not finite" in line
        assert list(out_dir.iterdir()) == []

    def test_exponent_sign_kept_in_file_names(self, capsys, tmp_path):
        for dist in ("exponential:1e300", "exponential:1e-300"):
            assert main(["simulate", "--power", "--dist", dist,
                         "--scenario", "s1", "--grid", "10",
                         "--replicates", "50", "--seed", "1",
                         "--output-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "power_s1_exponential-1e-300.csv",
            "power_s1_exponential-1e-300.svg",
            "power_s1_exponential-1e300.csv",
            "power_s1_exponential-1e300.svg"]

    def test_byte_deterministic_artifacts(self, capsys, tmp_path):
        dirs = (tmp_path / "a", tmp_path / "b")
        outputs = []
        for d in dirs:
            main(["simulate", "--type1", "--scenario", "s3",
                  "--grid", "50", "--replicates", "400", "--seed", "9",
                  "--output-dir", str(d)])
            outputs.append(capsys.readouterr().out.replace(str(d), "DIR"))
        assert outputs[0] == outputs[1]
        assert ((dirs[0] / "type1_s3.csv").read_bytes()
                == (dirs[1] / "type1_s3.csv").read_bytes())
        assert ((dirs[0] / "type1_s3.svg").read_bytes()
                == (dirs[1] / "type1_s3.svg").read_bytes())

    def test_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SUMNORM_SEED", "9")
        d = tmp_path / "env"
        assert main(["simulate", "--type1", "--scenario", "s3",
                     "--grid", "50", "--replicates", "400",
                     "--output-dir", str(d)]) == 0
        from_env = capsys.readouterr().out.replace(str(d), "DIR")
        monkeypatch.delenv("SUMNORM_SEED")
        d2 = tmp_path / "flag"
        main(["simulate", "--type1", "--scenario", "s3", "--grid", "50",
              "--replicates", "400", "--seed", "9", "--output-dir", str(d2)])
        from_flag = capsys.readouterr().out.replace(str(d2), "DIR")
        assert from_env == from_flag

    def test_kappa_env(self, capsys, tmp_path, monkeypatch):
        base_dir, env_dir = tmp_path / "base", tmp_path / "env"
        main(["simulate", "--type1", "--scenario", "s3", "--grid", "100",
              "--replicates", "400", "--seed", "2",
              "--output-dir", str(base_dir)])
        base = _table_rows(capsys.readouterr().out)
        monkeypatch.setenv("SUMNORM_KAPPA_C", "10.5")
        main(["simulate", "--type1", "--scenario", "s3", "--grid", "100",
              "--replicates", "400", "--seed", "2",
              "--output-dir", str(env_dir)])
        shifted = _table_rows(capsys.readouterr().out)
        # the larger constant deflates the statistic, so the rejection
        # rate cannot increase
        assert float(shifted[0][1]) <= float(base[0][1])


class TestDemoCommand:
    def test_default_pairs(self, capsys):
        assert main(["demo", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        rows = _table_rows(out)
        assert [r[0] for r in rows] == ["lognormal", "chisquare",
                                       "exponential", "beta", "weibull"]
        for r in rows:
            assert re.fullmatch(r"-?\d+\.\d{3}", r[4])
            assert re.fullmatch(r"-?\d+\.\d{3}", r[6])

    def test_pair_selection(self, capsys):
        assert main(["demo", "--pairs", "normal", "--seed", "42"]) == 0
        rows = _table_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0][1] == "normal(0,1)"
        assert rows[0][2] == "normal(1,1)"

    def test_deterministic(self, capsys):
        main(["demo", "--seed", "7"])
        first = capsys.readouterr().out
        main(["demo", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_seed_changes_output(self, capsys):
        main(["demo", "--seed", "7"])
        first = capsys.readouterr().out
        main(["demo", "--seed", "8"])
        assert capsys.readouterr().out != first


class TestErrorPaths:
    def _expect_config_error(self, capsys, argv, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err

    def test_missing_file(self, capsys):
        self._expect_config_error(capsys, ["test", "/nonexistent/x.csv"],
                                  "No such file")

    def test_header_only_file(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n")
        self._expect_config_error(capsys, ["test", str(p)], "no data rows")

    def test_malformed_row_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n"
                     "a,o,case,case,twelve,1,1,,,,,\n")
        self._expect_config_error(capsys, ["test", str(p)], "line 2")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line_and_column(self, capsys, tmp_path,
                                                   cell):
        p = tmp_path / "nan.csv"
        p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                     "min,q1,median,q3,max\n"
                     "a,o,case,case,12,1,1,,,,,\n"
                     f"a,o,control,control,12,{cell},1,,,,,\n")
        out_dir = tmp_path / "meta"
        self._expect_config_error(
            capsys, ["meta", str(p), "--output-dir", str(out_dir)],
            "line 3: column 'mean'")
        assert not (out_dir / "report.json").exists()

    def test_non_finite_json_cell_rejected(self, capsys, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('[{"study_id": "a", "outcome": "o", "arm": "case", '
                     '"n": 12, "mean": NaN, "sd": 1}]')
        self._expect_config_error(capsys, ["test", str(p)],
                                  "row 1: column 'mean'")

    def test_simulate_needs_seed(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--type1", "--scenario", "s1", "--grid", "50",
             "--replicates", "100", "--output-dir", str(tmp_path)],
            "seed is required")

    def test_demo_needs_seed(self, capsys):
        self._expect_config_error(capsys, ["demo"], "seed is required")

    @pytest.mark.parametrize("seed,fragment", [
        ("-1", "nonnegative"), ("abc", "integer")])
    def test_bad_seed(self, capsys, seed, fragment):
        self._expect_config_error(capsys, ["demo", "--seed", seed], fragment)

    @pytest.mark.parametrize("alpha,fragment", [
        ("1.5", "(0, 1)"), ("0", "(0, 1)"), ("abc", "number")])
    def test_bad_alpha_flag(self, capsys, leptin_csv, alpha, fragment):
        self._expect_config_error(
            capsys, ["test", leptin_csv, "--alpha", alpha], fragment)

    def test_bad_alpha_env(self, capsys, monkeypatch, leptin_csv):
        monkeypatch.setenv("SUMNORM_ALPHA", "nope")
        self._expect_config_error(capsys, ["test", leptin_csv], "number")

    @pytest.mark.parametrize("kappa,fragment", [
        ("9.9", "one of"), ("abc", "number")])
    def test_bad_kappa(self, capsys, leptin_csv, kappa, fragment):
        self._expect_config_error(
            capsys, ["test", leptin_csv, "--kappa-c", kappa], fragment)

    def test_bad_scenario(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--type1", "--scenario", "s4", "--seed", "1",
             "--output-dir", str(tmp_path)],
            "scenario must be")

    def test_bad_grid(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--type1", "--scenario", "s1", "--grid", "3,50",
             "--seed", "1", "--output-dir", str(tmp_path)],
            ">= 4")

    def test_non_numeric_grid(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--type1", "--scenario", "s1", "--grid", "a,b",
             "--seed", "1", "--output-dir", str(tmp_path)],
            "comma-separated integers")

    def test_zero_replicates(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--type1", "--scenario", "s1", "--grid", "50",
             "--replicates", "0", "--seed", "1",
             "--output-dir", str(tmp_path)],
            "positive")

    def test_power_needs_dist(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--power", "--scenario", "s1", "--seed", "1",
             "--output-dir", str(tmp_path)],
            "--dist")

    def test_bad_dist(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--power", "--scenario", "s1", "--dist", "cauchy:1",
             "--seed", "1", "--output-dir", str(tmp_path)],
            "unknown family")

    def test_unknown_pair(self, capsys):
        self._expect_config_error(capsys, ["demo", "--pairs", "cauchy",
                                           "--seed", "1"], "unknown pair")


class TestArgparseBehavior:
    @pytest.mark.parametrize("argv", [["--help"], ["test", "--help"],
                                      ["simulate", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_simulate_mode_is_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "s1", "--seed", "1"])
        assert exc.value.code == 2


@pytest.mark.skipif(shutil.which("sumnorm") is None,
                    reason="console script not installed")
def test_console_script(leptin_csv):
    proc = subprocess.run(["sumnorm", "test", leptin_csv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cobanoglu2013" in proc.stdout


def test_console_script_entry_is_cli_main():
    # Runs where the script above is not installed: the declared entry
    # point must name the CLI's main.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sumnorm"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main


def test_module_entry_point_exit_codes(leptin_csv, tmp_path, src_env):
    # ``python -m sumnorm.cli`` passes main()'s return code to the process.
    ok = subprocess.run([sys.executable, "-m", "sumnorm.cli", "test",
                         leptin_csv], env=src_env, capture_output=True,
                        text=True)
    assert ok.returncode == 0, ok.stderr
    assert "cobanoglu2013" in ok.stdout
    bad = tmp_path / "bad.csv"
    bad.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                   "min,q1,median,q3,max\n"
                   "a,o,case,case,twelve,1,1,,,,,\n")
    failed = subprocess.run([sys.executable, "-m", "sumnorm.cli", "test",
                             str(bad)], env=src_env, capture_output=True,
                            text=True)
    assert failed.returncode == 2
    assert failed.stdout == ""
    assert "error:" in failed.stderr


def test_runtime_imports_only_numpy_and_stdlib(src_env):
    # scipy, hypothesis and pytest are test oracles and tools, never
    # runtime dependencies of the library or the CLI.
    code = ("import sys, sumnorm, sumnorm.cli; "
            "print(sorted({'scipy', 'hypothesis', 'pytest'} "
            "& {m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
