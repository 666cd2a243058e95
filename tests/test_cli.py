import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sumnorm
from sumnorm.cli import _SETTINGS, _dist_stem, _indented_json, main
from sumnorm.simulate import _FAMILIES, DistSpec

from strategies import NUMBERS, SIZES

pytestmark = pytest.mark.usefixtures("clean_env")


# flag name -> the SUMNORM_* variable it falls back to
_SETTING_ENV = {name.replace("_", "-"): env
                for name, (env, *_) in _SETTINGS.items()}


@pytest.fixture
def clean_env(monkeypatch):
    for name in _SETTING_ENV.values():
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

    def test_byte_order_mark_input(self, capsys, tmp_path, leptin_csv):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(leptin_csv).read_bytes())
        assert main(["test", str(marked)]) == 0
        from_marked = capsys.readouterr().out
        main(["test", leptin_csv])
        assert from_marked == capsys.readouterr().out

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


_HUGE_N = 10**17


def _huge_n_csv(tmp_path) -> Path:
    # Study "big" has an S1 group past n = 2**52; study "ok" is direct.
    p = tmp_path / "huge_n.csv"
    p.write_text("study_id,outcome,arm,group_label,n,mean,sd,"
                 "min,q1,median,q3,max\n"
                 f"big,o,case,case,{_HUGE_N},,,1,,2,,4\n"
                 "big,o,control,control,20,1,1,,,,,\n"
                 "ok,o,case,case,20,2,1,,,,,\n"
                 "ok,o,control,control,20,1,1,,,,,\n")
    return p


_HUGE_N_WORDS = (f"n={_HUGE_N} is too large for the expected normal range: "
                 "(n - 0.375)/(n + 0.25) rounds to 1 above n = 2**52")


class TestMetaCommand:
    def test_unrepresentable_n_excluded_in_words(self, capsys, tmp_path):
        # meta used to die in normal.extreme_width; it now excludes the
        # study with the words that test and estimate print.
        p = _huge_n_csv(tmp_path)
        out_dir = tmp_path / "meta"
        assert main(["meta", str(p), "--output-dir", str(out_dir)]) == 0
        assert "excluded: big" in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        (big,) = [s for s in report["outcomes"][0]["studies"]
                  if s["study_id"] == "big"]
        assert big["included"] is False
        assert big["exclusion_reasons"] == [f"group case: {_HUGE_N_WORDS}"]
        for command in ("test", "estimate"):
            assert main([command, str(p)]) == 0
            (case_row,) = [r for r in _table_rows(capsys.readouterr().out)
                           if r[0] == "big" and r[1] == "case"]
            assert case_row[-1] == f"error: {_HUGE_N_WORDS}"

    def test_alpha_below_double_epsilon(self, capsys, tmp_path, data_dir):
        assert main(["meta", str(data_dir / "zhang2017.csv"),
                     "--alpha", "1e-17",
                     "--output-dir", str(tmp_path)]) == 0
        assert "error" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("label", ["a\tb", "Müller 2019"])
    def test_tab_and_non_ascii_labels_run(self, capsys, tmp_path, label):
        p = tmp_path / "labels.csv"
        p.write_text("\n".join([_HEADER] + [
            f"{label},{label},{arm},{arm},20,,,1,3,5,7,9"
            for arm in ("case", "control")]) + "\n", encoding="utf-8")
        out_dir = tmp_path / "meta"
        for argv in (["test", str(p)], ["estimate", str(p)],
                     ["meta", str(p), "--output-dir", str(out_dir)]):
            assert main(argv) == 0, argv
        assert label.replace("\t", "\\t") in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["outcomes"][0]["outcome"] == label
        (svg,) = out_dir.glob("forest_*.svg")
        assert label in "".join(ET.parse(svg).getroot().itertext())

    @pytest.mark.parametrize("label", ["a\nb", "t\tb", "c\rd"])
    def test_control_whitespace_in_labels_printed_escaped(self, capsys,
                                                          tmp_path, label):
        # A quoted CSV label may hold a tab, line feed or carriage return.
        # Every command prints it as its escape, so no row splits over
        # two lines or shifts its columns; report.json keeps it as is.
        shown = (label.replace("\t", "\\t").replace("\n", "\\n")
                 .replace("\r", "\\r"))
        p = tmp_path / "labels.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_HEADER.split(","))
            for study, q1 in ((label, 3), ("plain", 3), (label + "!", 6)):
                for arm in ("case", "control"):  # q1 = 6 > median: refused
                    writer.writerow([study, label, arm, arm, 20, "", "", 1,
                                     q1, 5, 7, 9])
        for command in ("test", "estimate"):
            assert main([command, str(p)]) == 0
            header, rule, *rows = capsys.readouterr().out.splitlines()
            group_at = header.index("group")
            assert len(rule) >= group_at and len(rows) == 6
            studies = [row[:group_at].rstrip() for row in rows]
            assert studies == [s for s in (shown, "plain", shown + "!")
                               for _ in range(2)]
            assert [row[group_at:].split()[0] for row in rows] == \
                ["case", "control"] * 3
        out_dir = tmp_path / "meta"
        assert main(["meta", str(p), "--output-dir", str(out_dir)]) == 0
        pooled, excluded, report = capsys.readouterr().out.splitlines()
        assert pooled.startswith(f"{shown}: SMD ")
        assert excluded == f"  excluded: {shown}!"
        assert report.startswith("report: ")
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["outcomes"][0]["outcome"] == label

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
_MESSY = ["", "NS", "nan", "x"]
# A JSON integer literal of 300 to 5000 digits: past the float range
# from 309 digits, and past int()'s default digit limit (4300).
_HUGE = st.builds(lambda sign, lead, digits: f"{sign}{lead}{'0' * (digits - 1)}",
                  st.sampled_from(["", "-"]), st.integers(1, 9),
                  st.integers(300, 5000))
_JSON_MESSY = ["null", '""', '"NS"', '"nan"', '"x"']


@st.composite
def _meta_rows(draw, number, size, messy) -> list:
    # In half the files a reported cell may also be ``messy``: empty, NS
    # or a value the parser rejects; the other half reach the screen,
    # the estimators and the pooling more often, the more so when a
    # row's quantiles are drawn in order.  Two or four rows are one or
    # two case/control studies; a third row is a subgroup of study a.
    # Each row is (study, arm, n, cells), its unreported cells "".
    cell = (st.one_of(number, st.sampled_from(messy))
            if draw(st.booleans()) else number)
    rows = draw(st.integers(2, 4))
    out = []
    for i in range(rows):
        study = "b" if rows == 4 and i >= 2 else "a"
        if rows == 3 and i == 2:
            arm = draw(st.sampled_from(["case", "control"]))
        else:
            arm = ("case", "control")[i % 2]
        n = draw(size)
        fields = draw(st.sampled_from(_PATTERNS))
        row = {c: draw(cell) if c in fields else "" for c in _COLUMNS}
        if draw(st.booleans()):
            quantiles = [c for c in _COLUMNS[2:]
                         if row[c] not in (*messy, "")]
            values = sorted((row[c] for c in quantiles), key=float)
            row.update(zip(quantiles, values))
        out.append((study, arm, n, row))
    return out


def _csv_text(rows) -> str:
    return "\n".join([_HEADER, *(
        ",".join([study, "o", arm, f"g{i}", n, *(row[c] for c in _COLUMNS)])
        for i, (study, arm, n, row) in enumerate(rows))]) + "\n"


def _json_text(rows) -> str:
    # By hand, so that the numbers are JSON number literals of any size.
    return "[" + ",\n".join(
        f'{{"study_id": "{study}", "outcome": "o", "arm": "{arm}", '
        f'"group_label": "g{i}", "n": {n}'
        + "".join(f', "{c}": {v}' for c, v in row.items() if v) + "}"
        for i, (study, arm, n, row) in enumerate(rows)) + "]\n"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report.json")


# Two direct studies whose weights are about 2^57 apart, which the
# generated rows do not reach; meta.pool's tau^2 denominator once
# cancelled to 0 on them.
_DOMINATED_CSV = "\n".join([_HEADER, "a,o,case,g0,20,5,1e-9,,,,,",
                            "a,o,control,g1,20,4,1e-9,,,,,",
                            "b,o,case,g2,20,5,2,,,,,",
                            "b,o,control,g3,20,4,2,,,,,"]) + "\n"


def _meta_exits_cleanly(text, name):
    # The file ends in exit 0 or 2 without a traceback; report.json,
    # when written, is strict JSON in the stdlib's indent=2 layout, and
    # every forest SVG is well-formed XML.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["meta", str(path), "--output-dir", str(out_dir)])
        assert code in (0, 2)
        report = out_dir / "report.json"
        if report.exists():
            text = report.read_text()
            payload = json.loads(text, parse_constant=_reject_constant)
            assert text == json.dumps(payload, indent=2,
                                      allow_nan=False) + "\n"
        for svg in out_dir.glob("forest_*.svg"):
            ET.parse(svg)


@settings(max_examples=150)
@given(_meta_rows(NUMBERS, SIZES.map(str), _MESSY).map(_csv_text))
@example(_DOMINATED_CSV)
def test_meta_never_crashes_on_generated_rows(text):
    _meta_exits_cleanly(text, "rows.csv")


@settings(max_examples=150)
@given(_meta_rows(st.one_of(NUMBERS, _HUGE),
                  st.one_of(SIZES.map(str), _HUGE), _JSON_MESSY).map(_json_text))
def test_meta_never_crashes_on_generated_json_rows(text):
    # The same rows as JSON numbers, some of them integers too large for
    # a float or for int()'s digit limit.
    _meta_exits_cleanly(text, "rows.json")


@settings(max_examples=50)
@given(NUMBERS)
def test_any_alpha_text_exits_zero_or_two(data_dir, alpha):
    # Every command that takes --alpha runs at any level whose half is a
    # positive float below 1/2, and refuses any other in one line.  The
    # leptin file has no group that a usable level could turn into an
    # error row.
    usable = 0.0 < float(alpha) / 2.0 and float(alpha) < 1.0
    leptin = str(data_dir / "zhang2017_leptin.csv")
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["test", leptin], ["meta", leptin, "--output-dir", tmp],
                     ["simulate", "--type1", "--scenario", "s3",
                      "--grid", "4,10", "--replicates", "50", "--seed", "1",
                      "--output-dir", tmp]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([*argv, f"--alpha={alpha}"])
            assert code == (0 if usable else 2), argv
            if code == 2:
                (line,) = err.getvalue().splitlines()
                assert line.startswith("error: alpha must "), argv
            else:
                assert "error:" not in out.getvalue(), argv


# JSON leaves: ints past 2**63, floats at the repr edges, and text with
# quotes, backslashes, control characters and lone surrogates.
_JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                               st.sampled_from('"\\\x00\x1f\x7f\ud800\udfff'
                                               '\u2028\xe9')))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**63 - 2, 2**200), st.integers(-2**200, -2**63 + 2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308]),
    _JSON_TEXT)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_JSON_TEXT, children,
                                               max_size=4)),
    max_leaves=24)


@st.composite
def _json_holding(draw, leaf):
    """A JSON tree that holds a ``leaf`` at a drawn depth and position."""
    tree = draw(leaf)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            siblings = draw(st.lists(_JSON, max_size=2))
            at = draw(st.integers(0, len(siblings)))
            tree = [*siblings[:at], tree, *siblings[at:]]
        else:
            tree = {**draw(st.dictionaries(_JSON_TEXT, _JSON, max_size=2)),
                    draw(_JSON_TEXT): tree}
    return tree


@settings(max_examples=300)
@given(_JSON)
def test_indented_json_writes_the_stdlib_bytes(obj):
    assert _indented_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@settings(max_examples=100)
@given(_json_holding(st.sampled_from([float("nan"), float("inf"),
                                      float("-inf")])))
def test_indented_json_refuses_non_finite_floats(obj):
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _indented_json(obj)


@settings(max_examples=50)
@given(_json_holding(st.sets(st.integers(), max_size=2)))
def test_indented_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        _indented_json(obj)


# Parameters that differ only in sign, decimal point, exponent sign or
# the seventh significant digit, and any finite float.  Each example is
# a list of one family's specs, long enough to hold such pairs.
_PARAMS = st.one_of(st.sampled_from([-1.0, 1.0, 1.5, 2.0, 5.2, 15.0,
                                     1.0000001, 1e300, 1e-300, -1e-300]),
                    st.floats(allow_nan=False, allow_infinity=False))


def _specs_of(family):
    arity, positive, *_ = _FAMILIES[family]
    return st.tuples(*(_PARAMS.filter(lambda p: p > 0) if i in positive
                       else _PARAMS for i in range(arity))).map(
        lambda params: DistSpec(family, params))


_SPEC_LISTS = st.sampled_from(sorted(_FAMILIES)).flatmap(
    lambda family: st.lists(_specs_of(family), min_size=16, max_size=32))


# simulate flag texts: (accepted, refused).  A run on the sort path (a
# --power --dist without a closed-form quantile) sorts whole samples, so
# only the spacings path, whose draws do not grow with n, gets a large n.
_SIMULATE_TEXTS = {
    "scenario": (["s1", "s2", "s3", " S3"], ["s4", ""]),
    "replicates": (["1", "2", "17", "30"], ["0", "-3"]),
    "dist": (["1", "3", "+2.5", "0.5"],  # parameters
             ["0", "-1", "1e308", "-1e308", "nan", "inf", "-inf"]),
    "grid": (["4", "5", "9", "16", "40"],  # sizes
             ["3", "0", "-5", "2.5", "1e3", "", "x"]),
    "alpha": (["0.05", "0.2", "1e-300"],
              ["1", "0", "-0.1", "5e-324", "nan", "nope"]),
    "seed": (["0", "7", str(10**30)], ["-1", "1.5", "x"]),
}
_LARGE_SIZES = [str(10**9), str(2**52 + 1), str(10**17), str(10**30)]


def _sorts_samples(dist_text: str) -> bool:
    try:
        dist = DistSpec.parse(dist_text)
    except ValueError:
        return False  # refused before any draw
    return _FAMILIES[dist.family][3](dist.params) is None


@settings(max_examples=150)
@given(st.data())
def test_simulate_never_crashes_on_generated_arguments(data):
    # Exit 0, or exit 2 with one error line and no output directory.  At
    # most one flag, ``odd``, draws refused texts too, so that most runs
    # reach the curve.
    odd = data.draw(st.sampled_from([None, None, "mode", *_SIMULATE_TEXTS]))

    def texts(flag, extra=()):
        accepted, refused = _SIMULATE_TEXTS[flag]
        return st.sampled_from(accepted + list(extra)
                               + (refused if flag == odd else []))

    power = data.draw(st.booleans())
    argv = ["simulate", "--power" if power else "--type1",
            "--scenario=" + data.draw(texts("scenario")),
            "--replicates=" + data.draw(texts("replicates"))]
    dist = None
    if power != (odd == "mode"):
        family = data.draw(st.sampled_from(sorted(_FAMILIES) + (
            ["cauchy"] if odd == "dist" else [])))
        arity = (data.draw(st.integers(1, 3)) if odd == "dist"
                 else _FAMILIES[family][0])
        dist = family + ":" + ",".join(data.draw(st.lists(
            texts("dist"), min_size=arity, max_size=arity)))
        argv.append(f"--dist={dist}")
    large = [] if power and dist and _sorts_samples(dist) else _LARGE_SIZES
    grid = data.draw(st.none() | st.lists(texts("grid", large), min_size=1,
                                          max_size=3))
    if grid is not None:
        argv.append("--grid=" + ",".join(grid))
    env = {}
    for flag, name in _SETTING_ENV.items():
        where = data.draw(st.sampled_from(
            ["flag", "env", "both"] + (["neither"] if flag != "seed"
                                       or odd == "seed" else [])))
        if where in ("flag", "both"):
            argv.append(f"--{flag}={data.draw(texts(flag))}")
        if where == "env":
            env[name] = data.draw(texts(flag))
        elif where == "both":  # not read: the flag comes first
            env[name] = data.draw(st.sampled_from(
                sum(_SIMULATE_TEXTS[flag], [])))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, env):
        out_dir = Path(tmp) / "sim"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--output-dir", str(out_dir)])
        assert code in (0, 2)
        if code == 2:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not out_dir.exists()
        else:
            assert err.getvalue() == ""


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

    def test_type1_band_scales_with_alpha(self, capsys, tmp_path):
        # The band is alpha +- 40%; at alpha = 0.01 these rates used to
        # be flagged against the fixed [0.03, 0.07].
        assert main(["simulate", "--type1", "--scenario", "s2",
                     "--grid", "200,1000", "--replicates", "20000",
                     "--seed", "1", "--alpha", "0.01",
                     "--output-dir", str(tmp_path)]) == 0
        rows = _table_rows(capsys.readouterr().out)
        assert [r[3] for r in rows] == ["ok", "ok"]

    def test_type1_band_edges_at_default_alpha(self, capsys, tmp_path,
                                               monkeypatch):
        # Rates of exactly 0.03 and 0.07 are inside; 1.4 * 0.05 is one
        # ulp below 0.07, so the band must not be computed that way.
        from sumnorm import simulate

        def curve(scenario, dist, n_grid, replicates, alpha, seed):
            return simulate.ExperimentResult(
                scenario=scenario, dist=dist, n_grid=(100, 200, 300, 400, 500),
                rates=(0.5, 0.03, 0.07, 0.0299, 0.0701), ses=(0.0,) * 5,
                replicates=replicates, alpha=alpha, seed=seed)

        monkeypatch.setattr(simulate, "power_curve", curve)
        assert main(["simulate", "--type1", "--scenario", "s1",
                     "--seed", "1", "--output-dir", str(tmp_path)]) == 0
        rows = _table_rows(capsys.readouterr().out)
        assert [r[3] for r in rows] == [
            "-", "ok", "ok", "outside [0.03, 0.07]", "outside [0.03, 0.07]"]

    def test_alpha_below_double_epsilon(self, capsys, tmp_path):
        # 1 - alpha/2 rounds to 1 here; the threshold is still finite.
        assert main(["simulate", "--type1", "--scenario", "s1",
                     "--grid", "10", "--replicates", "10", "--seed", "1",
                     "--alpha", "1e-17", "--output-dir", str(tmp_path)]) == 0
        rows = _table_rows(capsys.readouterr().out)
        assert [r[1] for r in rows] == ["0.0000"]

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
        assert not out_dir.exists()

    def test_sort_path_sample_past_memory_exits_two(self, capsys, tmp_path):
        # chisquare(3) has no closed-form quantile, so each replicate
        # sorts a whole sample: 10**17 values ask for 711 PiB at once,
        # which numpy refuses without allocating.
        out_dir = tmp_path / "sim"
        n = 10**17
        code = main(["simulate", "--power", "--dist", "chisquare:3",
                     "--scenario", "s1", "--grid", str(n),
                     "--replicates", "10", "--seed", "1",
                     "--output-dir", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: chisquare(3) at n={n}: ")
        assert not out_dir.exists()

    def test_exponent_sign_kept_in_file_names(self, capsys, tmp_path):
        # So are a parameter's sign and decimal point: normal:-1,1 and
        # normal:1,1, or normal:1.5,2 and normal:1,5.2, get their own files.
        for dist in ("exponential:1e300", "exponential:1e-300",
                     "normal:-1,1", "normal:1,1", "normal:1.5,2",
                     "normal:1,5.2"):
            assert main(["simulate", "--power", "--dist", dist,
                         "--scenario", "s1", "--grid", "10",
                         "--replicates", "50", "--seed", "1",
                         "--output-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "power_s1_exponential-1e-300.csv",
            "power_s1_exponential-1e-300.svg",
            "power_s1_exponential-1e300.csv",
            "power_s1_exponential-1e300.svg",
            "power_s1_normal-1-1.csv", "power_s1_normal-1-1.svg",
            "power_s1_normal-1-5p2.csv", "power_s1_normal-1-5p2.svg",
            "power_s1_normal-1p5-2.csv", "power_s1_normal-1p5-2.svg",
            "power_s1_normal-m1-1.csv", "power_s1_normal-m1-1.svg"]

    def test_integer_parameters_keep_their_stems(self, capsys, tmp_path):
        # The names the bundled benchmark looks for: the --dist text with
        # every run of other characters turned into one "-".
        for dist in ("lognormal:0,1", "exponential:1", "beta:1,5",
                     "chisquare:1", "weibull:2,1", "normal:1234567,10"):
            assert main(["simulate", "--power", "--dist", dist,
                         "--scenario", "s2", "--grid", "10",
                         "--replicates", "50", "--seed", "1",
                         "--output-dir", str(tmp_path)]) == 0
            family, _, params = dist.partition(":")
            name = re.sub(r"[^a-z0-9]+", "-", f"{family}({params})")
            assert (tmp_path / f"power_s2_{name.strip('-')}.csv").is_file()

    @settings(max_examples=50)
    @given(_SPEC_LISTS)
    def test_distinct_specs_get_distinct_stems(self, specs):
        distinct = set(specs)
        assert len({_dist_stem(spec) for spec in distinct}) == len(distinct)

    @settings(max_examples=25)
    @given(st.lists(NUMBERS, min_size=2, max_size=2))
    def test_power_at_float_edge_parameters(self, params):
        # Every family with the same parameters: exit 0 with rates in
        # [0, 1], or exit 2 with one error line and no files.
        for family, (arity, *_) in sorted(_FAMILIES.items()):
            dist = f"{family}:{','.join(params[:arity])}"
            with tempfile.TemporaryDirectory() as tmp:
                out_dir = Path(tmp) / "sim"
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(["simulate", "--power", "--dist", dist,
                                 "--scenario", "s3", "--grid", "4,10",
                                 "--replicates", "50", "--seed", "1",
                                 "--output-dir", str(out_dir)])
                assert code in (0, 2), dist
                if code == 2:
                    (line,) = err.getvalue().splitlines()
                    assert line.startswith("error: "), dist
                    assert not out_dir.exists(), dist
                else:
                    rates = [float(r[1]) for r in _table_rows(out.getvalue())]
                    assert len(rates) == 2
                    assert all(0.0 <= r <= 1.0 for r in rates), dist

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
        ("1.5", "(0, 1)"), ("0", "(0, 1)"), ("abc", "number"),
        ("5e-324", "alpha/2 > 0")])
    def test_bad_alpha_flag(self, capsys, leptin_csv, alpha, fragment):
        self._expect_config_error(
            capsys, ["test", leptin_csv, "--alpha", alpha], fragment)

    @pytest.mark.parametrize("command", ["test", "estimate", "meta"])
    def test_not_utf8_input(self, capsys, tmp_path, command):
        p = tmp_path / "latin1.csv"
        p.write_bytes("study_id,outcome,arm,group_label,n,mean,sd,"
                      "min,q1,median,q3,max\n"
                      "caf\xe9,o,case,case,12,1,1,,,,,\n".encode("latin-1"))
        argv = [command, str(p)]
        if command == "meta":
            argv += ["--output-dir", str(tmp_path / "meta")]
        self._expect_config_error(capsys, argv, f"{p}: not UTF-8 text")

    @pytest.mark.parametrize("command", ["test", "estimate", "meta"])
    @pytest.mark.parametrize("column,literal,fragment", [
        ("min", "1" + "0" * 400, "row 1: column 'min' holds 1000"),
        ("n", "1" + "0" * 400, "row 1: column 'n' holds 1000"),
        ("min", "1" + "0" * 5000, "an integer literal has more digits"),
        ("min", "[" * 100_000 + "]" * 100_000, "nested too deeply")],
        ids=["min-401-digits", "n-401-digits", "min-5001-digits", "nested"])
    def test_json_number_python_cannot_read_refused(
            self, capsys, tmp_path, command, column, literal, fragment):
        # An integer past the float range raised OverflowError, one past
        # int()'s digit limit ValueError, and deep nesting RecursionError.
        # The digit limit's own wording differs between versions, so the
        # message does not quote it.
        row = {"n": "20", "min": "1", "median": "2", "max": "4",
               column: literal}
        p = tmp_path / "huge.json"
        p.write_text('[{"study_id": "a", "outcome": "o", "arm": "case"'
                     + "".join(f', "{k}": {v}' for k, v in row.items())
                     + "}]")
        argv = [command, str(p)]
        if command == "meta":
            argv += ["--output-dir", str(tmp_path / "meta")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and fragment in line

    @pytest.mark.parametrize("command", ["test", "estimate", "meta"])
    def test_json_true_and_false_cells_refused(self, capsys, tmp_path,
                                               command):
        # "n": true, "mean": true, "sd": false read as n = 1, mean 1.0
        # and SD 0.0, and the run exited 0.
        p = tmp_path / "flags.json"
        p.write_text(json.dumps([
            {"study_id": "a", "outcome": "o", "arm": arm, "n": True,
             "mean": True, "sd": False} for arm in ("case", "control")]))
        argv = [command, str(p)]
        if command == "meta":
            argv += ["--output-dir", str(tmp_path / "meta")]
        self._expect_config_error(
            capsys, argv, f"error: {p}:row 1: column 'n' holds True, "
                          f"expected a number")

    @pytest.mark.parametrize("command", ["test", "estimate", "meta"])
    @pytest.mark.parametrize("name,column", [("ctl.csv", "study_id"),
                                             ("surrogate.json", "outcome")])
    def test_unwritable_label_refused(self, capsys, tmp_path, command, name,
                                      column):
        # A C0 control character made the forest SVG ill-formed, and a lone
        # surrogate crashed the SVG write; both are refused on input.
        p = tmp_path / name
        if name.endswith(".csv"):
            p.write_text(_HEADER + "\n" + "".join(
                f"a\x01b,o,{arm},{arm},20,,,1,3,5,7,9\n"
                for arm in ("case", "control")))
        else:
            p.write_text(json.dumps([
                {"study_id": "a", "outcome": "o\ud800", "arm": arm, "n": 20,
                 "min": 1, "median": 5, "max": 9}
                for arm in ("case", "control")]))
        out_dir = tmp_path / "meta"
        argv = [command, str(p)]
        if command == "meta":
            argv += ["--output-dir", str(out_dir)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {p}:")
        assert f"column {column!r}" in line
        assert not out_dir.exists()

    def test_bad_alpha_env(self, capsys, monkeypatch, leptin_csv):
        monkeypatch.setenv("SUMNORM_ALPHA", "nope")
        self._expect_config_error(capsys, ["test", leptin_csv], "number")

    @pytest.mark.parametrize("command,declared", [
        ("test", {"alpha"}), ("estimate", set()), ("meta", {"alpha"}),
        ("simulate", {"alpha", "seed"}), ("demo", {"seed"})])
    # No command reads SUMNORM_KAPPA_C, the S3 constant's former
    # setting, so a stale value is ignored everywhere.
    @pytest.mark.parametrize("setting,name,text,fragment", [
        ("alpha", "SUMNORM_ALPHA", "nope", "alpha must be a number"),
        ("kappa_c", "SUMNORM_KAPPA_C", "9", None),
        ("seed", "SUMNORM_SEED", "-1", "seed must be nonnegative")])
    def test_env_read_only_by_commands_that_declare_it(
            self, capsys, monkeypatch, tmp_path, leptin_csv, command,
            declared, setting, name, text, fragment):
        argv = {"test": ["test", leptin_csv],
                "estimate": ["estimate", leptin_csv],
                "meta": ["meta", leptin_csv, "--output-dir", str(tmp_path)],
                "simulate": ["simulate", "--type1", "--scenario", "s1",
                             "--grid", "10", "--replicates", "10",
                             "--output-dir", str(tmp_path)],
                "demo": ["demo", "--pairs", "normal"]}[command]
        monkeypatch.setenv("SUMNORM_SEED", "1")
        monkeypatch.setenv(name, text)
        if setting in declared:
            self._expect_config_error(capsys, argv, fragment)
        else:
            assert main(argv) == 0
            assert capsys.readouterr().err == ""

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

    def test_type1_refuses_dist(self, capsys, tmp_path):
        # --type1 used to drop --dist and run the normal null.
        out_dir = tmp_path / "out"
        assert main(["simulate", "--type1", "--scenario", "s1", "--dist",
                     "lognormal:0,1", "--seed", "1",
                     "--output-dir", str(out_dir)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("error: --type1 runs the normal null; --dist goes "
                        "with --power only")
        assert not out_dir.exists()

    def test_bad_dist(self, capsys, tmp_path):
        self._expect_config_error(
            capsys,
            ["simulate", "--power", "--scenario", "s1", "--dist", "cauchy:1",
             "--seed", "1", "--output-dir", str(tmp_path)],
            "unknown family")

    def test_unknown_pair(self, capsys):
        self._expect_config_error(capsys, ["demo", "--pairs", "cauchy",
                                           "--seed", "1"], "unknown pair")
        self._expect_config_error(capsys, ["demo", "--pairs", ",",
                                           "--seed", "1"],
                                  "--pairs must name at least one pair")


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

    def test_main_calls_share_one_parser(self, monkeypatch, capsys,
                                         leptin_csv):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["test", leptin_csv]) == 0
        assert main(["estimate", leptin_csv]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_kept_parser_prints_what_a_fresh_one_does(self, src_env,
                                                      leptin_csv):
        # A refused argv, then a good one and --help, in one process,
        # against each argv alone in a fresh process: the same exit
        # codes, stdout and stderr.
        code = ("import contextlib, io, json, sys\n"
                "from sumnorm.cli import main\n"
                "runs = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    out, err = io.StringIO(), io.StringIO()\n"
                "    with contextlib.redirect_stdout(out), \\\n"
                "            contextlib.redirect_stderr(err):\n"
                "        try:\n"
                "            status = main(argv)\n"
                "        except SystemExit as exc:\n"
                "            status = exc.code\n"
                "    runs.append([status, out.getvalue(), err.getvalue()])\n"
                "print(json.dumps(runs))\n")

        def run(argvs):
            proc = subprocess.run([sys.executable, "-c", code,
                                   json.dumps(argvs)], env=src_env,
                                  capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)

        argvs = [["simulate", "--scenario", "s1", "--seed", "1"],
                 ["test", leptin_csv], ["--help"]]
        together = run(argvs)
        assert [status for status, _, _ in together] == [2, 0, 0]
        assert together[0][2].startswith("usage: sumnorm simulate")
        assert together == [run([argv])[0] for argv in argvs]


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


def test_version_read_from_package():
    # The package's __version__ is the one place the version is written.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "sumnorm.__version__"}


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


def test_runtime_imports_only_numpy_and_stdlib(src_env, data_dir,
                                               tmp_path):
    # scipy, hypothesis and pytest are test oracles and tools, never
    # runtime dependencies of the library or the CLI.  numpy is loaded
    # by simulate alone: importing the CLI and running test, estimate
    # and meta leave it out of a fresh interpreter.
    csv_path = str(data_dir / "zhang2017.csv")
    runs = [["test", csv_path], ["estimate", csv_path],
            ["meta", csv_path, "--output-dir", str(tmp_path / "meta")],
            ["simulate", "--type1", "--scenario", "s1", "--grid", "10",
             "--replicates", "50", "--seed", "1",
             "--output-dir", str(tmp_path / "sim")]]
    code = ("import json, sys, sumnorm.cli\n"
            "def loaded():\n"
            "    return sorted({'numpy', 'scipy', 'hypothesis', 'pytest'}\n"
            "                  & {m.split('.')[0] for m in sys.modules})\n"
            "seen = [['import', 0, loaded()]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([argv[0], sumnorm.cli.main(argv), loaded()])\n"
            "print(json.dumps(seen))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import", 0, []], ["test", 0, []], ["estimate", 0, []],
        ["meta", 0, []], ["simulate", 0, ["numpy"]]]
