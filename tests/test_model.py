import builtins
import csv
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumnorm.model import (CSV_COLUMNS, SCENARIO_FIELDS, SUMMARY_FIELDS,
                           GroupRecord, QuantileSummary, Scenario,
                           SummaryDataError, UnsupportedSummaryError,
                           classify_scenario, parse_studies, pooled_moments,
                           validate)
from sumnorm.model import _unwritable_at
from sumnorm.symmetry import run_test


def _group(n=20, mean=None, sd=None, **quantiles):
    summary = None
    if quantiles:
        summary = QuantileSummary(**quantiles)
    return GroupRecord(study_id="s", group_label="g", arm="case", n=n,
                       reported_mean=mean, reported_sd=sd, summary=summary)


class TestClassifyScenario:
    def test_direct(self):
        assert classify_scenario(_group(mean=1.0, sd=2.0)) is Scenario.DIRECT

    def test_s1(self):
        g = _group(median=5.3, min=0.4, max=27.4)
        assert classify_scenario(g) is Scenario.S1

    def test_s2(self):
        g = _group(median=38, q1=30, q3=60)
        assert classify_scenario(g) is Scenario.S2

    def test_s3(self):
        g = _group(median=6, min=0, q1=2, q3=10, max=20)
        assert classify_scenario(g) is Scenario.S3

    @pytest.mark.parametrize("scenario", list(SCENARIO_FIELDS))
    def test_table_fields_at_the_smallest_n_are_the_scenario(self, scenario):
        fields, n_min = SCENARIO_FIELDS[scenario]
        g = _group(n=n_min, **{name: float(i) for i, name in enumerate(fields)})
        assert classify_scenario(g) is scenario
        assert run_test(g).scenario is scenario

    def test_both_forms_refused(self):
        # Moments and a summary together break an invariant; neither wins.
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20,
                        reported_mean=1.0, reported_sd=2.0,
                        summary=QuantileSummary(median=1.0, q1=0.5, q3=1.5))
        with pytest.raises(UnsupportedSummaryError) as exc:
            classify_scenario(g)
        assert str(exc.value) == "; ".join(validate(g))
        assert "exactly one form" in str(exc.value)

    def test_median_only_unsupported(self):
        g = _group(median=5.0)
        with pytest.raises(UnsupportedSummaryError, match="matches no scenario"):
            classify_scenario(g)

    def test_lopsided_summary_unsupported(self):
        g = _group(median=5.0, min=1.0, q1=3.0)
        with pytest.raises(UnsupportedSummaryError) as exc:
            classify_scenario(g)
        # the error names what is missing
        assert "q3" in str(exc.value) and "max" in str(exc.value)

    def test_nothing_at_all(self):
        g = _group()
        with pytest.raises(UnsupportedSummaryError, match="neither"):
            classify_scenario(g)


class TestValidate:
    def test_clean_record(self):
        assert validate(_group(median=5.0, q1=3.0, q3=8.0)) == []

    def test_bad_n(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=0,
                        reported_mean=1.0, reported_sd=1.0)
        assert any("positive" in v for v in validate(g))
        # Neither message may format n, whose str() fails past 4300
        # digits: run_pipeline excluded such a study with that failure.
        for n in (-1, -10**400, -10**5000):
            g = _group(n=n, median=2.0, min=1.0, max=3.0)
            assert validate(g) == ["n must be a positive integer"]
            with pytest.raises(UnsupportedSummaryError,
                               match="n must be a positive integer"):
                run_test(g)
        # An n past the float range made run_test raise OverflowError.
        for n in (10**400, 10**5000):
            g = _group(n=n, median=2.0, min=1.0, max=3.0)
            assert validate(g) == ["n overflows the float range"]
            with pytest.raises(UnsupportedSummaryError,
                               match="n overflows the float range"):
                run_test(g)

    def test_bad_arm(self):
        g = GroupRecord(study_id="s", group_label="g", arm="treated", n=5,
                        reported_mean=1.0, reported_sd=1.0)
        assert any("arm" in v for v in validate(g))

    def test_negative_sd(self):
        g = _group(mean=1.0, sd=-0.5)
        assert any("nonnegative" in v for v in validate(g))
        # No message may format a number float() cannot hold, whose str()
        # fails past 4300 digits.
        for sd in (-10**400, -10**5000):
            assert validate(_group(mean=1.0, sd=sd)) == [
                "sd overflows the float range"]
        assert validate(_group(mean=10**5000, sd=1.0)) == [
            "mean overflows the float range"]

    def test_both_forms_flagged(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20,
                        reported_mean=1.0, reported_sd=2.0,
                        summary=QuantileSummary(median=1.0, q1=0.5, q3=1.5))
        assert any("exactly one form" in v for v in validate(g))

    def test_ordering_violation(self):
        g = _group(median=5.0, q1=6.0, q3=8.0)
        assert any("ordering violation" in v for v in validate(g))
        # A minimum above its median that float() cannot hold is refused
        # without the ordering message, which would format it.
        g = _group(median=5, min=10**5000, max=10**5000)
        assert validate(g) == ["the summary values overflow the float range"]

    def test_quartiles_need_n4(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=3,
                        summary=QuantileSummary(median=5.0, q1=3.0, q3=8.0))
        assert any("n >= 4" in v for v in validate(g))

    def test_missing_median_flagged(self):
        # The parser refuses such a row; a hand-built one must be refused too.
        g = _group(median=None, min=1.0, max=3.0)
        assert validate(g) == ["quantile summary has no median"]
        with pytest.raises(UnsupportedSummaryError, match="no median"):
            run_test(g)

    def test_extremes_need_n2(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=1,
                        summary=QuantileSummary(median=5.0, min=3.0, max=8.0))
        assert any("n >= 2" in v for v in validate(g))


class TestPooledMoments:
    def test_two_identical_groups(self):
        n, mean, sd = pooled_moments([(10, 5.0, 2.0), (10, 5.0, 2.0)])
        assert n == 20
        assert mean == 5.0
        # concatenating two identical-moment samples shrinks the SD
        # slightly because the dof weighting changes
        assert sd == pytest.approx(1.9466570535691504, abs=1e-12)

    def test_published_two_arm_merge(self):
        n, mean, sd = pooled_moments([(40, 11.8, 7.9), (51, 5.3, 6.8)])
        assert n == 91
        assert mean == pytest.approx(742.3 / 91, abs=1e-12)
        assert sd == pytest.approx(7.953428930092463, abs=1e-9)

    def test_single_group_passthrough(self):
        n, mean, sd = pooled_moments([(12, 3.5, 1.25)])
        assert (n, mean) == (12, 3.5)
        assert sd == pytest.approx(1.25, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pooled_moments([])

    @pytest.mark.parametrize("triples", [
        [(20, 1e200, 1.0), (20, -1e200, 1.0)],        # a squared deviation
        [(20, int(1.7e308), 1), (20, int(1.7e308), 1)],  # an int sum
    ], ids=["float-means", "int-means"])
    def test_overflow_refused_in_words(self, triples):
        # Each raised OverflowError from the arithmetic.
        with pytest.raises(ValueError,
                           match="^the moments overflow the float range$"):
            pooled_moments(triples)

    def test_same_floats_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12's builtin sum compensates float rounding;
        # pooled_moments adds left to right on every version, so an fsum
        # in place of the builtin changes nothing.  The terms here are
        # ones the two summations round differently.
        def left_fold(values, start=0):
            return functools.reduce(operator.add, values, start)

        triples = [(19, 1.3, 1.9), (24, 0.1, 1.4), (7, 0.3, 0.6)]
        terms = [n * m for n, m, _ in triples]
        assert math.fsum(terms) != left_fold(terms)
        monkeypatch.setattr(builtins, "sum", left_fold)
        want = pooled_moments(triples)
        monkeypatch.setattr(builtins, "sum", math.fsum)
        got = pooled_moments(triples)
        monkeypatch.undo()
        assert got == want

    @given(st.lists(st.tuples(st.integers(2, 60),
                              st.floats(-50, 50),
                              st.floats(0.1, 20)),
                    min_size=1, max_size=5))
    def test_matches_concatenation_oracle(self, triples):
        # Build synthetic samples with exactly the requested moments,
        # concatenate them, and compare raw numpy moments.
        samples = []
        for n, mean, sd in triples:
            x = np.arange(n, dtype=float)
            x = (x - x.mean()) / x.std(ddof=1) * sd + mean
            samples.append(x)
        z = np.concatenate(samples)
        n, mean, sd = pooled_moments(triples)
        assert n == len(z)
        assert mean == pytest.approx(z.mean(), rel=1e-9, abs=1e-9)
        assert sd == pytest.approx(z.std(ddof=1), rel=1e-9, abs=1e-9)

    @given(st.permutations([(10, 5.0, 2.0), (25, -1.0, 0.5), (7, 3.25, 4.0)]))
    def test_order_invariant(self, triples):
        n, mean, sd = pooled_moments(triples)
        assert n == 42
        assert mean == pytest.approx(pooled_moments(
            [(10, 5.0, 2.0), (25, -1.0, 0.5), (7, 3.25, 4.0)])[1], abs=1e-12)
        assert sd == pytest.approx(pooled_moments(
            [(10, 5.0, 2.0), (25, -1.0, 0.5), (7, 3.25, 4.0)])[2], abs=1e-12)


class TestParseBundled:
    def test_leptin_study_count(self, data_dir):
        studies = parse_studies(data_dir / "zhang2017_leptin.csv")
        assert len(studies) == 12
        assert all(s.outcome_label == "leptin" for s in studies)

    def test_mmp9_study_count(self, data_dir):
        studies = parse_studies(data_dir / "ferretti2017_mmp9.csv")
        assert len(studies) == 9

    def test_multi_outcome_grouping(self, data_dir):
        studies = parse_studies(data_dir / "zhang2017.csv")
        by_outcome = {}
        for s in studies:
            by_outcome.setdefault(s.outcome_label, []).append(s)
        assert len(by_outcome["leptin"]) == 12
        assert len(by_outcome["adiponectin"]) == 11

    def test_banach_outcomes(self, data_dir):
        studies = parse_studies(data_dir / "banach2016.csv")
        counts = {}
        for s in studies:
            counts[s.outcome_label] = counts.get(s.outcome_label, 0) + 1
        assert counts == {"total cholesterol": 8, "LDL-C": 10,
                          "HDL-C": 9, "triglycerides": 8}

    def test_empty_cells_parse_as_missing(self, data_dir):
        # mean±SD rows carry no summary; quantile rows carry no moments
        studies = parse_studies(data_dir / "zhang2017_leptin.csv")
        by_id = {s.study_id: s for s in studies}
        direct = by_id["haidari2014"].case_groups[0]
        assert direct.summary is None and direct.reported_mean == 1.41
        quantile = by_id["dasilva2012"].case_groups[0]
        assert quantile.reported_mean is None
        assert quantile.summary.q1 == 30

    def test_multi_arm_studies(self, data_dir):
        studies = parse_studies(data_dir / "zhang2017_leptin.csv")
        by_id = {s.study_id: s for s in studies}
        assert len(by_id["yuksel2012"].case_groups) == 2
        assert len(by_id["kim2008"].case_groups) == 2
        assert len(by_id["kim2008"].control_groups) == 1

    def test_no_validation_violations_in_bundled(self, data_dir):
        for name in ("zhang2017.csv", "banach2016.csv", "ferretti2017.csv",
                     "hawkins2017_bnp.csv"):
            for study in parse_studies(data_dir / name):
                for g in study.groups:
                    assert validate(g) == [], (name, g.study_id)


def _csv_as_json(src, out):
    """Write the rows of CSV ``src`` to ``out`` as the JSON mirror."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


class TestRoundTrip:
    def test_json_round_trip_lossless(self, data_dir, tmp_path):
        out = tmp_path / "echo.json"
        _csv_as_json(data_dir / "zhang2017.csv", out)
        assert parse_studies(out) == parse_studies(data_dir / "zhang2017.csv")

    def test_json_format_flag(self, data_dir, tmp_path):
        out = tmp_path / "data.txt"
        _csv_as_json(data_dir / "ferretti2017.csv", out)
        assert (parse_studies(out, format="json")
                == parse_studies(data_dir / "ferretti2017.csv"))

    def test_header_spaces_after_commas(self, data_dir, tmp_path):
        # Rows are looked up by the stripped names, not by " outcome".
        src = data_dir / "zhang2017.csv"
        header, rest = src.read_text(encoding="utf-8").split("\n", 1)
        out = tmp_path / "spaced.csv"
        out.write_text(header.replace(",", ", ") + "\n" + rest,
                       encoding="utf-8")
        assert parse_studies(out) == parse_studies(src)

    @pytest.mark.parametrize("name", ["zhang2017.csv", "zhang2017.json"])
    def test_byte_order_mark_ignored(self, data_dir, tmp_path, name):
        # Spreadsheets save "UTF-8" CSV with a leading BOM.
        src = data_dir / "zhang2017.csv"
        plain = tmp_path / name
        if name.endswith(".json"):
            _csv_as_json(src, plain)
        else:
            plain.write_bytes(src.read_bytes())
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_studies(marked) == parse_studies(src)


def _write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


_HEADER = ",".join(CSV_COLUMNS) + "\n"


# The one-class pattern the label check replaces, as the oracle: it
# refused the same characters, but ``re`` compiles a class reaching past
# U+00FF through a 64 KiB charmap.
_ONE_CLASS = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_LABEL_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from("\x00\x08\t\n\x0b\r\x1f\ud800\udfff\ufffe\uffff")))


class TestUnwritableLabelCharacters:
    def test_every_code_point_as_the_one_class_pattern(self):
        every = "".join(map(chr, range(0x110000)))
        want = [m.start() for m in _ONE_CLASS.finditer(every)]
        got = [i for i, c in enumerate(every) if _unwritable_at(c) == 0]
        assert got == want
        assert len(want) == 29 + 2048 + 2

    @given(_LABEL_TEXT)
    def test_first_refused_character_as_the_one_class_pattern(self, text):
        found = _ONE_CLASS.search(text)
        assert _unwritable_at(text) == (found.start() if found else -1)


class TestParseErrors:
    def test_header_only_is_empty(self, tmp_path):
        p = _write(tmp_path, _HEADER)
        with pytest.raises(SummaryDataError, match="no data rows"):
            parse_studies(p)

    def test_zero_byte_file(self, tmp_path):
        p = _write(tmp_path, "")
        with pytest.raises(SummaryDataError, match="empty file"):
            parse_studies(p)

    def test_header_mismatch(self, tmp_path):
        p = _write(tmp_path, "study,n\nfoo,3\n")
        with pytest.raises(SummaryDataError, match="header mismatch"):
            parse_studies(p)

    def test_header_repeats_a_column(self, tmp_path):
        # A second mean column used to win: the case mean read 99.
        p = _write(tmp_path, _HEADER.rstrip("\n") + ",mean\n"
                   + "a,o,case,case,12,1,1,,,,,,99\n"
                   + "a,o,control,control,12,1,1,,,,,,1\n")
        with pytest.raises(SummaryDataError, match=re.escape(
                f"{p}: header mismatch; missing columns [], unexpected columns [], "
                f"repeated columns ['mean']")):
            parse_studies(p)

    def test_json_row_repeats_a_field(self, tmp_path):
        # json keeps the last of a repeated key, so the case mean read 99.
        fields = '"study_id": "a", "outcome": "o", "n": 12, "sd": 1'
        p = _write(tmp_path, f'[{{{fields}, "arm": "control", "mean": 1}}, '
                   f'{{{fields}, "arm": "case", "mean": 1, "mean": 99}}]',
                   name="in.json")
        with pytest.raises(SummaryDataError, match=re.escape(
                f"{p}: row 2 repeats the field 'mean'")):
            parse_studies(p)

    @pytest.mark.parametrize("column", ["n", "mean", "sd", *SUMMARY_FIELDS])
    def test_json_true_or_false_is_not_a_number(self, tmp_path, column):
        # float() reads true as 1 and false as 0: "n": true, "mean": true,
        # "sd": false parsed as n = 1, mean 1.0 and SD 0.0.  The rows hold
        # both forms, which the parser keeps and validation refuses.
        base = {"study_id": "a", "outcome": "o", "n": 12, "mean": 1.0,
                "sd": 1.0, **dict(zip(SUMMARY_FIELDS, range(5)))}
        rows = [{**base, "arm": "control"}, {**base, "arm": "case"}]
        for flag in (True, False):
            rows[1][column] = flag
            p = _write(tmp_path, json.dumps(rows), name="in.json")
            with pytest.raises(SummaryDataError, match=re.escape(
                    f"{p}:row 2: column {column!r} holds {flag!r}, expected "
                    f"a number")):
                parse_studies(p)

    def test_bad_number_reports_line(self, tmp_path):
        p = _write(tmp_path, _HEADER +
                   "a,o,case,case,12,x,1,,,,,\n")
        with pytest.raises(SummaryDataError, match="line 2"):
            parse_studies(p)

    def test_bad_n(self, tmp_path):
        p = _write(tmp_path, _HEADER + "a,o,case,case,2.5,1,1,,,,,\n")
        with pytest.raises(SummaryDataError, match="positive integer"):
            parse_studies(p)

    def test_bad_arm(self, tmp_path):
        p = _write(tmp_path, _HEADER + "a,o,treated,g,12,1,1,,,,,\n")
        with pytest.raises(SummaryDataError, match="arm"):
            parse_studies(p)

    def test_empty_study_id(self, tmp_path):
        p = _write(tmp_path, _HEADER + ",o,case,case,12,1,1,,,,,\n")
        with pytest.raises(SummaryDataError,
                           match="study_id and outcome must be nonempty"):
            parse_studies(p)

    def test_quantiles_without_median(self, tmp_path):
        p = _write(tmp_path, _HEADER + "a,o,case,case,12,,,1,,,9,\n")
        with pytest.raises(SummaryDataError, match="median is missing"):
            parse_studies(p)

    def test_duplicate_key(self, tmp_path):
        row = "a,o,case,case,12,1,1,,,,,\n"
        ctrl = "a,o,control,control,12,1,1,,,,,\n"
        p = _write(tmp_path, _HEADER + row + ctrl + row)
        with pytest.raises(SummaryDataError, match="duplicate"):
            parse_studies(p)

    def test_missing_control_arm(self, tmp_path):
        p = _write(tmp_path, _HEADER + "a,o,case,case,12,1,1,,,,,\n")
        with pytest.raises(SummaryDataError, match="no control group"):
            parse_studies(p)

    def test_missing_case_arm(self, tmp_path):
        p = _write(tmp_path, _HEADER + "a,o,control,control,12,1,1,,,,,\n")
        with pytest.raises(SummaryDataError, match="no case group"):
            parse_studies(p)

    def test_unknown_format(self, tmp_path):
        p = _write(tmp_path, _HEADER)
        with pytest.raises(SummaryDataError, match="unsupported format"):
            parse_studies(p, format="xml")

    @pytest.mark.parametrize("name", ["in.csv", "in.json"])
    def test_not_utf8(self, tmp_path, name):
        # A Latin-1 file: "é" is the lone byte 0xe9.
        p = tmp_path / name
        p.write_bytes((_HEADER + "caf\xe9,o,case,case,12,1,1,,,,,\n")
                      .encode("latin-1"))
        with pytest.raises(SummaryDataError,
                           match=re.escape(f"{p}: not UTF-8 text")):
            parse_studies(p)

    def test_invalid_json(self, tmp_path):
        p = _write(tmp_path, "{not json", name="in.json")
        with pytest.raises(SummaryDataError, match="invalid JSON"):
            parse_studies(p)

    def test_json_not_array(self, tmp_path):
        p = _write(tmp_path, "{}", name="in.json")
        with pytest.raises(SummaryDataError, match="array"):
            parse_studies(p)
        p = _write(tmp_path, "[1]", name="in.json")
        with pytest.raises(SummaryDataError, match="row 1 is not an object"):
            parse_studies(p)

    def test_json_unknown_field(self, tmp_path):
        row = {"study_id": "a", "outcome": "o", "arm": "case",
               "group_label": "g", "n": 5, "mean": 1, "sd": 1, "oops": 3}
        p = _write(tmp_path, json.dumps([row]), name="in.json")
        with pytest.raises(SummaryDataError, match="unknown fields"):
            parse_studies(p)

    def test_ns_literal_is_missing(self, tmp_path):
        p = _write(tmp_path, _HEADER +
                   "a,o,case,case,12,1,1,NS,NS,NS,NS,NS\n" +
                   "a,o,control,control,12,1,1,,,,,\n")
        studies = parse_studies(p)
        (case,) = studies[0].case_groups
        assert case.summary is None
        assert case.reported_mean == 1.0

    def test_violations_parsed_then_refused(self, tmp_path):
        # A parseable row with a semantic problem parses fine; validate
        # names the problem and run_test refuses the group with it.
        p = _write(tmp_path, _HEADER +
                   "a,o,case,case,12,,,,9,5,2,\n" +
                   "a,o,control,control,12,1,1,,,,,\n")
        studies = parse_studies(p)
        (case,) = studies[0].case_groups
        violations = validate(case)
        assert any("ordering violation" in v for v in violations)
        with pytest.raises(UnsupportedSummaryError) as exc:
            run_test(case)
        assert str(exc.value) == "; ".join(violations)
