"""Data model for quantile-summarized study groups.

A study group either reports its moments directly (mean and SD) or a
quantile summary in one of three reporting patterns:

* S1: minimum, median, maximum
* S2: first quartile, median, third quartile
* S3: all five numbers

This module owns the record types, scenario classification, invariant
validation, moment pooling, and CSV/JSON ingestion.  A record holds its
mean, SD and summary values as floats from the moment it is built, an
int past the float range as the infinity of its sign.  The parser
refuses only unreadable rows; :func:`classify_scenario` runs
:func:`validate`, so every consumer of a group refuses one that breaks
an invariant, a number that is not finite among them.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Scenario",
    "QuantileSummary",
    "GroupRecord",
    "Study",
    "SummaryDataError",
    "UnsupportedSummaryError",
    "classify_scenario",
    "validate",
    "pooled_moments",
    "parse_studies",
    "CSV_COLUMNS",
    "SUMMARY_FIELDS",
    "SCENARIO_FIELDS",
]

CSV_COLUMNS = ("study_id", "outcome", "arm", "group_label", "n",
               "mean", "sd", "min", "q1", "median", "q3", "max")

# Cells holding this literal are treated as missing, mirroring the
# "not specified" marker used in the source tables.
_MISSING_LITERAL = "NS"

# The C0 controls XML 1.0 forbids.  A class that reached past U+00FF
# would make ``re`` build a 64 KiB charmap, so the other characters a
# label may not hold are found without one, in ``_unwritable_at``.
_C0_CONTROL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")


class Scenario(Enum):
    """Reporting pattern of a study group."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    DIRECT = "DIRECT"


# The fields of a quantile summary, in ascending order.
SUMMARY_FIELDS = ("min", "q1", "median", "q3", "max")

# scenario -> (the summary fields it reports, in ascending order, and the
# smallest n its estimators and statistic are defined for).
SCENARIO_FIELDS = {
    Scenario.S1: (("min", "median", "max"), 2),
    Scenario.S2: (("q1", "median", "q3"), 4),
    Scenario.S3: (SUMMARY_FIELDS, 4),
}
_SCENARIO_OF_FIELDS = {fields: scenario
                       for scenario, (fields, _) in SCENARIO_FIELDS.items()}


class SummaryDataError(ValueError):
    """Input file cannot be parsed into a valid list of studies."""


class UnsupportedSummaryError(ValueError):
    """A group breaks an invariant, or its quantile summary matches none
    of the supported scenarios."""


def _as_float(value) -> float:
    """``float(value)``, or a signed inf for an int past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class QuantileSummary:
    """Reported quantiles of one group; absent fields are None.

    Each present field is stored through ``float()``, so a value it
    refuses, such as ``"x"``, raises here; an int past the float range is
    stored as the infinity of its sign, which :func:`validate` refuses.
    """

    median: float
    min: float | None = None
    q1: float | None = None
    q3: float | None = None
    max: float | None = None

    def __post_init__(self):
        for name in SUMMARY_FIELDS:
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _as_float(value))

    def present_fields(self) -> tuple[str, ...]:
        return tuple([name for name in SUMMARY_FIELDS
                      if getattr(self, name) is not None])


@dataclass(frozen=True)
class GroupRecord:
    """One arm of one study for one outcome.

    ``reported_mean`` and ``reported_sd`` are stored as floats, as a
    summary's fields are; ``n`` is stored as given, and :func:`validate`
    refuses one that is not a whole number from 1 to the float limit.
    """

    study_id: str
    group_label: str
    arm: str  # "case" or "control"
    n: int
    reported_mean: float | None = None
    reported_sd: float | None = None
    summary: QuantileSummary | None = None

    def __post_init__(self):
        for name in ("reported_mean", "reported_sd"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _as_float(value))


@dataclass(frozen=True)
class Study:
    """All groups of one study for one outcome."""

    study_id: str
    outcome_label: str
    case_groups: tuple[GroupRecord, ...]
    control_groups: tuple[GroupRecord, ...]

    @property
    def groups(self) -> tuple[GroupRecord, ...]:
        return self.case_groups + self.control_groups


def classify_scenario(group: GroupRecord) -> Scenario:
    """Return the reporting pattern of ``group``.

    The one gate for every consumer of a group: it runs :func:`validate`
    first, so a group that passes has exactly one form.  Moments are
    DIRECT; a summary is the scenario whose ``SCENARIO_FIELDS`` are
    exactly its present fields: extremes and quartiles S3, extremes
    alone S1, quartiles alone S2; anything else is unsupported.

    Raises
    ------
    UnsupportedSummaryError
        With the violations joined by "; ", or if no scenario matches.
    """
    violations = validate(group)
    if violations:
        raise UnsupportedSummaryError("; ".join(violations))
    s = group.summary
    if s is None:
        return Scenario.DIRECT
    present = s.present_fields()
    scenario = _SCENARIO_OF_FIELDS.get(present)
    if scenario is not None:
        return scenario
    missing = [name for name in SUMMARY_FIELDS if name not in present]
    raise UnsupportedSummaryError(
        f"group {group.study_id}/{group.group_label}: summary with fields "
        f"{present} matches no scenario; missing {missing} "
        f"(need min/median/max, q1/median/q3, or all five)")


def validate(group: GroupRecord) -> list[str]:
    """Check the type invariants of ``group``.

    Returns a list of human-readable violations; an empty list means the
    record is well formed: n a whole number from 1 to the float limit,
    and every other number in it finite.  :func:`classify_scenario`
    raises them.
    """
    out: list[str] = []
    # No message formats an n that fails here: str() fails on an int of
    # over 4300 digits.  nan, inf and 2.5 fail the first check.
    if not (group.n >= 1 and group.n % 1 == 0):
        out.append("n must be a positive integer")
    elif group.n > sys.float_info.max:
        out.append("n overflows the float range")
    if group.arm not in ("case", "control"):
        out.append(f"arm must be 'case' or 'control', got {group.arm!r}")
    mean, sd = group.reported_mean, group.reported_sd
    has_moments = mean is not None and sd is not None
    has_summary = group.summary is not None
    if not has_moments and not has_summary:
        out.append("neither (mean, sd) nor a quantile summary is present")
    if has_moments and has_summary:
        out.append("both (mean, sd) and a quantile summary are present; "
                   "exactly one form is allowed")
    if mean is not None and math.isinf(mean):
        out.append("mean overflows the float range")
    elif mean is not None and math.isnan(mean):
        out.append("mean is nan")
    if sd is not None and math.isinf(sd):
        out.append("sd overflows the float range")
    elif sd is not None and math.isnan(sd):
        out.append("sd is nan")
    elif sd is not None and sd < 0:
        out.append(f"sd must be nonnegative, got {sd}")
    s = group.summary
    if s is None:
        return out
    if s.median is None:
        out.append("quantile summary has no median")
    ordered = [(name, getattr(s, name)) for name in SUMMARY_FIELDS
               if getattr(s, name) is not None]
    if any(math.isinf(value) for _, value in ordered):
        out.append("the summary values overflow the float range")
    elif any(math.isnan(value) for _, value in ordered):
        out.append("a summary value is nan")
    else:
        for (lo_name, lo), (hi_name, hi) in zip(ordered, ordered[1:]):
            if lo > hi:
                out.append(f"ordering violation: {lo_name} <= {hi_name} "
                           f"fails ({lo} > {hi})")
    has_quartiles = s.q1 is not None or s.q3 is not None
    if has_quartiles and 1 <= group.n < 4:
        out.append(f"n >= 4 required with quartiles, got n={group.n}")
    elif not has_quartiles and 1 <= group.n < 2:
        out.append(f"n >= 2 required with extremes, got n={group.n}")
    return out


def left_sum(values: Iterable[float]) -> float:
    """The floats of ``values`` added one at a time, left to right.

    Builtin ``sum`` does this before Python 3.12 and compensates the
    rounding from 3.12 on, so pooled values would differ in their last
    digits between versions.  The plain fold gives the same bytes on
    every supported Python.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def pooled_moments(moments: Sequence[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine per-group (n, mean, sd) triples into overall moments.

    Applies the exact identity for the variance of concatenated samples:
    pooled mean is the n-weighted mean, and

        s^2 = [sum (n_i - 1) s_i^2 + sum n_i (m_i - m)^2] / (N - 1)

    so the result equals the moments of the concatenation of samples
    having exactly those per-group moments.

    Raises
    ------
    ValueError
        On an empty list, or moments past the float range.
    """
    if not moments:
        raise ValueError("at least one (n, mean, sd) triple required")
    total_n = sum(n for n, _, _ in moments)
    try:
        mean = left_sum(n * m for n, m, _ in moments) / total_n
        ss = left_sum((n - 1) * sd * sd for n, _, sd in moments)
        ss += left_sum(n * (m - mean) ** 2 for n, m, _ in moments)
    except OverflowError:
        raise ValueError("the moments overflow the float range") from None
    sd = math.sqrt(ss / (total_n - 1))
    return total_n, mean, sd


def _parse_cell(raw: str | float | int | None, column: str, where: str) -> float | None:
    if raw is None:
        return None
    text = raw.strip() if isinstance(raw, str) else raw
    if text in ("", _MISSING_LITERAL):
        return None
    try:
        if isinstance(text, bool):  # JSON true or false; float() reads 1 or 0
            raise TypeError
        value = _as_float(text)  # a JSON integer past the float range: inf
    except (TypeError, ValueError):
        raise SummaryDataError(
            f"{where}: column {column!r} holds {raw!r}, expected a number, "
            f"an empty cell, or {_MISSING_LITERAL!r}") from None
    if not math.isfinite(value):
        raise SummaryDataError(
            f"{where}: column {column!r} holds {raw!r}, expected a finite "
            f"number")
    return value


def _unwritable_at(text: str) -> int:
    """The index of the first character of ``text`` that a label may not
    hold, or -1.  A label lands in report.json, stdout and the SVGs, so
    it may not hold a character that UTF-8 cannot encode (a lone
    surrogate) or that XML 1.0 forbids (a C0 control other than tab,
    line feed and carriage return, U+FFFE or U+FFFF)."""
    found = _C0_CONTROL.search(text)
    if text.isascii():
        return found.start() if found else -1
    at = [i for i in (text.find("\ufffe"), text.find("\uffff")) if i >= 0]
    if found:
        at.append(found.start())
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # at the first lone surrogate
        at.append(exc.start)
    return min(at, default=-1)


def _record_from_row(row: dict, where: str) -> tuple[str, GroupRecord]:
    study_id = str(row.get("study_id") or "").strip()
    outcome = str(row.get("outcome") or "").strip()
    group_label = str(row.get("group_label") or "").strip()
    arm = str(row.get("arm") or "").strip().lower()
    # One check per row; the per-column check runs only on a refusal.
    if _unwritable_at(study_id + outcome + arm + group_label) >= 0:
        for column in ("study_id", "outcome", "arm", "group_label"):
            text = str(row.get(column) or "")
            bad = _unwritable_at(text)
            if bad >= 0:
                raise SummaryDataError(
                    f"{where}: column {column!r} holds {text!r}, with the "
                    f"character U+{ord(text[bad]):04X}; a label may not "
                    f"hold a control character other than tab, line feed "
                    f"or carriage return, a surrogate, U+FFFE or U+FFFF")
    if not study_id or not outcome:
        raise SummaryDataError(f"{where}: study_id and outcome must be nonempty")
    if arm not in ("case", "control"):
        raise SummaryDataError(
            f"{where}: arm must be 'case' or 'control', got {row.get('arm')!r}")
    n_raw = _parse_cell(row.get("n"), "n", where)
    if n_raw is None or n_raw != int(n_raw) or n_raw < 1:
        raise SummaryDataError(
            f"{where}: n must be a positive integer, got {row.get('n')!r}")
    n = int(n_raw)
    mean = _parse_cell(row.get("mean"), "mean", where)
    sd = _parse_cell(row.get("sd"), "sd", where)
    quantiles = {name: _parse_cell(row.get(name), name, where)
                 for name in SUMMARY_FIELDS}
    summary = None
    if any(v is not None for v in quantiles.values()):
        if quantiles["median"] is None:
            raise SummaryDataError(
                f"{where}: quantile fields present but median is missing")
        summary = QuantileSummary(**quantiles)
    record = GroupRecord(study_id=study_id, group_label=group_label or arm,
                         arm=arm, n=n, reported_mean=mean, reported_sd=sd,
                         summary=summary)
    return outcome, record


def _rows_from_csv(path: Path) -> Iterable[tuple[dict, str]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SummaryDataError(f"{path}: empty file")
        # DictReader keys rows by these names, so strip them in place.
        reader.fieldnames = got = [name.strip() for name in reader.fieldnames]
        if len(got) != len(CSV_COLUMNS) or set(got) != set(CSV_COLUMNS):
            missing = sorted(set(CSV_COLUMNS) - set(got))
            extra = sorted(set(got) - set(CSV_COLUMNS))
            repeated = sorted({name for name in got if got.count(name) > 1})
            raise SummaryDataError(
                f"{path}: header mismatch; missing columns {missing}, "
                f"unexpected columns {extra}"
                + (f", repeated columns {repeated}" if repeated else ""))
        for row in reader:
            yield row, f"{path}:line {reader.line_num}"


def _rows_from_json(path: Path) -> Iterable[tuple[dict, str]]:
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    # id of an object -> a key it repeats, of which json keeps the last
    repeats: dict[int, str] = {}

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            names = [name for name, _ in pairs]
            repeats[id(obj)] = next(n for n in names if names.count(n) > 1)
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise SummaryDataError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError:  # an integer literal past int()'s digit limit
        raise SummaryDataError(
            f"{path}: invalid JSON: an integer literal has more digits "
            f"than Python converts") from None
    except RecursionError:
        raise SummaryDataError(
            f"{path}: invalid JSON: arrays or objects nested too deeply"
        ) from None
    if not isinstance(data, list):
        raise SummaryDataError(f"{path}: expected a JSON array of row objects")
    for i, row in enumerate(data, start=1):
        if not isinstance(row, dict):
            raise SummaryDataError(f"{path}: row {i} is not an object")
        if id(row) in repeats:  # data holds every object, so ids differ
            raise SummaryDataError(
                f"{path}: row {i} repeats the field {repeats[id(row)]!r}")
        unknown = sorted(set(row) - set(CSV_COLUMNS))
        if unknown:
            raise SummaryDataError(f"{path}: row {i} has unknown fields {unknown}")
        yield row, f"{path}:row {i}"


def parse_studies(path: str | Path, format: str | None = None) -> list[Study]:
    """Read a CSV or JSON dataset into a list of studies.

    One :class:`Study` is produced per (study_id, outcome) pair, with
    rows grouped by arm in file order.  A readable record that breaks an
    invariant is kept; :func:`classify_scenario` refuses it where used.

    Parameters
    ----------
    path : str or Path
        Input file, UTF-8 text with or without a byte order mark.
    format : {"csv", "json"}, optional
        Defaults to the file extension.

    Raises
    ------
    SummaryDataError
        On files that are not UTF-8 text, malformed files (with the
        offending line), duplicate (study, group, outcome) keys, or
        studies missing an arm.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower() or "csv"
    read_rows = {"csv": _rows_from_csv, "json": _rows_from_json}.get(format)
    if read_rows is None:
        raise SummaryDataError(f"unsupported format {format!r}; use csv or json")

    by_study: dict[tuple[str, str], dict[str, list[GroupRecord]]] = {}
    seen_keys: set[tuple[str, str, str]] = set()
    count = 0
    # The readers open files as utf-8-sig, which also drops the byte
    # order mark that spreadsheets write.
    try:
        for row, where in read_rows(path):
            count += 1
            outcome, record = _record_from_row(row, where)
            key = (record.study_id, record.group_label, outcome)
            if key in seen_keys:
                raise SummaryDataError(
                    f"{where}: duplicate (study, group, outcome) key {key}")
            seen_keys.add(key)
            arms = by_study.setdefault((record.study_id, outcome),
                                       {"case": [], "control": []})
            arms[record.arm].append(record)
    except UnicodeDecodeError as exc:
        raise SummaryDataError(
            f"{path}: not UTF-8 text ({exc.reason})") from None
    if count == 0:
        raise SummaryDataError(f"{path}: no data rows")

    studies = []
    for (study_id, outcome), arms in by_study.items():
        if not arms["case"] or not arms["control"]:
            missing_arm = "case" if not arms["case"] else "control"
            raise SummaryDataError(
                f"study {study_id} ({outcome}): no {missing_arm} group")
        studies.append(Study(study_id=study_id, outcome_label=outcome,
                             case_groups=tuple(arms["case"]),
                             control_groups=tuple(arms["control"])))
    return studies
