"""Symmetry screening and moment estimation for quantile-summarized data.

The package tests whether a five-number (or partial) summary is
compatible with an underlying normal distribution, estimates the mean
and standard deviation from such summaries, and feeds both into a
random-effects meta-analysis pipeline with forest-plot output.  A
Monte-Carlo harness validates the tests' type I error, power, and the
order-statistic asymptotics they rely on.
"""

from .estimators import (EstimatedMoments, estimate_mean, estimate_moments,
                         estimate_sd_s1, estimate_sd_s2, estimate_sd_s3)
from .meta import (EffectSize, GroupTest, PipelineReport, PooledResult,
                   StudyEntry, chi_square_sf, cohen_d, pool, report_to_dict,
                   run_pipeline)
from .model import (GroupRecord, QuantileSummary, Scenario, Study,
                    SummaryDataError, UnsupportedSummaryError,
                    classify_scenario, parse_studies,
                    pooled_moments, validate, write_csv, write_json)
from .normal import (critical_value, extreme_width, quartile_width,
                     std_normal_cdf, std_normal_pdf, std_normal_quantile,
                     two_sided_p)
from .plots import curve_svg, forest_svg
from .simulate import (DEFAULT_N_GRID, DEMO_PAIRS, POWER_ALTERNATIVES,
                       CovRatioCheck, DemoResult, DistSpec, ExperimentResult,
                       MidrangeVarianceCheck, cov_ratio_check,
                       isotonic_fit_r2, midrange_variance_check, power_curve,
                       sample, skew_distortion_demo, summarize, type1_curve,
                       write_experiment_csv)
from .symmetry import (DEFAULT_KAPPA_C, KAPPA_C_CHOICES,
                       DegenerateSummaryError, TestResult, coeff_kappa,
                       coeff_phi, coeff_tau, format_p_value,
                       format_statistic, run_test, statistic, test_s1,
                       test_s2, test_s3)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Scenario", "QuantileSummary", "GroupRecord", "Study",
    "SummaryDataError", "UnsupportedSummaryError", "classify_scenario",
    "validate", "pooled_moments", "parse_studies",
    "write_csv", "write_json",
    # normal
    "std_normal_pdf", "std_normal_cdf", "std_normal_quantile",
    "two_sided_p", "critical_value", "extreme_width", "quartile_width",
    # estimators
    "EstimatedMoments", "estimate_sd_s1", "estimate_sd_s2",
    "estimate_sd_s3", "estimate_mean", "estimate_moments",
    # symmetry
    "DEFAULT_KAPPA_C", "KAPPA_C_CHOICES", "DegenerateSummaryError",
    "TestResult", "coeff_tau", "coeff_phi", "coeff_kappa", "statistic",
    "test_s1",
    "test_s2", "test_s3", "run_test", "format_statistic", "format_p_value",
    # meta
    "EffectSize", "PooledResult", "GroupTest", "StudyEntry",
    "PipelineReport", "chi_square_sf", "cohen_d", "pool", "run_pipeline",
    "report_to_dict",
    # plots
    "forest_svg", "curve_svg",
    # simulate
    "DEFAULT_N_GRID", "POWER_ALTERNATIVES", "DEMO_PAIRS", "DistSpec",
    "ExperimentResult", "MidrangeVarianceCheck", "CovRatioCheck",
    "DemoResult", "sample", "summarize", "type1_curve", "power_curve",
    "midrange_variance_check", "cov_ratio_check", "skew_distortion_demo",
    "isotonic_fit_r2", "write_experiment_csv",
]
