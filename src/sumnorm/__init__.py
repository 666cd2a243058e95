"""Symmetry screening and moment estimation for quantile-summarized data.

The package tests whether a five-number (or partial) summary is
compatible with an underlying normal distribution, estimates the mean
and standard deviation from such summaries, and feeds both into a
random-effects meta-analysis pipeline with forest-plot output.  A
Monte-Carlo harness measures the tests' type I error and power; the
order-statistic asymptotics they rely on are checked by the acceptance
scorecard.
"""

from . import estimators, meta, model, normal, plots, symmetry

__version__ = "0.1.0"
