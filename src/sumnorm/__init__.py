"""Symmetry screening and moment estimation for quantile-summarized data.

The package tests whether a five-number (or partial) summary is
compatible with an underlying normal distribution, estimates the mean
and standard deviation from such summaries, and feeds both into a
random-effects meta-analysis pipeline with forest-plot output.  A
Monte-Carlo harness measures the tests' type I error and power; the
order-statistic asymptotics they rely on are checked by the acceptance
scorecard.
"""

from . import estimators, meta, model, normal, plots, simulate, symmetry
from .estimators import *  # noqa: F403
from .meta import *  # noqa: F403
from .model import *  # noqa: F403
from .normal import *  # noqa: F403
from .plots import *  # noqa: F403
from .simulate import *  # noqa: F403
from .symmetry import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *model.__all__, *normal.__all__,
           *estimators.__all__, *symmetry.__all__, *meta.__all__,
           *plots.__all__, *simulate.__all__]
