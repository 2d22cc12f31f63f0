"""Credit-scoring substrate: logistic regression, scorecards, and cut-offs.

The paper's AI system is a scorecard whose parameters are retrained each
year by logistic regression on two features — the income code
``1_{income >= $15K}`` and the user's previous average default rate — with a
fixed cut-off score of 0.4 deciding approval.  Everything needed for that
pipeline is implemented here from scratch (no scikit-learn): a numerically
careful logistic-regression solver, a scorecard representation matching the
paper's Table I, weight-of-evidence binning, score calibration, and the
cut-off decision rule.
"""

from repro.scoring.logistic import LogisticRegression, LogisticFit
from repro.scoring.scorecard import Scorecard, ScorecardFactor, paper_table1_scorecard
from repro.scoring.features import FeatureBuilder, income_code
from repro.scoring.suffstats import CompressedDesign, merge_tables
from repro.scoring.cutoff import CutoffPolicy
from repro.scoring.woe import WoeBin, WoeBinning, information_value
from repro.scoring.calibration import ScoreScaler

__all__ = [
    "LogisticRegression",
    "LogisticFit",
    "Scorecard",
    "ScorecardFactor",
    "paper_table1_scorecard",
    "FeatureBuilder",
    "income_code",
    "CompressedDesign",
    "merge_tables",
    "CutoffPolicy",
    "WoeBin",
    "WoeBinning",
    "information_value",
    "ScoreScaler",
]
