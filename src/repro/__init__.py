"""repro — closed-loop view of the regulation of AI (ICDE 2024 reproduction).

The library reproduces Zhou, Ghosh, Shorten and Mareček's *"Closed-Loop View
of the Regulation of AI: Equal Impact across Repeated Interactions"*: a
framework in which an AI system and its user population form a closed loop,
equal treatment is a property of one pass through the loop, and equal impact
is a property of the loop's long-run (ergodic) behaviour.

Package layout
--------------
:mod:`repro.core`
    The closed-loop framework and the executable Definitions 1-4.
:mod:`repro.markov`
    Markov systems / iterated function systems, ergodicity diagnostics,
    invariant measures, coupling and spectral diagnostics.
:mod:`repro.scoring`
    Scorecards, logistic regression, cut-offs, WOE, calibration.
:mod:`repro.credit`
    Borrowers, mortgages, the Gaussian repayment model, default rates, the
    retraining lender.
:mod:`repro.data`
    The synthetic census-like income table, income samplers, population
    synthesis.
:mod:`repro.baselines`
    The uniform-limit, income-multiple, static-scorecard and
    demographic-parity baselines.
:mod:`repro.experiments`
    The harness that regenerates every table and figure of the paper.

Quick start
-----------
>>> from repro.experiments import CaseStudyConfig, fig3_race_adr
>>> result = fig3_race_adr(CaseStudyConfig(num_users=200, num_trials=2))
>>> isinstance(result.final_gap, float)
True
"""

from repro.core import (
    ClosedLoop,
    CreditPopulation,
    CreditScoringSystem,
    DefaultRateFilter,
    SimulationHistory,
    equal_impact_assessment,
    equal_treatment_assessment,
)
from repro.experiments import CaseStudyConfig, run_experiment, run_trial

__version__ = "1.0.0"

__all__ = [
    "ClosedLoop",
    "CreditPopulation",
    "CreditScoringSystem",
    "DefaultRateFilter",
    "SimulationHistory",
    "equal_treatment_assessment",
    "equal_impact_assessment",
    "CaseStudyConfig",
    "run_trial",
    "run_experiment",
    "__version__",
]
