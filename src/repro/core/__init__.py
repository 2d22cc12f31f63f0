"""The closed-loop view of an AI system and its users (paper Sections III-V).

The loop of Figure 1 has four boxes, each with a protocol and several
implementations in this package:

* **AI system** (:class:`AISystem`) — produces the output ``pi(k)`` (e.g.
  per-user credit decisions) from the public features and the filtered
  feedback, and may retrain itself on the delayed feedback.
* **Population** (:class:`Population`) — the ``N`` users; each step they
  reveal public features (e.g. the income code), then respond
  stochastically to the output with actions ``y_i(k)``.
* **Filter** (:class:`LoopFilter`) — aggregates the actions into the signal
  the AI system is retrained on (e.g. cumulative average default rates).
* **Delay** — built into the orchestrator: the AI system is retrained on the
  feedback computed *before* the current step's actions are filtered in.

:class:`ClosedLoop` wires the boxes together and records a
:class:`SimulationHistory`; :mod:`repro.core.fairness` turns histories into
equal-treatment and equal-impact assessments (Definitions 1-4).
"""

from repro.core.ai_system import (
    AISystem,
    ConstantDecisionSystem,
    CreditScoringSystem,
    ScorecardDecisionSystem,
)
from repro.core.population import (
    CreditPopulation,
    IFSPopulation,
    Population,
    PopulationPublicFeatures,
)
from repro.core.filters import (
    CumulativeAverageFilter,
    DefaultRateFilter,
    LoopFilter,
)
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointSpec,
    load_latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.loop import ClosedLoop
from repro.core.supervision import SupervisorPolicy
from repro.core.sharding import NUM_CANONICAL_SHARDS, ShardPlan
from repro.core.history import (
    FullHistoryRequiredError,
    SimulationHistory,
    StepRecord,
)
from repro.core.streaming import AggregateHistory
from repro.core.fairness import (
    ImpactAssessment,
    TreatmentAssessment,
    equal_impact_assessment,
    equal_treatment_assessment,
)
from repro.core.convergence import (
    ImpactGapSignificance,
    LongRunEstimate,
    estimate_long_run_average,
    impact_gap_significance,
)
from repro.core.metrics import (
    approval_rates_by_group,
    group_approval_series,
    group_average_series,
)

__all__ = [
    "AISystem",
    "ConstantDecisionSystem",
    "CreditScoringSystem",
    "ScorecardDecisionSystem",
    "Population",
    "PopulationPublicFeatures",
    "CreditPopulation",
    "IFSPopulation",
    "LoopFilter",
    "DefaultRateFilter",
    "CumulativeAverageFilter",
    "ClosedLoop",
    "CheckpointError",
    "CheckpointSpec",
    "SupervisorPolicy",
    "load_latest_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
    "NUM_CANONICAL_SHARDS",
    "ShardPlan",
    "SimulationHistory",
    "StepRecord",
    "AggregateHistory",
    "FullHistoryRequiredError",
    "TreatmentAssessment",
    "ImpactAssessment",
    "equal_treatment_assessment",
    "equal_impact_assessment",
    "LongRunEstimate",
    "estimate_long_run_average",
    "ImpactGapSignificance",
    "impact_gap_significance",
    "approval_rates_by_group",
    "group_approval_series",
    "group_average_series",
]
