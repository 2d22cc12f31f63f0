"""Campaign orchestration: declarative scenario grids over the closed loop.

The experiments layer runs *one* configuration at a time; the campaign
layer runs the cross product the paper's discussion section gestures at —
"as many scenarios as you can imagine" — without recomputing anything
twice:

* :class:`~repro.campaign.spec.CampaignSpec` declares a grid of income
  scenario × policy arm × population size × seed, loadable
  from TOML/JSON, and expands into concrete
  :class:`~repro.campaign.spec.CampaignJob` configurations.
* :class:`~repro.campaign.cache.ResultCache` is a content-addressed store
  of completed job results: the key hashes exactly the trajectory-defining
  fields (:func:`~repro.experiments.runner.trajectory_fingerprint_fields`
  plus the arm identity), never the execution layout, so an entry written
  under any layout hits under every other, and re-running a campaign is a
  pure cache read.
* :func:`~repro.campaign.runner.run_campaign` executes the cache misses
  through the planner with a shared core budget
  (:func:`~repro.core.planner.plan_campaign_jobs`), supervised retries,
  and crash-safe resume: each completed job lands in the cache atomically,
  so an interrupted sweep restarts where it died.
"""

from repro.campaign.cache import CampaignJobSeries, ResultCache, job_key
from repro.campaign.runner import (
    CampaignPlan,
    CampaignResult,
    JobOutcome,
    plan_campaign,
    run_campaign,
)
from repro.campaign.spec import (
    ArmRef,
    CampaignJob,
    CampaignSpec,
    expand_campaign,
    load_campaign_spec,
)

__all__ = [
    "ArmRef",
    "CampaignJob",
    "CampaignJobSeries",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "JobOutcome",
    "ResultCache",
    "expand_campaign",
    "job_key",
    "load_campaign_spec",
    "plan_campaign",
    "run_campaign",
]
