"""Feedback-control interventions on the closed loop.

The paper closes with the question of *how to impose constraints on the
equality of impact* and, throughout Section VI, with the observation that
the controller's structure (integral action, stability, connectivity of the
induced Markov graph) decides whether the loop is ergodic at all.  This
package provides two controllers in that spirit, each implementing the
:class:`repro.core.ai_system.AISystem` protocol so it drops straight into
:class:`repro.core.loop.ClosedLoop`:

* :class:`ImpactSteeringPolicy` — wraps the retraining scorecard lender and
  adds a score boost proportional to how far a user's historical default
  rate exceeds the population average, so users with poor histories keep
  receiving occasional offers and their long-run average can recover (a
  proportional controller on the equal-impact gap).
* :class:`EpsilonGreedyPolicy` — wraps any decision policy and flips each
  denial to an approval with a small exploration probability; this keeps
  every user's outcome graph strongly connected, which is exactly the
  condition Section VI needs for an invariant measure to exist.
"""

from repro.control.steering import ImpactSteeringPolicy
from repro.control.exploration import EpsilonGreedyPolicy

__all__ = [
    "ImpactSteeringPolicy",
    "EpsilonGreedyPolicy",
]
