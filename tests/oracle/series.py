"""The derived series of a recorded stream, by definition, one user at a time.

The histories compute the paper's running quantities with numpy:
:class:`~repro.core.history.SimulationHistory` from its columns on each
call, :class:`~repro.core.streaming.AggregateHistory` as it records.  This
reference computes them the naive way, in Python floats, with one loop
over the steps and one over the users, straight from Equation (12) and
Definition 3:

* ``ADR_i(k) = 1 - (repayments up to k) / (offers up to k)``, and 0 before
  the user's first offer (a repayment counts only where offered);
* the Cesàro average ``(1 / (k + 1)) * sum_{j <= k} y_i(j)``;
* the approval rate, the share of users offered credit at step ``k``;
* a group's mean of any per-user series, its users' values added in user
  order, ``nan`` for an empty group.

On 0/1 decisions and actions every value is the same sequence of IEEE
operations the engine performs, so tests compare the two bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Rows = List[List[float]]


def running_series(
    decisions: Sequence[Sequence[float]], actions: Sequence[Sequence[float]]
) -> Tuple[Rows, Rows, List[float]]:
    """Return ``(adr, cesaro, approvals)`` of a ``(steps, users)`` stream.

    ``adr[k][i]`` is ``ADR_i(k)``, ``cesaro[k][i]`` the Cesàro average of
    user ``i``'s actions up to step ``k`` and ``approvals[k]`` the share of
    users offered credit at step ``k``.
    """
    users = len(decisions[0]) if decisions else 0
    offers = [0.0] * users
    repaid = [0.0] * users
    acted = [0.0] * users
    adr: Rows = []
    cesaro: Rows = []
    approvals: List[float] = []
    for k, (offered_row, action_row) in enumerate(zip(decisions, actions)):
        adr_row: List[float] = []
        cesaro_row: List[float] = []
        approved = 0.0
        for i in range(users):
            offered, action = float(offered_row[i]), float(action_row[i])
            offers[i] += offered
            repaid[i] += action * offered
            acted[i] += action
            adr_row.append(1.0 - repaid[i] / offers[i] if offers[i] > 0 else 0.0)
            cesaro_row.append(acted[i] / (k + 1))
            approved += offered
        adr.append(adr_row)
        cesaro.append(cesaro_row)
        approvals.append(approved / users)
    return adr, cesaro, approvals


def group_means(
    series: Sequence[Sequence[float]], groups: Mapping[object, Iterable[int]]
) -> Dict[object, List[float]]:
    """Return, per group, each step's mean of ``series`` over its users."""
    means: Dict[object, List[float]] = {}
    for key, members in groups.items():
        members = [int(i) for i in members]
        column: List[float] = []
        for row in series:
            if not members:
                column.append(math.nan)
                continue
            total = 0.0
            for i in members:
                total += float(row[i])
            column.append(total / len(members))
        means[key] = column
    return means
