"""Drive the lockstep kernel's recording by hand, one step at a time."""

from __future__ import annotations

import numpy as np


def record_step(rate_filter, decisions, actions, aggregator=None, parts=(slice(None),)):
    """Record one ``(trials, users)`` step in user ``parts``, as the kernel does.

    Each part (a slice of users) folds into ``rate_filter`` and then into
    ``aggregator`` when one is given, part by part; then the filter and the
    aggregator finish the step.  The filter takes the kernel's boolean
    offer and repayment masks of the 0/1 ``decisions`` and ``actions``.
    Returns the ``ADR_i(k)`` row the filter wrote.
    """
    offered, repaid = decisions != 0.0, actions != 0.0
    rates = np.empty(decisions.shape)
    records = []
    for users in parts:
        counts = rate_filter.fold(users, offered, repaid, rates)
        chunk = None if aggregator is None else aggregator.fold(users, decisions, rates)
        records.append((counts, chunk))
    rate_filter.finish_step([counts for counts, _ in records])
    if aggregator is not None:
        aggregator.finish_step(decisions, rates, [chunk for _, chunk in records])
    return rates
