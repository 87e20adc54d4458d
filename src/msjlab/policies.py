"""Policy names, the smallest-need-first packing and the audit result.

The engines in ``engines.py`` are the package's one statement of each
policy's semantics.  ``snf_allocation`` is the SNF packing as a function of
the per-type job counts, which the CTMC oracle solves over; ``AuditResult``
is the work-conservation audit ``collect_stats`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class PolicyKind(Enum):
    FCFS = "fcfs"
    SNF = "snf"
    SNF_NP = "snf-np"
    MODIFIED_FCFS = "mod-fcfs"
    INFINITE_SERVER = "inf"


def snf_allocation(x: Sequence[int] | np.ndarray, n: int,
                   needs: Sequence[int]) -> np.ndarray:
    """Greedy smallest-need-first packing of the count vector x, or of each
    row of an (S, I) array of count vectors."""
    x = np.asarray(x)
    z = np.empty_like(x)
    remaining = n
    for i, l_i in enumerate(needs):
        z[..., i] = np.minimum(x[..., i], remaining // l_i)
        remaining = remaining - l_i * z[..., i]
    return z


@dataclass(frozen=True)
class AuditResult:
    """Work-conservation audit over a trajectory.

    ``violations`` counts epochs where the busy-server total fell below
    min(total server need, n - delta_prime); ``worst_slack`` is the smallest
    margin seen (negative iff there was a violation, +inf for an empty
    trajectory).
    """

    violations: int
    worst_slack: float
