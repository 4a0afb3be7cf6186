"""Probability-mass accounting shared by the sync and async sweep drivers.

The soundness argument for early exit, in one place: scenarios are
disjoint outcomes of the failure model whose probabilities sum to 1.
After verifying any subset of them,

* ``lower  = P(satisfied among verified)`` is a lower bound on the true
  probability that the query holds — unverified and uncertain mass can
  only add to it;
* ``upper  = 1 − P(unsatisfied among verified)`` is an upper bound —
  unverified and uncertain mass can only subtract from it.

"Holds with probability ≥ p" is therefore *decided* as soon as
``lower ≥ p`` (no remaining outcome can pull it back under) or
``upper < p`` (no remaining outcome can lift it over). Inconclusive,
timed-out or errored scenarios are counted as *uncertain*: they widen
the interval instead of silently biasing either bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ProbVerdict(enum.Enum):
    """Answer to "does the query hold with probability ≥ threshold?"."""

    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDED = "undecided"


@dataclass
class MassTracker:
    """Running lower/upper bounds on P(query holds) over verified mass."""

    threshold: Optional[float] = None
    satisfied: float = 0.0
    unsatisfied: float = 0.0
    #: Mass whose verdict is unknown (inconclusive / timeout / error).
    uncertain: float = 0.0

    def record(self, outcome: str, mass: float) -> None:
        """Fold one verified scenario's outcome into the bounds."""
        if outcome == "satisfied":
            self.satisfied += mass
        elif outcome == "unsatisfied":
            self.unsatisfied += mass
        else:
            self.uncertain += mass

    # ------------------------------------------------------------------
    @property
    def covered(self) -> float:
        """Total verified probability mass (including uncertain)."""
        return self.satisfied + self.unsatisfied + self.uncertain

    @property
    def residual(self) -> float:
        """Unverified probability mass (clamped against float drift)."""
        return max(0.0, 1.0 - self.covered)

    @property
    def lower(self) -> float:
        """Lower bound on P(query holds)."""
        return min(1.0, self.satisfied)

    @property
    def upper(self) -> float:
        """Upper bound on P(query holds).

        Clamped to at least :attr:`lower` — in exact arithmetic
        ``satisfied + unsatisfied ≤ 1`` always, so any inversion is
        float drift, not information.
        """
        return min(1.0, max(1.0 - self.unsatisfied, self.lower))

    @property
    def verdict(self) -> ProbVerdict:
        """The threshold verdict the current bounds support."""
        if self.threshold is None:
            return ProbVerdict.UNDECIDED
        if self.lower >= self.threshold:
            return ProbVerdict.HOLDS
        if self.upper < self.threshold:
            return ProbVerdict.FAILS
        return ProbVerdict.UNDECIDED

    @property
    def decided(self) -> bool:
        """True once no remaining mass can flip the verdict."""
        return self.verdict is not ProbVerdict.UNDECIDED
