"""Sequential composition and budget accounting.

GeoInd inherits DP's composability (Section 2.2): mechanisms applied in
succession with budgets ``eps_1, ..., eps_h`` jointly satisfy GeoInd at
``sum eps_i``.  MSM is "a textbook example" of this property (Section 4);
the :class:`BudgetAccountant` makes the bookkeeping explicit and
auditable for applications that issue *multiple* sanitised reports from
one user budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import BudgetError


def sequential_composition(epsilons: Iterable[float]) -> float:
    """Total GeoInd level of mechanisms applied in sequence.

    Raises
    ------
    BudgetError
        If any step budget is non-positive.
    """
    total = 0.0
    count = 0
    for eps in epsilons:
        if eps <= 0:
            raise BudgetError(f"step budgets must be positive, got {eps}")
        total += eps
        count += 1
    if count == 0:
        raise BudgetError("composition of zero mechanisms is undefined")
    return total


#: Relative tolerance for budget comparisons.  Accumulated float error
#: after ``k`` spends is bounded by ``k`` ulps of the running sum, so a
#: slack *relative to the lifetime budget* absorbs it at any scale —
#: unlike the absolute ``1e-12`` slack this replaces, which was far too
#: small for large budgets and needlessly large for tiny ones.
BUDGET_RTOL = 1e-9


def budget_slack(total: float) -> float:
    """The comparison slack for a budget of magnitude ``total``."""
    return BUDGET_RTOL * max(1.0, abs(total))


def fits_budget(epsilon: float, remaining: float, total: float) -> bool:
    """Whether spending ``epsilon`` fits ``remaining`` of ``total``.

    This is *the* admission predicate: :meth:`BudgetAccountant.spend`
    refuses through it, and :meth:`BudgetAccountant.can_afford` — which
    every admission goes through, the budget book of
    :mod:`repro.core.session` included — and
    :meth:`BudgetAccountant.affordable` simulate spends against it, so
    no two call sites can disagree about the same budget state.
    """
    return 0 < epsilon <= remaining + budget_slack(total)


def check_budgets(
    lifetime_epsilon: float,
    per_report_epsilon: float,
    walk_epsilon: float | None = None,
) -> None:
    """Refuse a budget configuration no report could be honest under.

    Both budgets must be finite and positive, one report must fit the
    lifetime, and the walk a report runs (``walk_epsilon``, when known)
    must not spend more than the report is charged.

    Raises
    ------
    BudgetError
        On the first violated rule.
    """
    for name, value in (
        ("lifetime", lifetime_epsilon),
        ("per-report", per_report_epsilon),
    ):
        if not 0 < value < math.inf:
            raise BudgetError(
                f"{name} budget must be finite and positive, got {value}"
            )
    if per_report_epsilon > lifetime_epsilon:
        raise BudgetError(
            f"per-report budget {per_report_epsilon} exceeds lifetime "
            f"budget {lifetime_epsilon}"
        )
    if walk_epsilon is not None and (
        walk_epsilon > per_report_epsilon + budget_slack(walk_epsilon)
    ):
        raise BudgetError(
            f"the walk spends epsilon={walk_epsilon:.4g} per report, more "
            f"than the per-report charge {per_report_epsilon:.4g}: a report "
            f"may never cost more than the session or pool charges for it"
        )


@dataclass
class BudgetAccountant:
    """Tracks privacy-budget expenditure across reports.

    Attributes
    ----------
    total:
        The lifetime budget available to this user.
    spent_items:
        Chronological record of ``(label, epsilon)`` expenditures.
    """

    total: float
    spent_items: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.total < math.inf:
            raise BudgetError(
                f"total budget must be finite and positive, got {self.total}"
            )
        # running total, maintained incrementally so that (a) spend /
        # can_spend are O(1) regardless of history length and (b)
        # can_afford() / affordable() can simulate future spends with
        # *exactly* the arithmetic spend() will perform.
        self._spent_total = 0.0
        for _, eps in self.spent_items:
            self._spent_total += float(eps)

    @property
    def spent(self) -> float:
        """Budget consumed so far."""
        return self._spent_total

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.total - self._spent_total

    def can_spend(self, epsilon: float) -> bool:
        """Whether a further expenditure of ``epsilon`` fits the budget."""
        return self.can_afford(epsilon, 1)

    def can_afford(self, epsilon: float, n: int) -> bool:
        """Whether ``n >= 1`` further spends of ``epsilon`` all succeed.

        Simulates the ``n - 1`` additions :meth:`spend` would make and
        checks only the last spend through :func:`fits_budget`: the
        remainder shrinks with every simulated spend, so if the last
        fits, every earlier one does.  Hence
        ``can_afford(eps, n) == (affordable(eps) >= n)`` at O(n) cost,
        where ``affordable`` walks the whole remaining lifetime.
        """
        simulated = self._spent_total
        for _ in range(n - 1):
            simulated += float(epsilon)
        return fits_budget(epsilon, self.total - simulated, self.total)

    def affordable(self, epsilon: float) -> int:
        """How many further spends of ``epsilon`` will succeed.

        Exact by construction: the count is obtained by simulating the
        identical float arithmetic :meth:`spend` performs (accumulate,
        compare through :func:`fits_budget`), so
        ``affordable(eps) == n`` guarantees exactly ``n`` subsequent
        ``spend(eps)`` calls succeed and the ``n+1``-th raises.  The
        closed-form ``remaining // eps`` this replaces used its own
        nudge and could disagree with ``can_spend`` by one report near
        the boundary.

        Raises
        ------
        BudgetError
            If ``epsilon`` is non-positive.
        """
        if epsilon <= 0:
            raise BudgetError(f"expenditure must be positive, got {epsilon}")
        simulated = self._spent_total
        count = 0
        while fits_budget(epsilon, self.total - simulated, self.total):
            count += 1
            simulated += float(epsilon)
        return count

    def spend(self, epsilon: float, label: str = "report") -> None:
        """Record an expenditure, refusing overdrafts.

        Raises
        ------
        BudgetError
            If the expenditure is non-positive or exceeds the remainder.
        """
        if epsilon <= 0:
            raise BudgetError(f"expenditure must be positive, got {epsilon}")
        if not self.can_spend(epsilon):
            raise BudgetError(
                f"budget exhausted: requested {epsilon:.4g}, "
                f"remaining {self.remaining:.4g} of {self.total:.4g}"
            )
        self.spent_items.append((label, float(epsilon)))
        self._spent_total += float(epsilon)

    def restore(self, epsilon: float, label: str = "restored") -> None:
        """Record an expenditure *unconditionally* (no admission check).

        This is the fail-closed entry point for crash recovery: a
        replayed budget journal may legitimately carry more spend than
        the configured lifetime (e.g. the lifetime was lowered between
        restarts, or a torn journal forces reservations to be counted
        as spent).  Refusing the restore would silently *reset* the
        user's spend — the exact violation the ledger exists to
        prevent — so the accountant swallows it and lets ``remaining``
        go to (or below) zero, after which :meth:`can_spend` refuses
        every further report.

        Raises
        ------
        BudgetError
            If ``epsilon`` is non-positive (a malformed journal entry,
            not a budget decision).
        """
        if epsilon <= 0:
            raise BudgetError(f"expenditure must be positive, got {epsilon}")
        self.spent_items.append((label, float(epsilon)))
        self._spent_total += float(epsilon)
