"""Subscriptions and notifications.

A subscription ``S = (f, Ql, Qc)`` (Section 6): a frequency
specification, a Lorel polling query, and a Chorel filter query over the
DOEM database QSS maintains for the subscription.  The filter query may
use the special time variables ``t[0]`` (the current polling time),
``t[-1]`` (the previous one), and so on; ``t[-i]`` is negative infinity
when fewer than ``i+1`` polls have happened.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import SubscriptionError
from ..lorel.ast import Definition, Query
from ..lorel.parser import parse_definition, parse_query
from ..lorel.result import QueryResult
from ..oem.model import OEMDatabase
from ..timestamps import NEG_INF, Timestamp
from .frequency import FrequencySpec

__all__ = ["Subscription", "Notification", "polling_time_mapping"]

_MAX_LOOKBACK = 64


@dataclass(frozen=True)
class Notification:
    """One delivery to a subscriber: the filter-query result at a poll.

    ``elapsed`` is the server-side wall time (seconds) spent executing
    the poll that produced this notification -- source query, diff
    incorporation (shared by every subscription with the same poll key),
    and filter evaluation included -- so clients can see
    per-subscription evaluation cost without scraping server metrics.
    """

    subscription: str
    polling_time: Timestamp
    poll_index: int
    result: QueryResult
    answer: OEMDatabase
    elapsed: float | None = None

    def __bool__(self) -> bool:
        return bool(self.result)

    def __str__(self) -> str:
        body = str(self.result) if self.result else "(no changes of interest)"
        return f"[{self.polling_time}] {self.subscription}: {body}"


@dataclass
class Subscription:
    """One subscription: name, frequency, polling query, filter query.

    ``polling_query`` is plain Lorel; ``filter_query`` is Chorel and is
    evaluated against the DOEM database named after the polling query
    (``Restaurants.restaurant<cre at T>`` in Example 6.1).  Both may be
    given as text or pre-parsed ASTs.  ``polling_name`` names the DOEM
    database; it defaults to the subscription name.
    """

    name: str
    frequency: FrequencySpec | str
    polling_query: Query | str
    filter_query: Query | str
    polling_name: str | None = None
    user: str = "local"

    def __post_init__(self) -> None:
        if isinstance(self.frequency, str):
            self.frequency = FrequencySpec.parse(self.frequency)
        if isinstance(self.polling_query, str):
            self.polling_query = parse_query(self.polling_query,
                                             allow_annotations=False)
        if isinstance(self.filter_query, str):
            self.filter_query = parse_query(self.filter_query,
                                            allow_annotations=True)
        if self.polling_name is None:
            self.polling_name = self.name

    @classmethod
    def from_definitions(cls, name: str, frequency: str,
                         polling: str, filter_: str,
                         user: str = "local") -> "Subscription":
        """Build a subscription from ``define ... query`` statements.

        ``polling`` must be a ``define polling query N as ...`` statement
        and ``filter_`` a ``define filter query M as ...`` statement; the
        filter query refers to the DOEM database by the *polling* query's
        name ``N`` (Section 6's convention).
        """
        polling_def = parse_definition(polling, allow_annotations=False)
        filter_def = parse_definition(filter_, allow_annotations=True)
        if polling_def.kind != "polling":
            raise SubscriptionError(
                f"{polling_def.name!r} is not a polling query definition")
        if filter_def.kind != "filter":
            raise SubscriptionError(
                f"{filter_def.name!r} is not a filter query definition")
        return cls(name=name, frequency=frequency,
                   polling_query=polling_def.query,
                   filter_query=filter_def.query,
                   polling_name=polling_def.name, user=user)


def polling_time_mapping(times: list[Timestamp]) -> dict[int, Timestamp]:
    """The ``t[i]`` mapping after the polls in ``times`` have happened.

    ``t[0]`` is the latest poll, ``t[-i]`` the i-th previous one;
    indices reaching before the first poll map to negative infinity
    ("we define t[-i] to be t_{k-i} if i < k, and negative infinity
    otherwise", Section 6).
    """
    mapping: dict[int, Timestamp] = {}
    k = len(times)
    for back in range(0, _MAX_LOOKBACK):
        index = k - 1 - back
        mapping[-back] = times[index] if index >= 0 else NEG_INF
    return mapping
