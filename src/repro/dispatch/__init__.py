"""Pull dispatch: idle workers claim invocations from a shared queue.

Push placement (CH-BL and the baseline balancers) lives in
:mod:`repro.loadbalancer`; this package holds the pull family.  See
:mod:`repro.dispatch.pull` for the offer/claim contract and the
shared-queue policies, and :mod:`repro.dispatch.engine` for the claim
loops that drive them.
"""

from .engine import PullEngine
from .pull import LocalityPullDispatch, Offer, PullDispatch
from .registry import PULL_POLICIES, is_pull_policy, make_dispatch

__all__ = [
    "Offer",
    "PullEngine",
    "PullDispatch",
    "LocalityPullDispatch",
    "PULL_POLICIES",
    "is_pull_policy",
    "make_dispatch",
]
