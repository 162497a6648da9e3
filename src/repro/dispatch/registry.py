"""Name -> pull dispatch policy factory.

Push names (CH-BL, round-robin, least-loaded) are balancers built by
:func:`repro.loadbalancer.policies.make_balancer`; this registry knows
only the pull policies, and :func:`is_pull_policy` is how the cluster
picks its engine.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.core import Environment
from .pull import LocalityPullDispatch, PullDispatch

__all__ = ["PULL_POLICIES", "is_pull_policy", "make_dispatch"]

# Canonical names; make_dispatch lowercases its input before lookup.
PULL_POLICIES = frozenset({"pull", "pull_local"})


def is_pull_policy(name: str) -> bool:
    return str(name).lower() in PULL_POLICIES


def make_dispatch(name: str, *,
                  env: Optional[Environment] = None,
                  warm_fn: Optional[Callable[[str, str], bool]] = None,
                  ) -> PullDispatch:
    """Build a pull policy by name: both need ``env`` (the queue parks
    workers on kernel events) and ``pull_local`` additionally needs
    ``warm_fn``."""
    key = str(name).lower()
    if key not in PULL_POLICIES:
        raise ValueError(
            f"unknown pull dispatch policy {name!r}; choose from "
            f"{sorted(PULL_POLICIES)}"
        )
    if env is None:
        raise ValueError(f"pull policy {name!r} requires env=")
    if key == "pull":
        return PullDispatch(env)
    if warm_fn is None:
        raise ValueError("pull_local requires warm_fn=(worker, fqdn) -> bool")
    return LocalityPullDispatch(env, warm_fn)
