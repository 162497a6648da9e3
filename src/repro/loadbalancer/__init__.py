"""Load balancing: CH-BL and the cluster front end."""

from .chbl import ConsistentHashRing, hash_point
from .cluster import Cluster
from .policies import (
    CHBLPolicy,
    LeastLoadedBalancer,
    LoadBalancingPolicy,
    RoundRobinBalancer,
    StatusBoard,
    make_balancer,
)

__all__ = [
    "ConsistentHashRing",
    "hash_point",
    "Cluster",
    "CHBLPolicy",
    "LeastLoadedBalancer",
    "LoadBalancingPolicy",
    "RoundRobinBalancer",
    "StatusBoard",
    "make_balancer",
]
