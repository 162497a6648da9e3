"""Worker-centric control plane core."""

from .characteristics import CharacteristicsMap, FunctionStats, MovingAverage
from .config import WorkerConfig, WorkerLatencyProfile, load_config
from .container_pool import ContainerPool
from .function import FunctionRegistration, Invocation, InvocationResult
from .lifecycle import (
    STAGES,
    InvocationContext,
    InvocationLifecycle,
    StageTracker,
)
from .worker import Worker

__all__ = [
    "CharacteristicsMap",
    "FunctionStats",
    "MovingAverage",
    "WorkerConfig",
    "WorkerLatencyProfile",
    "load_config",
    "ContainerPool",
    "FunctionRegistration",
    "Invocation",
    "InvocationResult",
    "STAGES",
    "InvocationContext",
    "InvocationLifecycle",
    "StageTracker",
    "Worker",
]
