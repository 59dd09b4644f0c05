"""Synchronous model: lock-step simulator, processes, wake-up schedules."""

from .process import ABSENT, Idle, In, Out, ProcessGen, SyncProcess, expect_single
from .simulator import ProcessFactory, default_cycle_budget, run_synchronous
from .wakeup import WakeupSchedule

__all__ = [
    "ABSENT",
    "Idle",
    "In",
    "Out",
    "ProcessFactory",
    "ProcessGen",
    "SyncProcess",
    "WakeupSchedule",
    "default_cycle_budget",
    "expect_single",
    "run_synchronous",
]
