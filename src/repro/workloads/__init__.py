"""Workload generation: random, cloud-style, and structured instances.

All generators take explicit seeds/Generators (reproducible by default) and
return validated :class:`~repro.model.instance.Instance` objects whose jobs
respect the declared slack.  The sweep-execution names (execution policy,
sharding, journal, transport, lease loop) are re-exported on first use
(PEP 562), so importing a generator does not load the sweep stack.
"""

import importlib

from repro.workloads.random_instances import (
    ProcessingDistribution,
    random_instance,
    tight_slack_instance,
    poisson_instance,
)
from repro.workloads.cloud import cloud_instance, ServiceClass, DEFAULT_SERVICE_MIX
from repro.workloads.structured import (
    burst_instance,
    staircase_instance,
    alternating_instance,
    overload_instance,
    adversarial_like_instance,
)
from repro.workloads.sweep import SweepSpec, SweepRow, cell_seed_for
from repro.workloads.arrivals import batch_arrival_instance, mmpp_instance
from repro.workloads.traces import (
    instance_from_csv,
    instance_to_csv,
    load_trace,
    save_trace,
)

#: Sweep-execution name -> the module it is re-exported from.
_LAZY = {
    **dict.fromkeys(("ExecutionPolicy", "execute_sweep"), "repro.workloads.execute"),
    **dict.fromkeys(
        (
            "MergeConflict",
            "MergeResult",
            "ShardJournalInfo",
            "ShardPlan",
            "merge_journals",
            "shard_journal_paths",
        ),
        "repro.workloads.sharding",
    ),
    **dict.fromkeys(
        (
            "CorruptionEvent",
            "CorruptionReport",
            "JournalError",
            "JournalIntegrityError",
            "JournalMismatchError",
            "JournalVerification",
            "SweepJournal",
            "load_journal",
            "salvage_journal",
            "verify_journal",
        ),
        "repro.workloads.journal",
    ),
    **dict.fromkeys(
        (
            "CollectResult",
            "CommandTransport",
            "LocalDirTransport",
            "Transport",
            "TransferPolicy",
            "TransferRecord",
            "TransferTimeout",
            "TransportError",
            "collect_journals",
            "fetch_resumable",
        ),
        "repro.workloads.transport",
    ),
    **dict.fromkeys(
        (
            "CellFailure",
            "FailureManifest",
            "HostFailure",
            "ResilientSweepResult",
            "SweepExecutionError",
            "SweepInterrupted",
            "WorkerFailure",
        ),
        "repro.workloads.resilient",
    ),
    **dict.fromkeys(
        ("CellQueue", "Lease", "SpeculationMismatch"), "repro.workloads.elastic"
    ),
    **dict.fromkeys(
        ("HostLink", "HostSpec", "env_fingerprint", "load_hosts"),
        "repro.workloads.remote",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "ProcessingDistribution",
    "random_instance",
    "tight_slack_instance",
    "poisson_instance",
    "cloud_instance",
    "ServiceClass",
    "DEFAULT_SERVICE_MIX",
    "burst_instance",
    "staircase_instance",
    "alternating_instance",
    "overload_instance",
    "adversarial_like_instance",
    "SweepSpec",
    "SweepRow",
    "cell_seed_for",
    "ExecutionPolicy",
    "execute_sweep",
    "ShardPlan",
    "ShardJournalInfo",
    "MergeConflict",
    "MergeResult",
    "merge_journals",
    "shard_journal_paths",
    "CellFailure",
    "CellQueue",
    "FailureManifest",
    "HostFailure",
    "HostLink",
    "HostSpec",
    "Lease",
    "env_fingerprint",
    "load_hosts",
    "ResilientSweepResult",
    "SpeculationMismatch",
    "SweepExecutionError",
    "SweepInterrupted",
    "WorkerFailure",
    "SweepJournal",
    "CorruptionEvent",
    "CorruptionReport",
    "JournalError",
    "JournalIntegrityError",
    "JournalMismatchError",
    "JournalVerification",
    "load_journal",
    "salvage_journal",
    "verify_journal",
    "Transport",
    "TransportError",
    "TransferTimeout",
    "TransferPolicy",
    "TransferRecord",
    "CollectResult",
    "LocalDirTransport",
    "CommandTransport",
    "collect_journals",
    "fetch_resumable",
    "instance_from_csv",
    "instance_to_csv",
    "load_trace",
    "save_trace",
    "mmpp_instance",
    "batch_arrival_instance",
]
