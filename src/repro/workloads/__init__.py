"""Workload generation: random, cloud-style, and structured instances.

All generators take explicit seeds/Generators (reproducible by default) and
return validated :class:`~repro.model.instance.Instance` objects whose jobs
respect the declared slack.
"""

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
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.sharding import (
    MergeConflict,
    MergeResult,
    ShardJournalInfo,
    ShardPlan,
    merge_journals,
    shard_journal_paths,
)
from repro.workloads.journal import (
    CorruptionEvent,
    CorruptionReport,
    JournalError,
    JournalIntegrityError,
    JournalMismatchError,
    JournalVerification,
    SweepJournal,
    load_journal,
    salvage_journal,
    verify_journal,
)
from repro.workloads.transport import (
    CollectResult,
    CommandTransport,
    LocalDirTransport,
    Transport,
    TransferPolicy,
    TransferRecord,
    TransferTimeout,
    TransportError,
    collect_journals,
    fetch_resumable,
)
from repro.workloads.resilient import (
    CellFailure,
    FailureManifest,
    HostFailure,
    ResilientSweepResult,
    SweepExecutionError,
    SweepInterrupted,
    WorkerFailure,
)
from repro.workloads.elastic import CellQueue, Lease, SpeculationMismatch
from repro.workloads.remote import (
    HostLink,
    HostSpec,
    env_fingerprint,
    load_hosts,
)
from repro.workloads.traces import (
    instance_from_csv,
    instance_to_csv,
    load_trace,
    save_trace,
)

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
