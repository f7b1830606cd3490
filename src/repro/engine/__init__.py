"""Online simulation engine.

One shared kernel (:mod:`repro.engine.kernel`) owns the event loop,
decision validation, machine-timeline mutation, audit invocation and a
model-agnostic observability layer (structured events + per-run stats).
Each commitment model of the paper's §1 taxonomy plugs into it as a thin
:class:`~repro.engine.kernel.CommitmentModel` strategy:

* :mod:`repro.engine.simulator` — immediate commitment (the paper's model);
* :mod:`repro.engine.delayed` — δ-delayed commitment;
* :mod:`repro.engine.admission` — commitment on admission;
* :mod:`repro.engine.penalties` — commitment with penalties;
* :mod:`repro.engine.preemptive` — preemptive immediate notification
  (substrate of the Section 1.2 baselines).

The delayed and admission models are one flat loop each, which runs
their built-in policies (``DelayedGreedyPolicy``,
``AdmissionGreedyPolicy``, ``AdmissionLazyPolicy``) directly.

Every invalid policy decision, in every model, raises the unified
:class:`~repro.engine.kernel.SimulationError`; every run surfaces
``meta["stats"]`` and, on request, ``meta["events"]``.

Above the per-model simulators sits the **kernel-backend seam**
(:mod:`repro.engine.backend`): :func:`~repro.engine.backend.run_simulations`
dispatches :class:`~repro.engine.backend.SimulationRequest` batches either
to the scalar golden path above or to the structure-of-arrays NumPy
kernels of the immediate model (:mod:`repro.engine.batch`), which are
bit-identical to it — see ``docs/engine_backends.md``;
``docs/kernel_authoring.md`` explains how to add a kernel that keeps these
guarantees.  The delayed, admission and penalties models have no batch
kernel: their scalar engines are the fast path.

For request-at-a-time use (the ``repro serve`` service), the kernel's
event loop is also exposed incrementally: :func:`~repro.engine.controller.
open_session` opens an :class:`~repro.engine.controller.AdmissionController`
that drives the same immediate-commitment strategy one ``offer`` at a
time, with snapshot/restore by deterministic replay — bit-identical to
:func:`simulate` by construction (see ``docs/serving.md``).
"""

from repro.engine.kernel import (
    CommitmentModel,
    EventStream,
    JobFeed,
    KernelContext,
    RunStats,
    SimEvent,
    SimulationError,
    commit_decision,
    replay_events,
    run_model,
)
from repro.engine.policy import Decision, OnlinePolicy, JobSource, SequenceSource
from repro.engine.simulator import ImmediateCommitmentModel, simulate, simulate_source
from repro.engine.controller import (
    AdmissionController,
    SnapshotMismatchError,
    open_session,
)
from repro.engine.recorder import DecisionRecord, TraceRecorder
from repro.engine.preemptive import (
    PreemptiveCommitmentModel,
    PreemptiveMachine,
    PreemptiveOutcome,
    edf_feasible,
    simulate_preemptive,
    PreemptivePolicy,
)
from repro.engine.audit import audit_run, CommitmentAuditError
from repro.engine.delayed import (
    DelayedCommitmentModel,
    DelayedGreedyPolicy,
    simulate_delayed,
)
from repro.engine.admission import (
    AdmissionCommitmentModel,
    AdmissionGreedyPolicy,
    AdmissionLazyPolicy,
    simulate_admission,
)
from repro.engine.penalties import (
    DEFAULT_PHI,
    PenaltiesCommitmentModel,
    PenaltyPolicy,
    RevocableGreedyPolicy,
    PenaltyOutcome,
    simulate_with_penalties,
)
from repro.engine.batch import (
    ImmediateRule,
    IMMEDIATE_RULES,
    run_classify_select_batch,
    run_immediate_batch,
    run_random_admission_batch,
)
from repro.engine.backend import (
    BACKEND_CHOICES,
    BACKENDS,
    BackendFallbackWarning,
    BatchBackend,
    KernelBackend,
    ScalarBackend,
    SimulationRequest,
    run_simulation,
    run_simulations,
)

__all__ = [
    "CommitmentModel",
    "EventStream",
    "JobFeed",
    "KernelContext",
    "RunStats",
    "SimEvent",
    "SimulationError",
    "commit_decision",
    "replay_events",
    "run_model",
    "Decision",
    "OnlinePolicy",
    "JobSource",
    "SequenceSource",
    "ImmediateCommitmentModel",
    "simulate",
    "simulate_source",
    "AdmissionController",
    "SnapshotMismatchError",
    "open_session",
    "DecisionRecord",
    "TraceRecorder",
    "PreemptiveCommitmentModel",
    "PreemptiveMachine",
    "PreemptiveOutcome",
    "edf_feasible",
    "simulate_preemptive",
    "PreemptivePolicy",
    "audit_run",
    "CommitmentAuditError",
    "DelayedCommitmentModel",
    "DelayedGreedyPolicy",
    "simulate_delayed",
    "DEFAULT_PHI",
    "PenaltiesCommitmentModel",
    "PenaltyPolicy",
    "RevocableGreedyPolicy",
    "PenaltyOutcome",
    "simulate_with_penalties",
    "AdmissionCommitmentModel",
    "AdmissionGreedyPolicy",
    "AdmissionLazyPolicy",
    "simulate_admission",
    "ImmediateRule",
    "IMMEDIATE_RULES",
    "run_immediate_batch",
    "run_classify_select_batch",
    "run_random_admission_batch",
    "BACKEND_CHOICES",
    "BACKENDS",
    "BackendFallbackWarning",
    "BatchBackend",
    "KernelBackend",
    "ScalarBackend",
    "SimulationRequest",
    "run_simulation",
    "run_simulations",
]
