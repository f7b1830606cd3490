"""Uniform algorithm registry and runner.

Benchmarks and examples refer to algorithms by name; the registry maps
names to factories and knows which execution engine each algorithm needs
(non-preemptive commitments, per-machine preemption, or migration).  The
:func:`run_algorithm` entry point returns a homogeneous :class:`RunResult`
so the analysis layer can compare accepted loads across machine models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.dasgupta_palis import DasGuptaPalisPolicy
from repro.baselines.goldwasser import GoldwasserKerbikovPolicy
from repro.baselines.greedy import GreedyPolicy
from repro.baselines.lee import LeeStylePolicy
from repro.baselines.migration import MigrationGreedyScheduler
from repro.baselines.reference import RandomAdmissionPolicy
from repro.core.randomized import ClassifyAndSelect
from repro.core.threshold import AllocationRule, ThresholdPolicy
from repro.engine.preemptive import simulate_preemptive
from repro.engine.simulator import simulate
from repro.model.instance import Instance


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry: how to build and run one algorithm."""

    name: str
    factory: Callable[..., Any]
    model: str  # "nonpreemptive" | "preemptive" | "migration"
    single_machine_only: bool = False
    randomized: bool = False
    description: str = ""


@dataclass
class RunResult:
    """Outcome of one algorithm on one instance, engine-agnostic."""

    algorithm: str
    instance: Instance
    accepted_load: float
    accepted_count: int
    detail: Any = field(repr=False, default=None)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of submitted jobs accepted."""
        n = len(self.instance)
        return 1.0 if n == 0 else self.accepted_count / n

    @property
    def stats(self) -> Any:
        """Kernel :class:`~repro.engine.kernel.RunStats` of the run.

        ``None`` for engines not yet kernel-backed (the migration model).
        """
        meta = getattr(self.detail, "meta", None)
        return meta.get("stats") if meta is not None else None

    @property
    def events(self) -> Any:
        """Kernel :class:`~repro.engine.kernel.EventStream` when recorded."""
        meta = getattr(self.detail, "meta", None)
        return meta.get("events") if meta is not None else None


def _make_random_admission(**kwargs):
    return RandomAdmissionPolicy(**kwargs)


def _make_delayed_greedy(**kwargs):
    from repro.engine.delayed import DelayedGreedyPolicy

    return DelayedGreedyPolicy(**kwargs)


def _make_admission_greedy(**kwargs):
    from repro.engine.admission import AdmissionGreedyPolicy

    return AdmissionGreedyPolicy(**kwargs)


def _make_admission_lazy(**kwargs):
    from repro.engine.admission import AdmissionLazyPolicy

    return AdmissionLazyPolicy(**kwargs)


def _make_revocable_greedy(**kwargs):
    from repro.engine.penalties import RevocableGreedyPolicy

    return RevocableGreedyPolicy(**kwargs)


ALGORITHMS: dict[str, AlgorithmSpec] = {
    "threshold": AlgorithmSpec(
        "threshold",
        ThresholdPolicy,
        "nonpreemptive",
        description="Algorithm 1 of the paper (Theorem 2).",
    ),
    "threshold[worst-fit]": AlgorithmSpec(
        "threshold[worst-fit]",
        lambda: ThresholdPolicy(allocation=AllocationRule.WORST_FIT),
        "nonpreemptive",
        description="Ablation: Threshold with worst-fit allocation.",
    ),
    "threshold[first-fit]": AlgorithmSpec(
        "threshold[first-fit]",
        lambda: ThresholdPolicy(allocation=AllocationRule.FIRST_FIT),
        "nonpreemptive",
        description="Ablation: Threshold with first-fit allocation.",
    ),
    "greedy": AlgorithmSpec(
        "greedy",
        GreedyPolicy,
        "nonpreemptive",
        description="Accept-if-feasible with best-fit list scheduling (Kim–Chwa).",
    ),
    "greedy[least-loaded]": AlgorithmSpec(
        "greedy[least-loaded]",
        lambda: GreedyPolicy(placement="least-loaded"),
        "nonpreemptive",
        description="Greedy with least-loaded placement.",
    ),
    "goldwasser-kerbikov": AlgorithmSpec(
        "goldwasser-kerbikov",
        GoldwasserKerbikovPolicy,
        "nonpreemptive",
        single_machine_only=True,
        description="Optimal deterministic single machine (2 + 1/eps).",
    ),
    "lee-style": AlgorithmSpec(
        "lee-style",
        LeeStylePolicy,
        "nonpreemptive",
        description="Reconstruction of Lee's classify-by-size algorithm.",
    ),
    "dasgupta-palis": AlgorithmSpec(
        "dasgupta-palis",
        DasGuptaPalisPolicy,
        "preemptive",
        description="Preemptive (no migration) feasibility-greedy (1 + 1/eps).",
    ),
    "migration-greedy": AlgorithmSpec(
        "migration-greedy",
        MigrationGreedyScheduler,
        "migration",
        description="Feasibility-greedy in the preemption+migration model.",
    ),
    "classify-select": AlgorithmSpec(
        "classify-select",
        ClassifyAndSelect,
        "nonpreemptive",
        single_machine_only=True,
        randomized=True,
        description="Randomized single-machine classify-and-select (Corollary 1).",
    ),
    "random-admission": AlgorithmSpec(
        "random-admission",
        _make_random_admission,
        "nonpreemptive",
        randomized=True,
        description="Coin-flip admission floor (accept feasible jobs w.p. q).",
    ),
    "delayed-greedy": AlgorithmSpec(
        "delayed-greedy",
        _make_delayed_greedy,
        "delayed",
        description="δ-delayed commitment: defer maximally, admit by value "
        "(delta defaults to the instance slack).",
    ),
    "admission-greedy": AlgorithmSpec(
        "admission-greedy",
        _make_admission_greedy,
        "admission",
        description="Commitment on admission: start the largest startable pending job.",
    ),
    "admission-lazy": AlgorithmSpec(
        "admission-lazy",
        _make_admission_lazy,
        "admission",
        description="Commitment on admission: wait until forced, then start the largest.",
    ),
    "revocable-greedy": AlgorithmSpec(
        "revocable-greedy",
        _make_revocable_greedy,
        "penalties",
        description="Commitment with penalties: latest-feasible greedy with "
        "profitable swaps (phi defaults to 0.5).",
    ),
}


def make_algorithm(name: str, **kwargs: Any) -> Any:
    """Instantiate a registered algorithm by name."""
    spec = ALGORITHMS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        )
    return spec.factory(**kwargs)


def run_algorithm(
    name: str,
    instance: Instance,
    record_events: bool = False,
    **kwargs: Any,
) -> RunResult:
    """Run algorithm *name* on *instance* with the right engine.

    Every kernel-backed model (all but migration) goes through
    :func:`repro.engine.kernel.run_model`, so the result carries identical
    instrumentation regardless of the commitment model:
    ``result.stats`` (always) and ``result.events`` (with
    ``record_events=True``).  ``detail`` carries the engine-native object
    (a :class:`~repro.model.schedule.Schedule`, a ``PreemptiveOutcome`` or
    a ``MigrationOutcome``) for deeper inspection.
    """
    spec = ALGORITHMS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        )
    if spec.single_machine_only and instance.machines != 1:
        raise ValueError(f"{name} only runs on single-machine instances")
    # Engine-level kwargs are consumed before the policy factory sees them.
    delta = kwargs.pop("delta", None) if spec.model == "delayed" else None
    phi = kwargs.pop("phi", None) if spec.model == "penalties" else None
    algorithm = spec.factory(**kwargs)
    if spec.model == "nonpreemptive":
        schedule = simulate(algorithm, instance, record_events=record_events)
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=schedule.accepted_load,
            accepted_count=schedule.accepted_count,
            detail=schedule,
        )
    if spec.model == "preemptive":
        outcome = simulate_preemptive(algorithm, instance, record_events=record_events)
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=outcome.accepted_load,
            accepted_count=len(outcome.accepted_ids),
            detail=outcome,
        )
    if spec.model == "migration":
        outcome = algorithm.run(instance)
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=outcome.accepted_load,
            accepted_count=len(outcome.accepted_ids),
            detail=outcome,
        )
    if spec.model == "admission":
        from repro.engine.admission import simulate_admission

        schedule = simulate_admission(algorithm, instance, record_events=record_events)
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=schedule.accepted_load,
            accepted_count=schedule.accepted_count,
            detail=schedule,
        )
    if spec.model == "penalties":
        from repro.engine.penalties import DEFAULT_PHI, simulate_with_penalties

        outcome = simulate_with_penalties(
            algorithm,
            instance,
            DEFAULT_PHI if phi is None else phi,
            record_events=record_events,
        )
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=outcome.completed_load,
            accepted_count=len(outcome.completed),
            detail=outcome,
        )
    if spec.model == "delayed":
        from repro.engine.delayed import simulate_delayed

        if delta is None:
            delta = instance.epsilon
        schedule = simulate_delayed(
            algorithm, instance, min(delta, instance.epsilon), record_events=record_events
        )
        return RunResult(
            algorithm=name,
            instance=instance,
            accepted_load=schedule.accepted_load,
            accepted_count=schedule.accepted_count,
            detail=schedule,
        )
    raise RuntimeError(f"unknown execution model {spec.model!r}")  # pragma: no cover
