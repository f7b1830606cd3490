"""The kernel-backend seam: scalar golden path vs NumPy batch kernels.

Every simulation in this library can be expressed as a
:class:`SimulationRequest` (algorithm name + instance + kwargs) and routed
through :func:`run_simulations`, which dispatches to one of two
:class:`KernelBackend` implementations:

``scalar``
    Today's pure-Python event loop, completely untouched: requests are
    forwarded one-by-one to :func:`repro.baselines.registry.run_algorithm`
    and therefore through :func:`repro.engine.kernel.run_model`.  This is
    the golden reference every other backend is measured against.

``batch``
    Structure-of-arrays NumPy kernels (:mod:`repro.engine.batch`) for the
    immediate model — including the randomized ``random-admission`` and
    ``classify-select`` via per-lane RNG-stream replay — that step groups
    of compatible requests through vectorised decision rules.  The
    contract is *bit-identity*: schedules, ``RunStats`` counters and
    journal rows match the scalar backend exactly (asserted by
    ``tests/engine/test_backends.py``).

``auto``
    Batch for groups of at least :data:`_AUTO_MIN_GROUP` compatible
    requests, scalar everywhere else — see ``docs/engine_backends.md``.

Randomized algorithms carry their RNG seed inside the grouping key, so
two requests with different seeds can never share a lane row (they would
silently replay the wrong stream otherwise); live ``numpy.random.Generator``
objects are scalar-only because their mutable state cannot be replayed.

Unsupported algorithm/backend combinations never fail silently: under
``backend="batch"`` they fall back to scalar with a
:class:`BackendFallbackWarning`; under ``auto`` the fallback is the
expected behaviour and stays quiet.  The delayed, commitment-on-admission
and penalties models (``delayed-greedy``, ``admission-greedy``,
``admission-lazy``, ``revocable-greedy``) are among them: the first two
run as one flat loop each, the last scans only the plans that have not
started, and each outran the batch kernel it replaced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.engine.batch import DEFAULT_Q, DEFAULT_RANDOM_SEED, IMMEDIATE_RULES
from repro.model.instance import Instance
from repro.utils.rng import DEFAULT_SEED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.baselines.registry import RunResult

#: Valid values for every ``backend=`` argument in this library.
BACKEND_CHOICES = ("auto", "scalar", "batch")

#: Minimum compatible group size for ``auto`` to batch.  The kernels
#: vectorise *across* lanes, so a single run gains nothing from SoA layout
#: (the arrays hold one row).
_AUTO_MIN_GROUP = 2


def _seed_key(rng: Any) -> int | None:
    """Normalise an ``rng`` kwarg into a groupable seed, or ``None``.

    Mirrors :func:`repro.utils.rng.rng_from_any`: ``None`` means the
    library default seed, integers pass through.  Live ``Generator``
    objects (or anything else) return ``None`` — unsupported, because
    their mutable state cannot be replayed across lanes.
    """
    if rng is None:
        return DEFAULT_SEED
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return int(rng)
    return None


class BackendFallbackWarning(UserWarning):
    """Emitted when an explicit ``backend="batch"`` request falls back."""


@dataclass(frozen=True)
class SimulationRequest:
    """One algorithm run: the unit of work the backend seam dispatches."""

    algorithm: str
    instance: Instance
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    record_events: bool = False


class KernelBackend:
    """Protocol for simulation backends.

    A backend advertises which requests it can serve (:meth:`supports`)
    and runs a sequence of them (:meth:`run_many`), returning
    :class:`~repro.baselines.registry.RunResult` objects in request order.
    """

    name: str = "backend"

    def supports(self, request: SimulationRequest) -> bool:
        raise NotImplementedError

    def run_many(self, requests: Sequence[SimulationRequest]) -> "list[RunResult]":
        raise NotImplementedError

    def run(self, request: SimulationRequest) -> "RunResult":
        return self.run_many([request])[0]


class ScalarBackend(KernelBackend):
    """The golden reference: per-request dispatch to the scalar kernel."""

    name = "scalar"

    def supports(self, request: SimulationRequest) -> bool:
        return True

    def run_many(self, requests: Sequence[SimulationRequest]) -> "list[RunResult]":
        from repro.baselines.registry import run_algorithm

        return [
            run_algorithm(
                r.algorithm,
                r.instance,
                record_events=r.record_events,
                **dict(r.kwargs),
            )
            for r in requests
        ]


class BatchBackend(KernelBackend):
    """Structure-of-arrays NumPy kernels for supported models."""

    name = "batch"

    def group_key(self, request: SimulationRequest) -> tuple | None:
        """Compatibility key, or ``None`` when the request is unsupported.

        Requests sharing a key can run through one batched kernel call.
        Immediate-model groups additionally share the (machines, jobs)
        shape so the SoA arrays stay rectangular, and randomized
        algorithms share the *seed* — mixed-seed requests must never share
        a pre-drawn lane row.  Event recording always falls back — the
        batch kernels do not replay per-decision event streams.
        """
        if request.record_events:
            return None
        kwargs = request.kwargs
        if request.algorithm in IMMEDIATE_RULES:
            if kwargs:
                return None
            rule = IMMEDIATE_RULES[request.algorithm]
            if rule.single_machine and request.instance.machines != 1:
                return None  # let the scalar registry raise its canonical error
            return (
                "immediate",
                request.algorithm,
                request.instance.machines,
                len(request.instance),
            )
        if request.algorithm == "random-admission":
            if set(kwargs) - {"q", "rng"}:
                return None
            seed = (
                _seed_key(kwargs["rng"]) if "rng" in kwargs else DEFAULT_RANDOM_SEED
            )
            if seed is None:
                return None
            return (
                "immediate-random",
                float(kwargs.get("q", DEFAULT_Q)),
                seed,
                request.instance.machines,
                len(request.instance),
            )
        if request.algorithm == "classify-select":
            if set(kwargs) - {"virtual_machines", "rng", "selected"}:
                return None
            if request.instance.machines != 1:
                return None  # scalar raises the canonical single-machine error
            seed = _seed_key(kwargs.get("rng"))
            if seed is None:
                return None
            selected = kwargs.get("selected")
            if selected is not None and not isinstance(selected, (int, np.integer)):
                return None
            virtual_m = kwargs.get("virtual_machines")
            if virtual_m is None:
                from repro.core.randomized import default_virtual_machines

                try:
                    virtual_m = default_virtual_machines(request.instance.epsilon)
                except ValueError:
                    return None
            return (
                "classify",
                int(virtual_m),
                None if selected is None else int(selected),
                seed,
                len(request.instance),
            )
        return None

    def supports(self, request: SimulationRequest) -> bool:
        return self.group_key(request) is not None

    def run_many(self, requests: Sequence[SimulationRequest]) -> "list[RunResult]":
        from repro.baselines.registry import RunResult
        from repro.engine.batch import (
            run_classify_select_batch,
            run_immediate_batch,
            run_random_admission_batch,
        )

        requests = list(requests)
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            key = self.group_key(request)
            if key is None:
                raise ValueError(
                    f"algorithm {request.algorithm!r} is not supported by the "
                    "batch backend; route through run_simulations() for "
                    "scalar fallback"
                )
            groups.setdefault(key, []).append(i)

        results: list[RunResult | None] = [None] * len(requests)
        for key, members in groups.items():
            kind = key[0]
            if kind == "immediate":
                rule = IMMEDIATE_RULES[key[1]]
                chunk = _chunk_size(key[2], key[3])
                runner = lambda insts, rule=rule: run_immediate_batch(rule, insts)
            elif kind == "immediate-random":
                chunk = _chunk_size(key[3], key[4])
                runner = lambda insts, k=key: run_random_admission_batch(
                    insts, q=k[1], rng=k[2]
                )
            else:  # classify
                # Working set scales with the *virtual* machine count.
                chunk = _chunk_size(key[1], key[4])
                runner = lambda insts, k=key: run_classify_select_batch(
                    insts, virtual_machines=k[1], rng=k[3], selected=k[2]
                )
            for lo in range(0, len(members), chunk):
                sel = members[lo : lo + chunk]
                schedules = runner([requests[i].instance for i in sel])
                for i, schedule in zip(sel, schedules):
                    results[i] = RunResult(
                        algorithm=requests[i].algorithm,
                        instance=schedule.instance,
                        accepted_load=schedule.accepted_load,
                        accepted_count=schedule.accepted_count,
                        detail=schedule,
                    )
        return results  # type: ignore[return-value]


def _chunk_size(machines: int, jobs: int) -> int:
    """Bound SoA working-set memory: ~20M floats across the history slabs."""
    return max(1, min(512, 20_000_000 // max(1, machines * max(jobs, 1))))


_SCALAR = ScalarBackend()
_BATCH = BatchBackend()

#: Singleton backend instances by name (``auto`` is a dispatch policy, not
#: a backend, and is handled by :func:`run_simulations`).
BACKENDS: dict[str, KernelBackend] = {"scalar": _SCALAR, "batch": _BATCH}


def run_simulations(
    requests: Iterable[SimulationRequest], backend: str = "auto"
) -> "list[RunResult]":
    """Run *requests* through the selected backend; results in order.

    ``backend="scalar"`` forwards everything to the golden path.
    ``backend="batch"`` batches every supported request and falls back to
    scalar for the rest with a loud :class:`BackendFallbackWarning`.
    ``backend="auto"`` batches exactly where the batch kernel is expected
    to win (groups of at least ``_AUTO_MIN_GROUP`` compatible requests)
    and is silent about the rest.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {BACKEND_CHOICES}"
        )
    requests = list(requests)
    if backend == "scalar" or not requests:
        return _SCALAR.run_many(requests)

    groups: dict[tuple, list[int]] = {}
    scalar_members: list[int] = []
    for i, request in enumerate(requests):
        key = _BATCH.group_key(request)
        if key is None:
            scalar_members.append(i)
        else:
            groups.setdefault(key, []).append(i)

    if backend == "batch" and scalar_members:
        names = sorted({requests[i].algorithm for i in scalar_members})
        warnings.warn(
            BackendFallbackWarning(
                f"{len(scalar_members)} request(s) not supported by the batch "
                f"backend (algorithms: {', '.join(names)}); falling back to "
                "the scalar kernel"
            ),
            stacklevel=2,
        )
    if backend == "auto":
        for key in list(groups):
            if len(groups[key]) < _AUTO_MIN_GROUP:
                scalar_members.extend(groups.pop(key))

    results: list = [None] * len(requests)
    for key, members in groups.items():
        batch_results = _BATCH.run_many([requests[i] for i in members])
        for i, result in zip(members, batch_results):
            results[i] = result
    for i in sorted(scalar_members):
        results[i] = _SCALAR.run(requests[i])
    return results


def run_simulation(request: SimulationRequest, backend: str = "auto") -> "RunResult":
    """Single-request convenience wrapper over :func:`run_simulations`."""
    return run_simulations([request], backend=backend)[0]


__all__ = [
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
