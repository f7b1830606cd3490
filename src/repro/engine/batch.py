"""Structure-of-arrays batch kernel for the immediate-commitment model.

This module is the NumPy half of the kernel-backend seam
(:mod:`repro.engine.backend`).  It steps a *batch* of instances through the
paper's immediate-commitment decision rules at once, holding the entire
simulation state as dense arrays:

* job data as ``(B, N)`` arrays (release / processing / deadline),
* per-machine commitment history as ``(B*M, N)`` start/end/prefix slabs,
* a monotone per-machine pointer that replays ``bisect_right(ends, t)``
  exactly (releases are non-decreasing, so the pointer never moves back).

The contract with the scalar kernel is **bit-identity**, not approximate
agreement: every float is produced by the same IEEE-754 operations in the
same order as :class:`repro.engine.simulator.ImmediateCommitmentModel`
driving the pure-Python policies, and every comparison goes through
:mod:`repro.utils.tolerances` (``fge``/``vsnap`` with ``TIME_EPS``).  The
cross-backend equivalence suite (``tests/engine/test_backends.py``) asserts
identical schedules, ``RunStats`` counters and journal rows.

Key correspondences with the scalar path:

* outstanding load: ``snap((ends[j] - max(starts[j], t)) + (prefix[n] -
  prefix[j+1]))`` with ``j = bisect_right(ends, t)`` — replicated with the
  same operand order via :func:`repro.utils.tolerances.vsnap`;
* threshold: ``d_lim = t + max(sorted_desc_loads[k-1:] * f)``, the same
  IEEE operations (descending ranks, one multiply per rank, a max and an
  add) that ``ThresholdPolicy.threshold_at`` runs on Python floats;
* tie-breaking: Python's ``max(..., key=(load, -index))`` picks the first
  maximal element, which is exactly ``np.argmax``'s first-occurrence rule
  (and ``min``/``np.argmin`` for worst-fit / least-loaded);
* commitments always append (``start = max(t, last_end)`` is never below a
  previous end), so the scalar machine's O(1) prefix extension is the only
  code path that needs replaying;
* randomized policies replay the scalar RNG stream operand-for-operand:
  ``Generator.random(n)`` is bit-identical to ``n`` sequential scalar
  ``.random()`` calls, so the kernel pre-draws the whole stream once and
  consumes it through a per-lane pointer that advances exactly when the
  scalar policy would have drawn (see :func:`run_random_admission_batch`).

Every stateful variant reduces to one of four admission modes over the
same step loop (``threshold``, ``greedy``, ``lee`` size classes, ``random``
coin flips), so adding a rule is a registry entry plus, at most, a new
admission branch — see ``docs/kernel_authoring.md`` for the full recipe.
The delayed/admission commitment models live in
:mod:`repro.engine.batch_delayed`; everything else falls back to the
scalar kernel via the dispatch layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.params import clamp_epsilon, threshold_parameters
from repro.engine.kernel import MAX_KERNEL_STEPS, RunStats, SimulationError
from repro.model.instance import Instance
from repro.model.schedule import Assignment, Schedule
from repro.utils.rng import rng_from_any
from repro.utils.tolerances import TIME_EPS, fge, vsnap

#: Default acceptance probability of ``random-admission`` (mirrors
#: :class:`repro.baselines.reference.RandomAdmissionPolicy`).
DEFAULT_Q = 0.5

#: Default RNG seed of ``random-admission`` (the policy's ``rng=0``).
DEFAULT_RANDOM_SEED = 0


@dataclass(frozen=True)
class ImmediateRule:
    """A batch-supported immediate-model decision rule.

    ``admission`` is ``"threshold"`` (Algorithm 1's deadline test),
    ``"greedy"`` (accept iff some machine fits) or ``"lee"`` (accept iff
    the job's static size-class machine fits); ``allocation`` is the
    candidate-selection rule among fitting machines (``"class"`` pins the
    job to its size-class machine).  ``single_machine`` mirrors the
    registry's ``single_machine_only`` flag.
    """

    algorithm: str
    admission: str
    allocation: str
    single_machine: bool = False


#: Registry algorithm name -> batch rule, for every *deterministic*
#: immediate-model policy the batch kernel reproduces bit-identically.
#: The randomized immediate policies (``random-admission``,
#: ``classify-select``) have dedicated entry points below because they
#: carry kwargs (q / seed / virtual machines) that participate in the
#: dispatch layer's grouping key.
IMMEDIATE_RULES: dict[str, ImmediateRule] = {
    "threshold": ImmediateRule("threshold", "threshold", "best-fit"),
    "threshold[worst-fit]": ImmediateRule(
        "threshold[worst-fit]", "threshold", "worst-fit"
    ),
    "threshold[first-fit]": ImmediateRule(
        "threshold[first-fit]", "threshold", "first-fit"
    ),
    "greedy": ImmediateRule("greedy", "greedy", "best-fit"),
    "greedy[least-loaded]": ImmediateRule(
        "greedy[least-loaded]", "greedy", "least-loaded"
    ),
    "goldwasser-kerbikov": ImmediateRule(
        "goldwasser-kerbikov", "threshold", "best-fit", single_machine=True
    ),
    "lee-style": ImmediateRule("lee-style", "lee", "class"),
}


def _job_arrays(instances: list[Instance], n: int) -> tuple[np.ndarray, ...]:
    rel = np.empty((len(instances), n))
    proc = np.empty((len(instances), n))
    dl = np.empty((len(instances), n))
    for b, inst in enumerate(instances):
        for j, job in enumerate(inst.jobs):
            rel[b, j] = job.release
            proc[b, j] = job.processing
            dl[b, j] = job.deadline
    return rel, proc, dl


def _check_uniform(instances: list[Instance]) -> tuple[int, int]:
    m = instances[0].machines
    n = len(instances[0])
    for inst in instances:
        if inst.machines != m or len(inst) != n:
            raise ValueError(
                "batch requires uniform shape: expected "
                f"(machines={m}, jobs={n}), got ({inst.machines}, {len(inst)})"
            )
    return m, n


def _check_steps(n: int, max_steps: int) -> None:
    if n >= max_steps:
        # Same condition and message as run_model's step-count guard.
        raise SimulationError(
            f"kernel exceeded max_steps={max_steps} (non-terminating model?)",
            model="immediate",
        )


def _threshold_tables(
    instances: list[Instance], m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-instance Algorithm 1 parameters, padded into one (B, M) factor
    table: position ``k-1+i`` holds ``f[i]``; ranks < k-1 are masked out."""
    b = len(instances)
    f_pad = np.zeros((b, m))
    kvec = np.empty(b, dtype=np.int64)
    for i, inst in enumerate(instances):
        params = threshold_parameters(clamp_epsilon(inst.epsilon), m)
        kvec[i] = params.k
        f_pad[i, params.k - 1 :] = params.f
    rank_ok = np.arange(m)[None, :] >= (kvec[:, None] - 1)
    return f_pad, kvec, rank_ok


def _lee_targets(instances: list[Instance], m: int, n: int) -> np.ndarray:
    """Per-job size-class machine of :class:`LeeStylePolicy`, precomputed.

    The classification is static (anchored at the first job's processing
    time), so the whole target table is known upfront.  The per-element
    ``math.log``/``math.floor`` arithmetic is deliberately *scalar Python*:
    NumPy's vectorised ``log`` may differ from libm by one ulp on some
    builds, which would break bit-identity on class boundaries.
    """
    targets = np.zeros((len(instances), n), dtype=np.int64)
    for i, inst in enumerate(instances):
        if n == 0:
            continue
        eps_c = min(max(inst.epsilon, 1e-12), 1.0)
        ratio = eps_c ** (-1.0 / m)
        if ratio <= 1.0:
            continue  # single degenerate class: every job targets machine 0
        anchor = inst.jobs[0].processing
        targets[i] = [
            math.floor(math.log(job.processing / anchor, ratio) + 1e-12) % m
            for job in inst.jobs
        ]
    return targets


def _simulate(
    rel: np.ndarray,
    proc: np.ndarray,
    dl: np.ndarray,
    m: int,
    admission: str,
    allocation: str,
    *,
    f_pad: np.ndarray | None = None,
    kvec: np.ndarray | None = None,
    rank_ok: np.ndarray | None = None,
    targets: np.ndarray | None = None,
    q: float = 0.0,
    draws: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """The SoA step loop shared by every immediate-model batch entry point.

    Returns ``(acc, mach, startv, starts, ends, cnt)``.
    """
    b, n = rel.shape
    bm = b * m
    rows = np.arange(bm)
    starts = np.zeros((bm, n)) if n else np.zeros((bm, 1))
    ends = np.zeros_like(starts)
    prefix = np.zeros((bm, starts.shape[1] + 1))
    cnt = np.zeros(bm, dtype=np.int64)
    ptr = np.zeros(bm, dtype=np.int64)
    dptr = np.zeros(b, dtype=np.int64)

    acc = np.zeros((b, n), dtype=bool)
    mach = np.zeros((b, n), dtype=np.int64)
    startv = np.zeros((b, n))

    lanes = np.arange(b)
    threshold = admission == "threshold"
    # The lee rule never inspects outstanding loads (its admission test and
    # allocation are both pinned to the size-class machine's frontier), so
    # the bisect pointer and the load reduction can be skipped entirely.
    need_loads = not (admission == "lee" and allocation == "class")

    for s in range(n):
        t = rel[:, s]
        p = proc[:, s]
        d = dl[:, s]
        tbm = np.repeat(t, m)

        if need_loads:
            # Advance the bisect_right(ends, t) pointer.  Releases are
            # non-decreasing (Instance validates this), so the pointer only
            # moves forward; bisect_right uses the exact `ends[j] <= t` test.
            while True:
                has = ptr < cnt
                idx = np.where(has, ptr, 0)
                adv = has & (ends[rows, idx] <= tbm)
                if not adv.any():
                    break
                ptr += adv

            # Outstanding load, operand-for-operand as
            # MachineState.outstanding.
            has = ptr < cnt
            idx = np.where(has, ptr, 0)
            partial = ends[rows, idx] - np.maximum(starts[rows, idx], tbm)
            rest = prefix[rows, cnt] - prefix[rows, idx + 1]
            load = np.where(has, vsnap(partial + rest), 0.0)
            loads = load.reshape(b, m)

        # Feasibility per machine: start would be the completion frontier.
        last_idx = np.where(cnt > 0, cnt - 1, 0)
        frontier = np.maximum(tbm, np.where(cnt > 0, ends[rows, last_idx], 0.0))
        fits = fge(np.repeat(d, m), frontier + np.repeat(p, m)).reshape(b, m)
        anyfit = fits.any(axis=1)

        if threshold:
            sorted_desc = np.sort(loads, axis=1)[:, ::-1]
            d_lim = t + np.max(np.where(rank_ok, sorted_desc * f_pad, -np.inf), axis=1)
            ok = fge(d, d_lim)
            bad = ok & ~anyfit
            if bad.any():
                raise AssertionError(
                    f"job {s}: accepted by threshold but no machine can "
                    "complete it — Claim 1 invariant broken"
                )
        elif admission == "lee":
            ok = fits[lanes, targets[:, s]]
        elif admission == "random":
            # The scalar policy short-circuits (`not candidates or
            # rng.random() >= q`): a draw is consumed exactly when some
            # machine fits.  Replay that with a per-lane stream pointer
            # over the pre-drawn row.
            ok = anyfit & (draws[dptr] < q)
            dptr += anyfit
        else:  # greedy
            ok = anyfit

        if allocation == "class":
            choice = targets[:, s]
        elif allocation == "best-fit":
            choice = np.argmax(np.where(fits, loads, -np.inf), axis=1)
        elif allocation in ("worst-fit", "least-loaded"):
            choice = np.argmin(np.where(fits, loads, np.inf), axis=1)
        else:  # first-fit
            choice = np.argmax(fits, axis=1)

        sel = np.flatnonzero(ok)
        if sel.size:
            rsel = sel * m + choice[sel]
            c = cnt[rsel]
            st = frontier[rsel]
            starts[rsel, c] = st
            ends[rsel, c] = st + p[sel]
            prefix[rsel, c + 1] = prefix[rsel, c] + p[sel]
            cnt[rsel] = c + 1
            acc[sel, s] = True
            mach[sel, s] = choice[sel]
            startv[sel, s] = st

    return acc, mach, startv, starts, ends, cnt


def _build_schedules(
    instances: list[Instance],
    algorithm: str,
    acc: np.ndarray,
    mach: np.ndarray,
    startv: np.ndarray,
    sim_seconds: float,
    audit_seconds: float,
    *,
    real_machine: np.ndarray | None = None,
    meta_extra: dict | None = None,
) -> list[Schedule]:
    """Materialise per-instance Schedules + RunStats from the SoA outputs.

    ``real_machine`` overrides the assignment machine per (lane, job)
    (classify-select executes virtual machine ``selected`` on the one real
    machine 0).
    """
    n = acc.shape[1]
    schedules: list[Schedule] = []
    for i, inst in enumerate(instances):
        accepted_ids = np.flatnonzero(acc[i])
        machines_row = mach[i] if real_machine is None else real_machine[i]
        assignments = {
            int(j): Assignment(int(j), int(machines_row[j]), float(startv[i, j]))
            for j in accepted_ids
        }
        rejected = {int(j) for j in np.flatnonzero(~acc[i])}
        meta = {"model": "immediate", "backend": "batch"}
        if meta_extra:
            meta.update(meta_extra)
        schedule = Schedule(
            instance=inst,
            assignments=assignments,
            rejected=rejected,
            algorithm=algorithm,
            meta=meta,
        )
        schedule.meta["stats"] = RunStats(
            model="immediate",
            algorithm=algorithm,
            jobs=n,
            decisions=n,
            accepted=len(assignments),
            rejected=n - len(assignments),
            steps=n,
            accepted_load=float(schedule.accepted_load),
            sim_seconds=sim_seconds,
            audit_seconds=audit_seconds,
        )
        schedules.append(schedule)
    return schedules


def run_immediate_batch(
    rule: ImmediateRule,
    instances: list[Instance],
    max_steps: int = MAX_KERNEL_STEPS,
) -> list[Schedule]:
    """Run *rule* over a batch of same-shape instances; one Schedule each.

    All instances must share the machine count and job count (the dispatch
    layer groups by that key), which keeps every array rectangular — no
    masking or padding anywhere in the step loop.
    """
    if not instances:
        return []
    m, n = _check_uniform(instances)
    if rule.single_machine and m != 1:
        # Same message as the registry's single_machine_only guard.
        raise ValueError(f"{rule.algorithm} only runs on single-machine instances")
    _check_steps(n, max_steps)

    t0 = time.perf_counter()
    b = len(instances)
    f_pad = kvec = rank_ok = targets = None
    if rule.admission == "threshold":
        f_pad, kvec, rank_ok = _threshold_tables(instances, m)
    elif rule.admission == "lee":
        targets = _lee_targets(instances, m, n)

    rel, proc, dl = _job_arrays(instances, n)
    acc, mach, startv, starts, ends, cnt = _simulate(
        rel, proc, dl, m, rule.admission, rule.allocation,
        f_pad=f_pad, kvec=kvec, rank_ok=rank_ok, targets=targets,
    )
    sim_seconds = (time.perf_counter() - t0) / b

    t1 = time.perf_counter()
    _audit_batch(rel, proc, dl, acc, startv, starts, ends, cnt, m)
    audit_seconds = (time.perf_counter() - t1) / b

    return _build_schedules(
        instances, rule.algorithm, acc, mach, startv, sim_seconds, audit_seconds
    )


def run_random_admission_batch(
    instances: list[Instance],
    q: float = DEFAULT_Q,
    rng: int | None = DEFAULT_RANDOM_SEED,
    max_steps: int = MAX_KERNEL_STEPS,
) -> list[Schedule]:
    """Batched :class:`RandomAdmissionPolicy`, bit-identical RNG replay.

    Every scalar run constructs a *fresh* generator from the same seed, so
    all lanes share one pre-drawn uniform row; each lane walks it with its
    own pointer that advances exactly when the scalar policy would have
    consumed a draw (some machine fits — the short-circuit in
    ``not candidates or rng.random() >= q``).  ``rng`` must be an integer
    seed (or ``None`` for the library default): live ``Generator`` objects
    carry mutable cross-run state the batch kernel cannot replay, and the
    dispatch layer never routes them here.
    """
    if not 0.0 <= q <= 1.0:
        # Same message as RandomAdmissionPolicy.__init__.
        raise ValueError(f"acceptance probability must lie in [0, 1], got {q}")
    if isinstance(rng, np.random.Generator):
        raise ValueError(
            "batch random-admission requires an integer seed (or None); "
            "live Generator objects are scalar-only"
        )
    if not instances:
        return []
    m, n = _check_uniform(instances)
    _check_steps(n, max_steps)

    t0 = time.perf_counter()
    b = len(instances)
    rel, proc, dl = _job_arrays(instances, n)
    # Generator.random(n) is bit-identical to n sequential .random() calls.
    draws = rng_from_any(rng).random(n)
    acc, mach, startv, starts, ends, cnt = _simulate(
        rel, proc, dl, m, "random", "least-loaded", q=q, draws=draws
    )
    sim_seconds = (time.perf_counter() - t0) / b

    t1 = time.perf_counter()
    _audit_batch(rel, proc, dl, acc, startv, starts, ends, cnt, m)
    audit_seconds = (time.perf_counter() - t1) / b

    # The scalar policy renames itself with the acceptance probability.
    return _build_schedules(
        instances, f"random-admission[q={q:g}]", acc, mach, startv,
        sim_seconds, audit_seconds,
    )


def run_classify_select_batch(
    instances: list[Instance],
    virtual_machines: int | None = None,
    rng: int | None = None,
    selected: int | None = None,
    max_steps: int = MAX_KERNEL_STEPS,
) -> list[Schedule]:
    """Batched :class:`ClassifyAndSelect` (Corollary 1), bit-identical.

    Runs the threshold step loop on ``virtual_machines`` virtual machines
    and keeps only the jobs the virtual run assigns to the selected one,
    executed on the single real machine at their virtual start times.  The
    selection replays the scalar draw exactly: a fresh generator per run,
    one ``integers(virtual_m)`` call at reset (skipped when ``selected``
    is fixed).  All lanes must resolve to the same virtual machine count —
    the dispatch layer groups on it.
    """
    from repro.core.randomized import default_virtual_machines

    if isinstance(rng, np.random.Generator):
        raise ValueError(
            "batch classify-select requires an integer seed (or None); "
            "live Generator objects are scalar-only"
        )
    if not instances:
        return []
    m, n = _check_uniform(instances)
    if m != 1:
        # Same message as ClassifyAndSelect.reset.
        raise ValueError(
            f"classify-and-select is a single-machine algorithm; got m={m}"
        )
    _check_steps(n, max_steps)

    vms = {
        virtual_machines
        if virtual_machines is not None
        else default_virtual_machines(inst.epsilon)
        for inst in instances
    }
    if len(vms) != 1:
        raise ValueError(
            f"batch requires a uniform virtual machine count, got {sorted(vms)}"
        )
    virtual_m = vms.pop()
    if selected is not None:
        if not 0 <= selected < virtual_m:
            # Same message as ClassifyAndSelect.reset.
            raise ValueError(
                f"selected machine {selected} out of range [0, {virtual_m})"
            )
        chosen = selected
    else:
        # One draw per scalar run, from a fresh generator — identical for
        # every lane of the group (the grouping key carries the seed).
        chosen = int(rng_from_any(rng).integers(virtual_m))

    t0 = time.perf_counter()
    b = len(instances)
    f_pad, kvec, rank_ok = _threshold_tables(instances, virtual_m)
    rel, proc, dl = _job_arrays(instances, n)
    vacc, vmach, startv, starts, ends, cnt = _simulate(
        rel, proc, dl, virtual_m, "threshold", "best-fit",
        f_pad=f_pad, kvec=kvec, rank_ok=rank_ok,
    )
    # Real acceptance: virtual acceptance on the selected machine, executed
    # verbatim on the one real machine.
    acc = vacc & (vmach == chosen)
    real_machine = np.zeros_like(vmach)
    sim_seconds = (time.perf_counter() - t0) / b

    t1 = time.perf_counter()
    # The real timeline is the selected virtual machine's timeline, a
    # subset of the virtual slabs — auditing the full virtual schedule is
    # strictly stronger than auditing the real one.
    _audit_batch(rel, proc, dl, vacc, startv, starts, ends, cnt, virtual_m)
    audit_seconds = (time.perf_counter() - t1) / b

    return _build_schedules(
        instances, "classify-select", acc, vmach, startv,
        sim_seconds, audit_seconds, real_machine=real_machine,
    )


def _audit_batch(rel, proc, dl, acc, startv, starts, ends, cnt, m) -> None:
    """Vectorised replica of ``Schedule.audit`` over the whole batch.

    Checks the same invariants (start after release, completion by the
    deadline, no overlap on any machine; coverage and machine range hold by
    construction).  On the never-expected failure it delegates to the
    scalar ``Schedule.audit`` path via an assertion so the violation is not
    silently swallowed — the equivalence suite exercises this against the
    scalar kernel's audit.
    """
    early = acc & ~fge(startv, rel)
    late = acc & ~fge(dl, startv + proc)
    cap = starts.shape[1]
    span = np.arange(max(cap - 1, 1))[None, : cap - 1]
    mask = span < (cnt[:, None] - 1)
    overlap = mask & (starts[:, 1:cap] < ends[:, : cap - 1] - TIME_EPS)
    if early.any() or late.any() or overlap.any():
        raise AssertionError(
            "batch audit failed: schedule invariant violated "
            f"(early={int(early.sum())}, late={int(late.sum())}, "
            f"overlap={int(overlap.sum())})"
        )


__all__ = [
    "DEFAULT_Q",
    "DEFAULT_RANDOM_SEED",
    "ImmediateRule",
    "IMMEDIATE_RULES",
    "run_classify_select_batch",
    "run_immediate_batch",
    "run_random_admission_batch",
]
