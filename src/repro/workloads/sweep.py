"""Parameter sweeps: the benchmark harness's workhorse.

A :class:`SweepSpec` is a declarative grid — slack values, machine counts,
repetitions, a workload factory and a list of algorithm names — executed
with per-cell deterministic seeds (derived via ``SeedSequence``-style
folding so results are independent of execution order) into flat rows
ready for the table/plot layer.  Execution itself lives in
:func:`repro.workloads.execute.execute_sweep`.

Every run goes through :func:`repro.baselines.registry.run_algorithm` and
therefore through the shared simulation kernel: sweep cells carry exactly
the same validation and instrumentation as single runs (set
``SweepSpec.record_events`` to capture per-decision event streams in each
run's ``detail.meta``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.model.instance import Instance
from repro.offline.bracket import OptBracket
from repro.offline.cache import BracketCache, cached_opt_bracket
from repro.utils.rng import interleave_seeds

#: Signature of a workload factory: (machines, epsilon, seed) -> Instance.
WorkloadFactory = Callable[[int, float, int], Instance]


def cell_seed_for(base_seed: int, eps: float, m: int, rep: int) -> int:
    """Deterministic per-cell seed, independent of iteration order.

    The single source of truth for cell identity: :class:`SweepSpec`, the
    checkpoint journal and the shard/merge layer all derive seeds through
    this function, so a cell keeps the same key across hosts, resumes and
    shard boundaries.  Notably it is computable from a journal's header
    fingerprint alone (``base_seed`` plus the grid values) — no workload
    factory or spec object required.

    The epsilon hash is folded at full 64-bit width: float hashes of
    dyadic rationals (0.5, 0.25, …) are high powers of two, so a 32-bit
    mask used to collapse them all to 0 and distinct epsilons could
    collide on one seed — fatal for the checkpoint journal, which keys
    completed cells by this value.
    """
    return interleave_seeds(
        [base_seed, hash(round(eps, 12)) & 0xFFFFFFFFFFFFFFFF, m, rep]
    )


@dataclass(frozen=True)
class SweepRow:
    """One (epsilon, m, repetition, algorithm) measurement."""

    epsilon: float
    machines: int
    repetition: int
    algorithm: str
    accepted_load: float
    accepted_count: int
    n_jobs: int
    opt_lower: float
    opt_upper: float
    opt_exact: bool
    guarantee: float | None

    @property
    def ratio_upper(self) -> float:
        """Conservative empirical ratio estimate ``opt_upper / load``.

        This *over*-estimates the true competitive ratio, so staying below
        a theoretical guarantee with this number is a certified check.
        """
        return float("inf") if self.accepted_load <= 0 else self.opt_upper / self.accepted_load

    @property
    def ratio_lower(self) -> float:
        """Optimistic ratio estimate ``opt_lower / load`` (``<=`` truth)."""
        return float("inf") if self.accepted_load <= 0 else self.opt_lower / self.accepted_load

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (CSV/JSON-friendly)."""
        return {
            "epsilon": self.epsilon,
            "machines": self.machines,
            "repetition": self.repetition,
            "algorithm": self.algorithm,
            "accepted_load": self.accepted_load,
            "accepted_count": self.accepted_count,
            "n_jobs": self.n_jobs,
            "opt_lower": self.opt_lower,
            "opt_upper": self.opt_upper,
            "opt_exact": self.opt_exact,
            "ratio_upper": self.ratio_upper,
            "ratio_lower": self.ratio_lower,
            "guarantee": self.guarantee,
        }


@dataclass
class SweepSpec:
    """Declarative sweep grid."""

    epsilons: Sequence[float]
    machine_counts: Sequence[int]
    algorithms: Sequence[str]
    workload: WorkloadFactory
    repetitions: int = 3
    base_seed: int = 2020
    force_bounds: bool = False
    exact_limit: int | None = None
    label: str = "sweep"
    #: Capture kernel event streams for every run (identical serial/parallel).
    record_events: bool = False

    def cells(self) -> Iterable[tuple[float, int, int]]:
        """Iterate the grid: (epsilon, machines, repetition)."""
        for eps in self.epsilons:
            for m in self.machine_counts:
                for rep in range(self.repetitions):
                    yield eps, m, rep

    def cell_seed(self, eps: float, m: int, rep: int) -> int:
        """Deterministic per-cell seed (see :func:`cell_seed_for`)."""
        return cell_seed_for(self.base_seed, eps, m, rep)


def cell_bracket(
    spec: SweepSpec, instance: Instance, cache: BracketCache | None = None
) -> OptBracket:
    """Offline bracket for one sweep cell, through an optional cache.

    The single place the sweep layer turns a cell instance into its OPT
    reference — both the serial path and the resilient runner's workers
    route through it, so a cache hit is bit-identical to a recompute by
    construction.
    """
    return cached_opt_bracket(
        instance,
        force_bounds=spec.force_bounds,
        cache=cache,
        **({"exact_limit": spec.exact_limit} if spec.exact_limit is not None else {}),
    )


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    """Serialise sweep rows to CSV text (archival / external plotting)."""
    rows = list(rows)
    columns = [
        "epsilon",
        "machines",
        "repetition",
        "algorithm",
        "accepted_load",
        "accepted_count",
        "n_jobs",
        "opt_lower",
        "opt_upper",
        "opt_exact",
        "ratio_upper",
        "ratio_lower",
        "guarantee",
    ]
    lines = [",".join(columns)]
    for row in rows:
        data = row.as_dict()
        lines.append(
            ",".join(
                "" if data[col] is None else f"{data[col]!r}".strip("'")
                for col in columns
            )
        )
    return "\n".join(lines) + "\n"


def aggregate_rows(rows: Iterable[SweepRow]) -> list[dict[str, Any]]:
    """Average repetitions: one summary dict per (epsilon, m, algorithm)."""
    groups: dict[tuple[float, int, str], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.epsilon, row.machines, row.algorithm), []).append(row)
    out = []
    for (eps, m, name), grp in sorted(groups.items()):
        loads = [r.accepted_load for r in grp]
        ratios = [r.ratio_upper for r in grp if r.accepted_load > 0]
        out.append(
            {
                "epsilon": eps,
                "machines": m,
                "algorithm": name,
                "mean_load": sum(loads) / len(loads),
                "mean_ratio_upper": sum(ratios) / len(ratios) if ratios else float("inf"),
                "max_ratio_upper": max(ratios) if ratios else float("inf"),
                "guarantee": grp[0].guarantee,
                "repetitions": len(grp),
            }
        )
    return out
