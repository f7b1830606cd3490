"""Sweep-level kernel equivalence and group-lease scheduling.

How a sweep's simulations are grouped onto kernels must be invisible in
its artefacts: rows, CSV and journal records are bit-identical whether a
request ran on the scalar kernel or in a batch, on both the serial path
and the lease loop (which grants *group leases* of several cells per
worker).  The ``backend`` parameter below moves ``run_simulations``'s
batching threshold: ``scalar`` never batches, ``batch`` batches every
supported request, ``auto`` is the library default.  A failed lease
demotes its members to independent per-cell attempts, so retry/quarantine
semantics stay per-cell.
"""

import json
import math
import os
from functools import partial

import pytest

from repro.baselines.registry import run_algorithm
from repro.core.guarantees import guarantee_for
from repro.engine import backend as backend_module
from repro.testing.chaos import ChaosPlan
from repro.workloads import resilient
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.resilient import run_cells
from repro.workloads.sweep import SweepRow, SweepSpec, cell_bracket, rows_to_csv

#: ``run_simulations``'s batching threshold for each ``backend`` parameter.
_MIN_GROUP = {"scalar": math.inf, "batch": 1, "auto": backend_module._AUTO_MIN_GROUP}


def _use(monkeypatch, backend: str) -> None:
    """Route this test's simulations (forked workers included) as *backend*."""
    monkeypatch.setattr(backend_module, "_AUTO_MIN_GROUP", _MIN_GROUP[backend])


def run_cell(spec, eps, m, rep, algorithm_kwargs):
    """The former per-cell evaluator, kept as the oracle for ``run_cells``."""
    instance = spec.workload(m, eps, spec.cell_seed(eps, m, rep))
    bracket = cell_bracket(spec, instance, None)
    rows = []
    for name in spec.algorithms:
        result = run_algorithm(
            name,
            instance,
            record_events=spec.record_events,
            **algorithm_kwargs.get(name, {}),
        )
        rows.append(
            SweepRow(
                epsilon=eps,
                machines=m,
                repetition=rep,
                algorithm=name,
                accepted_load=result.accepted_load,
                accepted_count=result.accepted_count,
                n_jobs=len(instance),
                opt_lower=bracket.lower,
                opt_upper=bracket.upper,
                opt_exact=bracket.exact,
                guarantee=guarantee_for(name, eps, m),
            )
        )
    return rows


def _spec(base_seed: int = 11, **overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.2, 0.4],
        machine_counts=[2, 3],
        algorithms=["threshold", "greedy", "revocable-greedy"],
        workload=partial(random_instance, 12),
        repetitions=2,
        base_seed=base_seed,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _rows_key(rows):
    return [r.as_dict() for r in rows]


def _reference_rows(spec, cells=None):
    cells = spec.cells() if cells is None else cells
    return [row for cell in cells for row in run_cell(spec, *cell, {})]


class TestRunCells:
    def test_scalar_backend_equals_run_cell(self):
        spec = _spec()
        cells = list(spec.cells())
        grouped = run_cells(spec, cells, {}, backend="scalar")
        for (eps, m, rep), rows in zip(cells, grouped):
            assert _rows_key(rows) == _rows_key(run_cell(spec, eps, m, rep, {}))

    @pytest.mark.parametrize("backend", ["batch", "auto"])
    def test_batched_backends_bit_identical(self, backend, monkeypatch):
        spec = _spec()
        cells = list(spec.cells())
        scalar = run_cells(spec, cells, {}, backend="scalar")
        _use(monkeypatch, backend)
        other = run_cells(spec, cells, {})
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(other, []))

    def test_algorithm_kwargs_respected(self, monkeypatch):
        spec = _spec(algorithms=["revocable-greedy", "threshold"])
        cells = list(spec.cells())[:2]
        kwargs = {"revocable-greedy": {"phi": 2.0}}
        scalar = run_cells(spec, cells, kwargs, backend="scalar")
        _use(monkeypatch, "batch")
        batch = run_cells(spec, cells, kwargs)
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(batch, []))
        expected = [run_cell(spec, *cell, kwargs) for cell in cells]
        assert _rows_key(sum(batch, [])) == _rows_key(sum(expected, []))

    def test_unsupported_algorithm_falls_back_inside_group(self):
        spec = _spec(algorithms=["threshold", "dasgupta-palis"])
        cells = list(spec.cells())[:2]
        scalar = run_cells(spec, cells, {}, backend="scalar")
        auto = run_cells(spec, cells, {}, backend="auto")
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(auto, []))

    def test_batch_backend_is_not_a_choice(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cells(_spec(), list(_spec().cells())[:1], {}, backend="batch")


class TestChunkingEdges:
    """The serial path chunks cells by 32; the boundaries must be exact.

    ``n % 32`` of 0 (whole chunks only), 1 (a final singleton chunk) and
    31 (one chunk one short) plus the empty call — the off-by-one shapes
    a round-sized grid never exercises.
    """

    @staticmethod
    def _edge_spec(n_cells: int) -> SweepSpec:
        return _spec(
            epsilons=[0.3],
            machine_counts=[2],
            algorithms=["greedy"],
            workload=partial(random_instance, 6),
            repetitions=n_cells,
        )

    @pytest.mark.parametrize("n_cells", [32, 33, 31])
    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_chunk_boundaries_cover_every_cell(self, n_cells, backend, monkeypatch):
        spec = self._edge_spec(n_cells)
        cells = list(spec.cells())
        assert len(cells) == n_cells
        expected = _reference_rows(spec)
        _use(monkeypatch, backend)
        result = execute_sweep(spec)
        assert _rows_key(result.rows) == _rows_key(expected)

    @pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
    def test_empty_cell_list(self, backend, monkeypatch):
        _use(monkeypatch, backend)
        assert run_cells(_spec(), [], {}) == []


class TestExecuteSweepBackends:
    @pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
    def test_serial_rows_and_csv_identical(self, backend, monkeypatch):
        reference = _reference_rows(_spec())
        _use(monkeypatch, backend)
        result = execute_sweep(_spec())
        assert _rows_key(result.rows) == _rows_key(reference)
        assert rows_to_csv(result.rows) == rows_to_csv(reference)

    def test_scheduler_group_leases_bit_identical(self, monkeypatch):
        spec = _spec()
        reference = _reference_rows(spec)
        _use(monkeypatch, "batch")
        grouped = execute_sweep(spec, ExecutionPolicy(workers=2))
        assert _rows_key(grouped.rows) == _rows_key(reference)
        assert grouped.manifest.cells_completed == grouped.manifest.cells_total
        assert not grouped.manifest.failures

    def test_journal_rows_identical_across_backends(self, tmp_path, monkeypatch):
        spec = _spec()
        paths = {}
        for backend in ("scalar", "batch"):
            _use(monkeypatch, backend)
            path = tmp_path / f"{backend}.jsonl"
            result = execute_sweep(spec, ExecutionPolicy(journal=str(path)))
            assert not result.manifest.failures
            paths[backend] = path

        def cell_records(path):
            records = {}
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if rec.get("kind") == "cell":
                    records[rec["seed"]] = rec["rows"]
            return records

        scalar_cells = cell_records(paths["scalar"])
        batch_cells = cell_records(paths["batch"])
        assert scalar_cells == batch_cells
        assert len(scalar_cells) == 8

    def test_resume_after_group_run_is_noop(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        first = execute_sweep(spec, ExecutionPolicy(journal=str(path)))
        resumed = execute_sweep(
            spec, ExecutionPolicy(journal=str(path), resume=True)
        )
        assert _rows_key(resumed.rows) == _rows_key(first.rows)
        assert resumed.manifest.cells_replayed == resumed.manifest.cells_total


def _flaky_group_workload(m: int, eps: float, seed: int):
    """Fails for one particular cell seed; fine everywhere else."""
    if seed % 4 == 1:
        raise ValueError("cell-specific fault")
    return random_instance(8, m, eps, seed=seed)


def _record_lease_sizes(monkeypatch, log):
    """Append the cell count of every worker ``run_cells`` call to *log*."""
    real = resilient.run_cells

    def run_cells(spec, cells, *args, **kwargs):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{len(cells)}\n".encode())
        os.close(fd)
        return real(spec, cells, *args, **kwargs)

    monkeypatch.setattr(resilient, "run_cells", run_cells)


class TestGroupLeaseDemotion:
    def test_failed_lease_demotes_to_per_cell_attempts(self, tmp_path, monkeypatch):
        spec = _spec(workload=_flaky_group_workload, algorithms=["greedy"])
        seeds = [spec.cell_seed(*c) for c in spec.cells()]
        good = [c for c, s in zip(spec.cells(), seeds) if s % 4 != 1]
        expected = _reference_rows(spec, good)
        log = tmp_path / "leases.log"
        _record_lease_sizes(monkeypatch, log)
        # The demotion history assumes one execution per cell: a
        # speculative copy taken before its group failed lacks it.
        result = execute_sweep(
            spec, ExecutionPolicy(workers=2, retries=1, speculate=False)
        )
        assert max(map(int, log.read_text().split())) > 1  # a group lease ran
        manifest = result.manifest
        broken = len(seeds) - len(good)
        assert manifest.cells_completed == len(good)
        assert manifest.quarantined == broken
        # Good cells that rode a failed lease recovered via demotion.
        if broken and good:
            assert manifest.recovered > 0
        for failure in manifest.failures:
            assert any("group-lease" in h for h in failure.history)
            assert "cell-specific fault" in failure.detail
        # Demoted rows are still bit-identical to the per-cell reference.
        assert _rows_key(result.rows) == _rows_key(expected)

    def test_chaos_plan_disables_grouping(self, tmp_path, monkeypatch):
        spec = _spec(algorithms=["greedy"])
        log = tmp_path / "leases.log"
        _record_lease_sizes(monkeypatch, log)
        result = execute_sweep(
            spec, ExecutionPolicy(workers=2, retries=2, chaos=ChaosPlan())
        )
        assert not result.manifest.failures
        assert set(log.read_text().split()) == {"1"}
        assert _rows_key(result.rows) == _rows_key(_reference_rows(spec))
