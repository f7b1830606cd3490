"""Sweep-level cross-backend equivalence and group-lease scheduling.

The kernel-backend seam must be invisible in sweep artefacts: rows, CSV
and journal records are bit-identical whichever backend executed the
cells, on both the serial path and the fault-tolerant scheduler (where a
non-scalar backend dispatches *group leases* of several cells per
worker).  A failed lease demotes its members to independent per-cell
attempts, so retry/quarantine semantics stay per-cell.
"""

import json
from functools import partial

import pytest

from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.resilient import run_cell, run_cells
from repro.workloads.sweep import SweepSpec, rows_to_csv


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


class TestRunCells:
    def test_scalar_backend_equals_run_cell(self):
        spec = _spec()
        cells = list(spec.cells())
        grouped = run_cells(spec, cells, {}, backend="scalar")
        for (eps, m, rep), rows in zip(cells, grouped):
            assert _rows_key(rows) == _rows_key(run_cell(spec, eps, m, rep, {}))

    @pytest.mark.parametrize("backend", ["batch", "auto"])
    def test_batched_backends_bit_identical(self, backend):
        spec = _spec()
        cells = list(spec.cells())
        scalar = run_cells(spec, cells, {}, backend="scalar")
        other = run_cells(spec, cells, {}, backend=backend)
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(other, []))

    def test_algorithm_kwargs_respected(self):
        spec = _spec(algorithms=["revocable-greedy"])
        cells = list(spec.cells())[:2]
        kwargs = {"revocable-greedy": {"phi": 2.0}}
        scalar = run_cells(spec, cells, kwargs, backend="scalar")
        batch = run_cells(spec, cells, kwargs, backend="batch")
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(batch, []))

    def test_unsupported_algorithm_falls_back_inside_group(self):
        spec = _spec(algorithms=["threshold", "dasgupta-palis"])
        cells = list(spec.cells())[:2]
        scalar = run_cells(spec, cells, {}, backend="scalar")
        auto = run_cells(spec, cells, {}, backend="auto")
        assert _rows_key(sum(scalar, [])) == _rows_key(sum(auto, []))


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
    def test_chunk_boundaries_cover_every_cell(self, n_cells, backend):
        spec = self._edge_spec(n_cells)
        cells = list(spec.cells())
        assert len(cells) == n_cells
        result = execute_sweep(spec, ExecutionPolicy(backend=backend))
        expected = [
            row
            for eps, m, rep in cells
            for row in run_cell(spec, eps, m, rep, {})
        ]
        assert _rows_key(result.rows) == _rows_key(expected)

    @pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
    def test_empty_cell_list(self, backend):
        assert run_cells(_spec(), [], {}, backend=backend) == []


class TestExecuteSweepBackends:
    @pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
    def test_serial_rows_and_csv_identical(self, backend):
        reference = execute_sweep(_spec(), ExecutionPolicy(backend="scalar"))
        result = execute_sweep(_spec(), ExecutionPolicy(backend=backend))
        assert _rows_key(result.rows) == _rows_key(reference.rows)
        assert rows_to_csv(result.rows) == rows_to_csv(reference.rows)

    def test_scheduler_group_leases_bit_identical(self):
        spec = _spec()
        serial = execute_sweep(spec, ExecutionPolicy(backend="scalar"))
        grouped = execute_sweep(
            spec, ExecutionPolicy(workers=2, backend="batch")
        )
        assert _rows_key(grouped.rows) == _rows_key(serial.rows)
        assert grouped.manifest.cells_completed == grouped.manifest.cells_total
        assert not grouped.manifest.failures

    def test_journal_rows_identical_across_backends(self, tmp_path):
        spec = _spec()
        paths = {}
        for backend in ("scalar", "batch"):
            path = tmp_path / f"{backend}.jsonl"
            result = execute_sweep(
                spec,
                ExecutionPolicy(journal=str(path), backend=backend),
            )
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
        first = execute_sweep(
            spec, ExecutionPolicy(journal=str(path), backend="auto")
        )
        resumed = execute_sweep(
            spec,
            ExecutionPolicy(
                journal=str(path), resume=True, backend="auto"
            ),
        )
        assert _rows_key(resumed.rows) == _rows_key(first.rows)
        assert resumed.manifest.cells_replayed == resumed.manifest.cells_total


def _flaky_group_workload(m: int, eps: float, seed: int):
    """Fails for one particular cell seed; fine everywhere else."""
    if seed % 4 == 1:
        raise ValueError("cell-specific fault")
    return random_instance(8, m, eps, seed=seed)


class TestGroupLeaseDemotion:
    def test_failed_lease_demotes_to_per_cell_attempts(self):
        spec = _spec(workload=_flaky_group_workload, algorithms=["greedy"])
        result = execute_sweep(
            spec,
            ExecutionPolicy(
                workers=2, retries=1, backend="batch"
            ),
        )
        manifest = result.manifest
        seeds = [spec.cell_seed(*c) for c in spec.cells()]
        broken = sum(1 for s in seeds if s % 4 == 1)
        good = len(seeds) - broken
        assert manifest.cells_completed == good
        assert manifest.quarantined == broken
        # Good cells that rode a failed lease recovered via demotion.
        if broken and good:
            assert manifest.recovered > 0
        for failure in manifest.failures:
            assert any("group-lease" in h for h in failure.history)
            assert "cell-specific fault" in failure.detail
        # Demoted rows are still bit-identical to a scalar run of the
        # surviving cells.
        scalar = execute_sweep(
            spec,
            ExecutionPolicy(
                workers=2, retries=1, backend="scalar"
            ),
        )
        assert _rows_key(result.rows) == _rows_key(scalar.rows)

    def test_chaos_plan_disables_grouping(self):
        from repro.testing.chaos import ChaosPlan

        spec = _spec(algorithms=["greedy"])
        result = execute_sweep(
            spec,
            ExecutionPolicy(
                workers=2,
                retries=2,
                backend="batch",
                chaos=ChaosPlan(),
            ),
        )
        assert not result.manifest.failures
        reference = execute_sweep(spec, ExecutionPolicy(backend="scalar"))
        assert _rows_key(result.rows) == _rows_key(reference.rows)
