"""E28 — remote elastic execution under network fault domains.

The elastic pool (E26) tolerates slot-level faults on one machine; a
fleet adds failure domains the slot model cannot express: a whole host
dying, a network partition that silences a healthy host, an overloaded
host that is slow but alive.  This bench drives the remote scheduler
(`repro.workloads.remote`) through both ladders and certifies:

* **chaotic 3-host sweep** — host ``b`` hard-dies on every lease
  (quarantined as one failure domain after its budget), host ``c`` is
  partitioned then healed 1s later (its expired leases re-dispatch and
  its stale late results dedup first-verified-wins), and both surviving
  hosts are slowed (heartbeats keep their leases — slow, not dead).
  The sweep completes with **zero cells lost** and rows
  **bit-identical** to the serial scalar run; ``b`` is the only
  quarantined host.
* **total host loss** — every registry host is refused at the launch
  handshake (pinned to a divergent code fingerprint), so the sweep
  degrades to the local fallback pool and still completes
  bit-identical, with the degradation recorded in the manifest.

Run directly (``python benchmarks/bench_remote.py``) to write the
machine-readable snapshot ``BENCH_remote.json`` at the repository root.
"""

import json
import tempfile
import time
from functools import partial
from pathlib import Path

from repro.analysis.tables import format_table
from repro.testing import HostChaosPlan
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import load_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.remote import HostSpec
from repro.workloads.sweep import SweepSpec

EPSILONS = [0.2, 0.4]
MACHINES = [1, 2]
REPS = 6
N_JOBS = 8
#: Injected per-cell delay on the surviving hosts — long enough that
#: the dead host's respawn-die-respawn cycle crosses its failure budget
#: (two worker launches, ~0.5s of interpreter+numpy startup each) while
#: the healthy hosts are still draining the queue.
SLOW_DELAY = 0.35
#: Partition host ``c`` from its 4th post-handshake message; heal 1s
#: after the first held message.
PARTITION = ("c", 4, 1.0)


def _spec() -> SweepSpec:
    return SweepSpec(
        epsilons=EPSILONS,
        machine_counts=MACHINES,
        algorithms=["threshold", "greedy"],
        # partial of an importable callable: the spec must unpickle
        # inside remote worker processes (never a __main__ attribute).
        workload=partial(random_instance, N_JOBS),
        repetitions=REPS,
        base_seed=28,
        label="remote-bench",
    )


def snapshot() -> dict:
    spec = _spec()

    serial = execute_sweep(spec)
    assert serial.complete

    # -- scenario 1: dead + partitioned-healed + slow host, one sweep.
    plan = HostChaosPlan(
        dead_host=(("b", 1),),
        partition=(PARTITION,),
        slow_host=(("a", SLOW_DELAY), ("c", SLOW_DELAY)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "remote.jsonl"
        t0 = time.perf_counter()
        chaotic = execute_sweep(
            spec,
            ExecutionPolicy(
                hosts=(
                    HostSpec(name="a"),
                    HostSpec(name="b"),
                    HostSpec(name="c"),
                ),
                host_chaos=plan,
                host_max_failures=1,
                heartbeat_interval=0.05,
                lease_timeout=0.4,
                journal=str(path),
            ),
        )
        chaotic_seconds = time.perf_counter() - t0
        state = load_journal(path)
        stats = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "stats"
        ][-1]
    host_rows = {h["name"]: h for h in stats["hosts"]}
    cells_by_host = {
        name: sum(
            1 for p in state.provenance.values() if p["host"] == name
        )
        for name in host_rows
    }

    # -- scenario 2: every host refused at handshake -> local fallback.
    t0 = time.perf_counter()
    degraded = execute_sweep(
        spec,
        ExecutionPolicy(
            hosts=(
                HostSpec(name="x", fingerprint="0" * 16),
                HostSpec(name="y", fingerprint="0" * 16),
            ),
            heartbeat_interval=0.05,
        ),
    )
    degraded_seconds = time.perf_counter() - t0

    return {
        "bench": "E28 remote elastic execution under network fault domains",
        "cells": chaotic.manifest.cells_total,
        "n_jobs": N_JOBS,
        "machines": MACHINES,
        "epsilons": EPSILONS,
        "repetitions": REPS,
        "base_seed": 28,
        "slow_delay_seconds": SLOW_DELAY,
        "partition": list(PARTITION),
        "hosts": list(host_rows),
        "chaotic_seconds": round(chaotic_seconds, 6),
        "chaotic_rows_bit_identical": chaotic.rows == serial.rows,
        "chaotic_journal_bit_identical": (
            sorted(
                json.dumps(r.as_dict(), sort_keys=True)
                for rows in state.completed.values()
                for r in rows
            )
            == sorted(
                json.dumps(r.as_dict(), sort_keys=True) for r in serial.rows
            )
        ),
        "chaotic_cells_lost": len(chaotic.manifest.failures),
        "chaotic_cells_completed": chaotic.manifest.cells_completed,
        "chaotic_recovered": chaotic.manifest.recovered,
        "chaotic_speculated": chaotic.manifest.speculated,
        "hosts_quarantined": sorted(
            hf.host for hf in chaotic.manifest.host_failures
        ),
        "host_leases": {n: h["leases"] for n, h in host_rows.items()},
        "host_cells": cells_by_host,
        "scheduler": stats["scheduler"],
        "degraded_seconds": round(degraded_seconds, 6),
        "degraded_rows_bit_identical": degraded.rows == serial.rows,
        "degraded_to_local": degraded.manifest.degraded_to_local,
        "degraded_hosts_quarantined": degraded.manifest.hosts_quarantined,
        "degraded_cells_lost": len(degraded.manifest.failures),
    }


def test_e28_remote_chaos_merges_bit_identical(benchmark, save_artifact):
    snap = benchmark.pedantic(snapshot, rounds=1, iterations=1)

    # The acceptance bar (ISSUE 10): dead + partitioned + slow hosts in
    # one sweep, zero cells lost, bit-identical rows, the dead host
    # quarantined as one failure domain — and total loss degrades to the
    # local fallback instead of losing the sweep.
    assert snap["chaotic_rows_bit_identical"]
    assert snap["chaotic_journal_bit_identical"]
    assert snap["chaotic_cells_lost"] == 0
    assert snap["chaotic_cells_completed"] == snap["cells"]
    assert snap["hosts_quarantined"] == ["b"]
    assert snap["scheduler"] == "lease"
    assert snap["degraded_rows_bit_identical"]
    assert snap["degraded_to_local"]
    assert snap["degraded_cells_lost"] == 0

    benchmark.extra_info.update(
        {
            "cells": snap["cells"],
            "hosts_quarantined": snap["hosts_quarantined"],
            "chaotic_recovered": snap["chaotic_recovered"],
            "degraded_to_local": snap["degraded_to_local"],
        }
    )
    fault = {"a": "slow", "b": "dies", "c": "partitioned+slow"}
    rows = [
        {
            "host": name,
            "fault": fault[name],
            "leases": snap["host_leases"][name],
            "cells": snap["host_cells"][name],
            "quarantined": name in snap["hosts_quarantined"],
        }
        for name in snap["hosts"]
    ]
    save_artifact(
        "e28_remote.txt",
        format_table(
            rows,
            title=(
                f"E28 — {snap['cells']} cells over 3 faulted hosts, "
                f"{snap['chaotic_cells_lost']} lost, bit-identical="
                f"{snap['chaotic_rows_bit_identical']}"
            ),
        ),
    )


def main() -> int:
    snap = snapshot()
    out = Path(__file__).resolve().parent.parent / "BENCH_remote.json"
    out.write_text(json.dumps(snap, indent=2) + "\n")
    print(f"cells                  : {snap['cells']:10d}")
    print(f"chaotic wall (s)       : {snap['chaotic_seconds']:10.3f}")
    print(f"cells lost             : {snap['chaotic_cells_lost']:10d}")
    print(f"hosts quarantined      : {', '.join(snap['hosts_quarantined']) or '-'}")
    print(f"host cells             : {snap['host_cells']}")
    print(
        "bit-identical rows     : "
        f"chaotic={snap['chaotic_rows_bit_identical']} "
        f"degraded={snap['degraded_rows_bit_identical']}"
    )
    print(f"degraded to local pool : {snap['degraded_to_local']}")
    print(f"wrote {out}")
    ok = (
        snap["chaotic_rows_bit_identical"]
        and snap["chaotic_journal_bit_identical"]
        and snap["chaotic_cells_lost"] == 0
        and snap["hosts_quarantined"] == ["b"]
        and snap["degraded_rows_bit_identical"]
        and snap["degraded_to_local"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
