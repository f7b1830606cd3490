"""Set-up probe: bring one fresh interpreter to its first unit of work.

Usage: ``python perfbench/probe.py <workload> <workdir> <seed> <tag>``
with ``src`` on ``PYTHONPATH``.  The harness times the process from
spawn to the JSON line this prints, which also carries the time spent
importing the public API.  For the serve workloads the probe only
imports the serve entrypoint: their set-up is timed on the server
itself, up to its ``listening`` line.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time


def main(workload: str, workdir: str, seed: int, tag: str) -> None:
    t0 = time.perf_counter()
    serve = workload.startswith("serve-")
    if serve:
        from repro.cli import main as _  # noqa: F401
        from repro.serve.server import run_server  # noqa: F401
    elif workload == "simulate-mix":
        from repro.engine.backend import SimulationRequest, run_simulations  # noqa: F401
        import inputs
    else:
        from repro.offline.cache import BracketCache
        from repro.workloads.execute import ExecutionPolicy, execute_sweep  # noqa: F401
        from repro.workloads.journal import SweepJournal
        import inputs
    import_s = time.perf_counter() - t0

    work = pathlib.Path(workdir)
    if serve:
        pass
    elif workload == "simulate-mix":
        instances = inputs.read_instances(work / "mix-inputs.json")
        [
            SimulationRequest(name, inst)
            for name in inputs.MIX_ALGORITHMS
            for inst in instances
        ]
    elif workload == "sweep-cold":
        inputs.cold_specs(seed, 0)
        BracketCache(work / f"probe-cache-{tag}")
    else:
        spec = inputs.journaled_spec(seed, 0)
        BracketCache(work / f"probe-cache-{tag}")
        SweepJournal.create(work / f"probe-journal-{tag}.jsonl", spec).close()
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
