"""What a fresh interpreter loads: networkx is a test-only dependency."""

import json
import os
import subprocess
import sys

_SCRIPT = """
import json, sys
import repro, repro.cli
from repro.baselines.registry import run_algorithm
from repro.offline.bounds import flow_upper_bound
from repro.workloads import random_instance

instance = random_instance(30, 3, 0.2, seed=0)
flow_upper_bound(instance)
run_algorithm("migration-greedy", instance)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "networkx")))
"""


def test_package_and_flow_paths_load_no_networkx():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, env=env, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []
