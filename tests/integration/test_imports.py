"""What a fresh interpreter loads: the program runs on numpy alone.

networkx and scipy are test-only dependencies: the tests' reference
max-flow, Brent and LP solvers.  The guard tests block both with a
meta-path finder in a fresh interpreter and drive the package through
its entry points.  The finder reports every import attempt on stderr,
so an attempt the program catches fails the test too.

The package's own stack loads on demand: ``import repro`` loads no
subpackage, ``repro bound`` no sweep module, and a server start none of
the sweep, adversary or analysis modules.
"""

import csv
import json
import os
import signal
import subprocess
import sys

import pytest

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

_BLOCK = """
import sys


class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            print(f"blocked import: {name}", file=sys.stderr, flush=True)
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None


sys.meta_path.insert(0, _Blocked())
"""

#: ``python -c _CLI <args>`` is ``repro <args>`` with both packages blocked.
_CLI = _BLOCK + "from repro.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"

_BLOCKED = "blocked import"


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, env=_env(), cwd=cwd, text=True, timeout=300,
    )


def test_package_and_flow_paths_load_no_networkx():
    proc = _run("-c", _SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_module_imports_without_scipy_or_networkx():
    proc = _run("-c", _BLOCK + (
        "import pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    __import__(info.name)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert _BLOCKED not in proc.stderr


_SWEEP = ["sweep", "--epsilons", "0.3", "--machines", "1,2", "--algorithms",
          "threshold,greedy", "--repetitions", "1", "--seed", "3", "--no-cache"]


@pytest.mark.parametrize(
    "argv, exact",
    [
        (["bound", "--m", "3", "--eps", "0.2"], None),
        (["simulate", "--n", "60"], None),
        ([*_SWEEP, "--n", "8", "--csv", "rows.csv"], "True"),
        ([*_SWEEP, "--workload", "cloud", "--n", "30", "--csv", "rows.csv"], "False"),
    ],
    ids=["bound", "simulate", "sweep-exact-cells", "sweep-flow-cells"],
)
def test_cli_runs_without_scipy_or_networkx(tmp_path, argv, exact):
    proc = _run("-c", _CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert _BLOCKED not in proc.stderr
    if exact is not None:
        with open(tmp_path / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        # An exact cell ran the exact solver; a flow cell the flow bound.
        assert rows and {row["opt_exact"] for row in rows} == {exact}


def test_serve_starts_without_scipy_or_networkx(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLI, "serve", "--m", "2", "--eps", "0.5",
         "--decision-log", str(tmp_path / "log.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), text=True,
    )
    try:
        first_line = proc.stdout.readline()
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    assert json.loads(first_line)["kind"] == "listening", err
    assert proc.returncode == 0, err
    assert _BLOCKED not in err


#: Printed last by a probe script: the ``repro`` modules it has loaded.
_LOADED = "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"


def _loaded(script: str, cwd=None) -> list[str]:
    proc = _run("-c", "import json, sys\n" + script + _LOADED, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _inside(modules: list[str], *packages: str) -> list[str]:
    return [m for m in modules if m in packages or m.startswith(tuple(p + "." for p in packages))]


def test_import_repro_loads_no_subpackage():
    loaded = _loaded("import repro")
    assert _inside(loaded, "repro.workloads", "repro.serve", "repro.adversary",
                   "repro.analysis") == []


def test_bound_loads_no_workloads_module():
    loaded = _loaded(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['bound', '--m', '3', '--eps', '0.2']) == 0\n"
    )
    assert _inside(loaded, "repro.workloads") == []


def test_server_start_loads_no_sweep_stack(tmp_path):
    loaded = _loaded(
        "import asyncio\n"
        "import repro.cli\n"
        "from repro.serve.server import AdmissionServer, ServeConfig\n"
        "async def start_and_stop():\n"
        "    server = AdmissionServer(ServeConfig(decision_log='log.jsonl'))\n"
        "    await server.start()\n"
        "    server.request_shutdown()\n"
        "    await server.serve_until_shutdown()\n"
        "asyncio.run(start_and_stop())\n",
        cwd=tmp_path,
    )
    assert "repro.serve.snapshotter" in loaded
    assert _inside(loaded, "repro.workloads", "repro.adversary", "repro.analysis") == []
