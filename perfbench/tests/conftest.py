"""Put the harness modules and the package sources on ``sys.path``.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys

HARNESS = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HARNESS))
sys.path.insert(0, str(HARNESS.parent / "src"))
