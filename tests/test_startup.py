"""Start-up contract: importing lefkit loads numpy's OpenBLAS with one thread
and leaves the caller's environment as it was.

Each case runs in a fresh interpreter, because pytest has already imported
numpy in this one, and OpenBLAS reads its thread count only when it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, os, sys
import {module}
tasks = "/proc/self/task"
report = {{
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
}}
print(json.dumps(report))
"""


def probe(module, **env):
    """Import `module` in a fresh interpreter whose environment has no
    OPENBLAS_NUM_THREADS except as given; return what it reports."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child.get("PYTHONPATH")]))
    child.update(env)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=child,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["lefkit", "lefkit.cli"])
def test_import_leaves_one_thread_and_no_variable(module):
    report = probe(module)
    assert report["numpy"]
    assert report["blas"] is None
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert report["threads"] == 1


@pytest.mark.parametrize("module", ["lefkit", "lefkit.cli"])
def test_a_callers_thread_count_is_kept(module):
    assert probe(module, OPENBLAS_NUM_THREADS="2")["blas"] == "2"
