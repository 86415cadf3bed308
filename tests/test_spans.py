"""The benchmark's spans still find every function they wrap at a call site."""

import os
import subprocess
import sys
from pathlib import Path

import gofusion

REPO = Path(__file__).resolve().parents[1]


def test_spans_install_in_fresh_interpreter():
    """``perfbench/spans.py`` raises when no call site binds a wrapped
    function, so a moved call site fails here, not only in a traced run."""
    src = str(Path(gofusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(REPO / "perfbench")]))
    res = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
