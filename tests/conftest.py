import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*argv, **env):
    """Run ``python *argv`` on this source tree in a new interpreter, with no
    BLAS thread variable set but those in ``env``; its stdout."""
    base = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        base.pop(name, None)
    proc = subprocess.run([sys.executable, *argv], env=base | env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def fresh_python():
    return _fresh_python
