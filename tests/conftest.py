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


@pytest.fixture(scope="session")
def fresh_python():
    return _fresh_python


def openblas_thread_controls() -> list:
    """The (get, set) thread-count functions of each loaded OpenBLAS.

    OpenBLAS is found by file name among the libraries the process has
    mapped (Linux); numpy's wheels export its functions with a ``scipy_``
    prefix and a ``64_`` suffix. Empty where there is none: another BLAS,
    or no ``/proc``.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()})
    names = [(f"{prefix}openblas_get_num_threads{suffix}",
              f"{prefix}openblas_set_num_threads{suffix}")
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in names:
            try:
                get, put = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
            break
    return controls


@pytest.fixture
def blas_threads():
    """The first loaded OpenBLAS's thread-count getter, set to 2 threads."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    get, put = controls[0]
    found = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS runs one thread on this host")
        yield get
    finally:
        put(found)
