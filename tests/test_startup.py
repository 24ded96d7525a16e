"""What a new process pays to start: the CLI without an OpenBLAS thread pool,
and a package namespace that imports each module on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fvba

STATUS = Path("/proc/self/status")
# The child imports the fvba under test.
SRC = os.path.dirname(os.path.dirname(fvba.__file__))


def child(code: str, **env: str) -> list[str]:
    """The stdout lines of `code` run in a new interpreter, with `env` set in
    its environment and OPENBLAS_NUM_THREADS unset unless `env` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


# The benchmark's and the console script's entry, then what the process reports.
CLI_REPORT = """
import sys; from fvba.cli import main
import os, pathlib
print(os.environ.get("OPENBLAS_NUM_THREADS"))
status = pathlib.Path("/proc/self/status")
print(next((l.split()[1] for l in status.read_text().splitlines() if l.startswith("Threads:")),
           "-") if status.is_file() else "-")
"""


class TestCliStartup:
    def test_one_blas_thread_by_default(self):
        blas, threads = child(CLI_REPORT)
        assert blas == "1"
        if not STATUS.is_file():
            pytest.skip("no /proc/self/status to count threads")
        assert threads == "1"

    def test_a_user_setting_wins(self):
        blas, _ = child(CLI_REPORT, OPENBLAS_NUM_THREADS="3")
        assert blas == "3"


class TestLazyNamespace:
    def test_import_loads_no_numpy_and_sets_nothing(self):
        code = ("import os, sys, fvba; print('numpy' in sys.modules);"
                " print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert child(code) == ["False", "None"]

    def test_star_import_binds_every_public_name(self):
        code = "from fvba import *; import fvba; print(all(n in globals() for n in fvba.__all__))"
        assert child(code) == ["True"]

    def test_submodule_import_from_the_package(self):
        assert child("from fvba import io; print(io.__name__)") == ["fvba.io"]

    def test_names_resolve_to_their_modules(self):
        from fvba import detector, profiler
        assert fvba.windowize is profiler.windowize
        assert fvba.DEFAULT_FACTORS is detector.DEFAULT_FACTORS

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'windowise'"):
            fvba.windowise
