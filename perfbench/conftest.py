import sys
from pathlib import Path

# The benchmark's modules import each other by name, and the tests import
# fvba from the checkout's sources, as the benchmark's subprocesses do.
sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parent.parent / "src")]
