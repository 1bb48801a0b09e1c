"""The filter bank's bytes on another BLAS kernel.

numpy's OpenBLAS picks its kernels for the CPU when it loads, and
`OPENBLAS_CORETYPE` makes it load another one in the process that sets it.
Kernels may round a product by its shape, so this runs the bank and split
tests in a child pytest on the Haswell kernel: the fixed product grid must
give the grid reference's bytes there too.  An OpenBLAS built for one kernel
ignores the variable, and the child then repeats the tests as they run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import jamsim

TESTS = Path(__file__).resolve().parent
#: The bank and whole-run tests without their 2**20+3-sample cases: a few seconds.
SELECTION = ("(serial_run or bank_rows_match_each_filter_alone_and or plan_gives "
             "or whole_buffer_reference) and not 1048579")


def test_the_bank_tests_pass_on_the_haswell_kernel():
    src = str(Path(jamsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_split.py"), "-k", SELECTION],
        cwd=TESTS.parent, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
