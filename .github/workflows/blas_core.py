"""Print the numpy build and the OpenBLAS core (kernel family) that numpy's
bundled library runs.

    python3 .github/workflows/blas_core.py

The pinned hashes follow the kernels' rounding, so a mismatch names them.
"""
import ctypes
import glob
import os

import numpy

print("numpy", numpy.__version__)
numpy.show_config()
libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                     "numpy.libs", "libscipy_openblas*")))
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    print("OpenBLAS core", corename().decode())
except (IndexError, OSError, AttributeError) as exc:
    print(f"OpenBLAS core unknown: {exc!r}")
