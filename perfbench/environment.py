"""Print, as JSON, the numeric stack a child process of the benchmark sees.

Run as a child with ``src`` on ``PYTHONPATH``, so that the benchmark's own
process never loads numpy.  Reports the Python and numpy versions and the
OpenBLAS build that numpy loaded, with its thread count as left at the
default.
"""

from __future__ import annotations

import ctypes
import json
import platform
import re


def blas_record() -> dict:
    import numpy

    out = {"numpy": numpy.__version__, "blas_library": None,
           "blas_config": None, "blas_threads": None}
    with open("/proc/self/maps") as stream:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", stream.read())))
    if not libs:
        return out
    out["blas_library"] = libs[0].rsplit("/", 1)[-1]
    lib = ctypes.CDLL(libs[0])
    # numpy wheels bundle scipy-openblas with 64-bit symbols; a system
    # OpenBLAS exports the plain names
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if get_config is not None and get_threads is not None:
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            out["blas_config"] = get_config().decode()
            out["blas_threads"] = get_threads()
            break
    return out


def main() -> None:
    record = {"python": platform.python_version(),
              "python_implementation": platform.python_implementation()}
    record.update(blas_record())
    print(json.dumps(record))


if __name__ == "__main__":
    main()
