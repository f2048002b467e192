"""Hold numpy's bundled OpenBLAS to one thread while trials run.

OpenBLAS runs each large enough call on a thread per core. Two trial
threads that each call into it therefore put twice as many busy threads on
the cores as there are cores, and both trials slow down. Its thread count
also decides how some products are split, and so their last bits.
`single_threaded` sets OpenBLAS to one thread for the length of a block and
then restores the count it found. It reaches OpenBLAS's own get/set functions through ctypes;
threadpoolctl does the same for every BLAS it can find, but is not a
dependency. When no setter is found every function here does nothing.
`keep_heap` is the one other process setting trials run under.
"""

from contextlib import contextmanager
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# numpy's wheels rename OpenBLAS's symbols (scipy_openblas*, 64_ for the
# 64-bit-integer build); plain openblas names come from other builds
_NAME_FORMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
               "openblas_{}_num_threads64_", "openblas_{}_num_threads")

# the thread count is one setting for the whole process, so overlapping
# blocks share one saved value and the last block to exit restores it
_lock = threading.Lock()
_depth = 0
_saved = None


def library_pattern():
    """Glob of the OpenBLAS libraries bundled with numpy."""
    site = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
    return os.path.join(site, "numpy.libs", "*openblas*.so*")


@functools.cache
def _api():
    """(get, set) ctypes functions of numpy's OpenBLAS, or None."""
    for path in sorted(glob.glob(library_pattern())):
        try:
            # numpy has loaded this file already, so this returns that copy
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for form in _NAME_FORMS:
            get = getattr(lib, form.format("get"), None)
            set_ = getattr(lib, form.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads():
    """OpenBLAS's current thread count, or None when it cannot be read."""
    api = _api()
    return None if api is None else api[0]()


def set_threads(n):
    """Set OpenBLAS's thread count; does nothing when no setter was found."""
    api = _api()
    if api is not None:
        api[1](n)


@functools.cache
def keep_heap():
    """Once per process, on glibc: blocks under 32 MiB come from the heap and
    up to 64 MiB of its freed top stays mapped. A training step frees its
    tape; without this glibc hands those pages back and the next step faults
    them in again, a quarter of a serial trial's time and as long as the
    machine's load makes it. Without mallopt this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@contextmanager
def single_threaded():
    """One OpenBLAS thread inside the block; the count found is restored
    when the last of any overlapping blocks exits, also on an exception."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = threads()
            set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_threads(_saved)
