"""The OpenBLAS library numpy loaded, reached through ctypes.

It reports the library's thread count and the name of the kernel family
it picked at run time, and ``one_thread()`` runs a scope's GEMMs on one
BLAS thread. The library is found among the shared objects the process
has loaded, under the names numpy's bundled build exports
(``scipy_openblas_*64_``) or plain OpenBLAS ones (``openblas_*``). Where
there is no such library, ``threads()`` returns None, ``kernel()``
"unknown", and ``one_thread()`` changes nothing.
"""

import contextlib
import ctypes
import functools
import threading

import numpy as np  # noqa: F401  (loads the library this module looks for)

_NAMES = (("scipy_openblas_", "64_"), ("openblas_", ""))


@functools.lru_cache(maxsize=None)
def _lib():
    """(get_num_threads, set_num_threads, get_corename) of the loaded
    OpenBLAS, or None; looked up on first use, not at import."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            try:
                fns = [getattr(lib, f"{prefix}{name}{suffix}")
                       for name in ("get_num_threads", "set_num_threads", "get_corename")]
            except AttributeError:
                continue
            get, put, core = fns
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            core.argtypes, core.restype = [], ctypes.c_char_p
            return get, put, core
    return None


_lock = threading.Lock()
_depth = 0
_saved = None


def threads():
    """The library's current thread count, or None without the library."""
    lib = _lib()
    return None if lib is None else lib[0]()


def kernel():
    """The name of the kernel family the library runs, e.g. "SkylakeX"."""
    lib = _lib()
    return "unknown" if lib is None else lib[2]().decode("ascii", "replace")


@contextlib.contextmanager
def one_thread():
    """Scope whose GEMMs run on one BLAS thread. The outermost scope sets
    the count and restores the one it found on exit, also on error; the
    count is process-wide, so scopes nest and may overlap across threads."""
    global _depth, _saved
    lib = _lib()
    if lib is None:
        yield
        return
    get, put, _ = lib
    with _lock:
        if _depth == 0:
            _saved = get()
            put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)
