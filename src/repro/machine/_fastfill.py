"""Compile-on-first-use loader for the simulator's C kernels.

``_fastfill.c`` is one CPython extension module holding two kernels:

* ``FlowStore``, the flow store of a
  :class:`repro.machine.contention.FluidNetwork`, and ``begin``, the
  network's flow start, which append to it on every flow arrival of
  every simulation — at 256 nodes a single exchange sweep makes ~10^5
  calls on small arrays, where NumPy's per-ufunc dispatch overhead
  dominates;
* ``EventQueue``, the discrete-event engine's heap and drain loop, the
  compiled twin of :class:`repro.sim.events.EventQueue` (about six
  events per message, each a Python call and a tuple-compared heap
  operation in the pure-Python queue), which also runs the network's
  arm–check–retire cycle on the store, traced runs included: rate
  reallocation (contention penalty plus the progressive fill of
  :func:`repro.machine.bandwidth.max_min_rates`), completion scan and
  retirement.  Given a schedule's flat rank programs, its ``run`` also
  runs the ranks (the compiled schedule executor behind an untraced,
  fault-free :func:`repro.schedules.execute_schedule`): rendezvous,
  software overheads, pack/unpack delays and flow starts, with no
  Python call per message.

So a build has one network path: with the kernel, ``begin`` and the
compiled cycle; without it, the engine's Python arm and the NumPy
reference.  Besides the two types, the module exports ``begin`` (a
``METH_FASTCALL`` call that converts only its scalar arguments),
``TABLE`` and ``TIME_ATOL``.  This module compiles the source with the
system C compiler, against the running interpreter's headers, into a
cached shared object and imports it.

The kernel is strictly optional:

* no compiler or Python headers, a failed compile, or a failed import
  -> :func:`kernel` returns ``None`` and callers fall back to NumPy and
  to the pure-Python event queue;
* ``REPRO_NO_FASTFILL=1`` disables it explicitly (the equivalence tests
  use this to run the kernel-less path).

Which path ran never shows in a result — results are bit-for-bit
identical by construction (same IEEE-754 operation order, compiled with
``-ffp-contract=off`` and without ``-ffast-math``; the event queue
fires events in the same ``(time, seq)`` order, and the schedule
executor pushes the generator path's events in that order too).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Optional

__all__ = ["kernel", "kernel_description"]

_SOURCE = Path(__file__).with_name("_fastfill.c")
_BUILD_DIR = Path(__file__).with_name("_fastfill_build")

#: Name the extension initializes under (``PyInit_fastfill`` in the C file).
_MODULE = "fastfill"

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
if sys.platform == "darwin":
    # Python symbols resolve against the host interpreter at import.
    _CFLAGS += ["-undefined", "dynamic_lookup"]

_kernel: Optional[ModuleType] = None
_kernel_state = "unloaded"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _so_path(cc: str) -> Path:
    """Cache path of the object ``cc`` builds from the current source.

    The key covers everything the object depends on: the source, the
    interpreter's ABI (headers and extension suffix), the resolved
    compiler and the flags, so an object built any other way is never
    reused.
    """
    include = sysconfig.get_paths()["include"]
    how = "\0".join(
        [include, sysconfig.get_config_var("EXT_SUFFIX") or "", cc, *_CFLAGS]
    )
    tag = hashlib.sha256(_SOURCE.read_bytes() + how.encode()).hexdigest()[:16]
    return _BUILD_DIR / f"fastfill-{tag}.so"


def _compile() -> Optional[Path]:
    """Build (or reuse) the cached shared object; None when impossible."""
    if not _SOURCE.exists():
        return None
    cc = _find_compiler()
    if cc is None:
        return None
    include = sysconfig.get_paths()["include"]
    so_path = _so_path(cc)
    if so_path.exists():
        return so_path
    try:
        _BUILD_DIR.mkdir(exist_ok=True)
    except OSError:
        so_path = Path(tempfile.mkdtemp(prefix="repro-fastfill-")) / so_path.name
    tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
    try:
        subprocess.run(
            [cc, *_CFLAGS, f"-I{include}", "-o", str(tmp), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=60,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builds can race
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return None
    return so_path


def _load() -> Optional[ModuleType]:
    global _kernel_state
    if os.environ.get("REPRO_NO_FASTFILL"):
        _kernel_state = "disabled (REPRO_NO_FASTFILL)"
        return None
    so_path = _compile()
    if so_path is None:
        _kernel_state = "unavailable (no compiler or build failed)"
        return None
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(so_path))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_MODULE, loader)
        )
        loader.exec_module(module)
    except (ImportError, OSError):
        _kernel_state = "unavailable (load failed)"
        return None
    _kernel_state = f"loaded ({so_path.name})"
    return module


def kernel() -> Optional[ModuleType]:
    """The compiled extension module, or None (NumPy and Python fallbacks)."""
    global _kernel
    if _kernel_state == "unloaded":
        _kernel = _load()
    return _kernel


def kernel_description() -> str:
    """Human-readable state of the fast kernel (for perf reports)."""
    kernel()
    return _kernel_state
