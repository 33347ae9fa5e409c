"""Compile-on-first-use loader for the C fluid-network kernel.

The allocation inner loop (:func:`repro.machine.bandwidth.max_min_rates`)
and the per-event flow-store operations of
:class:`repro.machine.contention.FluidNetwork` run on every flow
arrival/departure of every simulation — at 256 nodes a single exchange
sweep makes ~10^5 calls on small arrays, where NumPy's per-ufunc
dispatch overhead dominates.  ``_fastfill.c`` implements them as a
CPython extension module with ``METH_FASTCALL`` entry points, so each
network operation is one C call that converts only its scalar
arguments.  This module compiles it with the system C compiler, against
the running interpreter's headers, into a cached shared object and
imports it.

The kernel is strictly optional:

* no compiler or Python headers, a failed compile, or a failed import
  -> :func:`kernel` returns ``None`` and callers fall back to NumPy;
* ``REPRO_NO_FASTFILL=1`` disables it explicitly (the equivalence tests
  use this to exercise both paths).

Nothing outside this module needs to know which path ran — results are
bit-for-bit identical by construction (same IEEE-754 operation order,
compiled with ``-ffp-contract=off`` and without ``-ffast-math``).
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


def _compile() -> Optional[Path]:
    """Build (or reuse) the cached shared object; None when impossible."""
    if not _SOURCE.exists():
        return None
    cc = _find_compiler()
    if cc is None:
        return None
    include = sysconfig.get_paths()["include"]
    # The object is built against this interpreter's ABI: key the cache
    # on it as well as on the source.
    abi = f"{include}\0{sysconfig.get_config_var('EXT_SUFFIX')}".encode()
    tag = hashlib.sha256(_SOURCE.read_bytes() + abi).hexdigest()[:16]
    so_path = _BUILD_DIR / f"fastfill-{tag}.so"
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
    """The compiled extension module, or None (NumPy fallback)."""
    global _kernel
    if _kernel_state == "unloaded":
        _kernel = _load()
    return _kernel


def kernel_description() -> str:
    """Human-readable state of the fast kernel (for perf reports)."""
    kernel()
    return _kernel_state
