"""Build, cache and load the native settle kernel (``settle.c``).

:func:`repro.fpga.simulate.simulate_design` runs its event-driven
settling in one C call. The shared object is compiled with the system
C compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``) and loaded through
:mod:`ctypes`; nothing outside the standard library is needed.

* **Lazy.** Nothing is compiled or loaded at import. The first
  :func:`load` (the first solo simulation, or :func:`kernel_status`)
  builds or loads the object once per process, so estimate-only
  processes and the ``repro serve`` front end never compile.
* **Cached per user.** The object lives in
  ``$XDG_CACHE_HOME/repro/native`` (default ``~/.cache/repro/native``),
  never in the checkout. Its file name carries a SHA-256 over the C
  source, the build flags, the compiler's identity (resolved path,
  size, mtime) and the platform, so an edit to any of them builds a new
  object instead of loading a stale one.
* **Published atomically, verified before loading.** A build writes a
  private temp file, appends the SHA-256 of the object as a trailer
  (the dynamic loader ignores bytes past the ELF data), loads it to
  prove it works, then ``os.replace``\\ s it into place: two processes
  building at once both succeed, and readers never see a partial file.
  A cached object whose trailer does not match its bytes (truncated or
  torn) is rebuilt before the loader ever maps it, as is one that will
  not load or reports another ABI.
* **Failure names its cause.** When no compiler is found or the build
  fails, :func:`load` returns ``None`` and issues one
  :class:`RuntimeWarning` carrying the compiler's stderr;
  ``simulate_design`` then runs the batch kernel (byte-identical, only
  slower). :func:`kernel_status` reports which path is live.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError

#: Widest truth table (gate arity) the kernel evaluates; wider gates
#: take the batch fallback. Passed to the compiler, so the C side sizes
#: its fold buffer from the same number.
MAX_ARITY = 12

#: Must match ``REPRO_SETTLE_ABI`` in settle.c.
_ABI = 1
_SOURCE = Path(__file__).with_name("settle.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99",
          f"-DREPRO_MAX_ARITY={MAX_ARITY}")
_COMPILERS = ("cc", "gcc", "clang")
_DIGEST = hashlib.sha256().digest_size
_ERRORS = {
    -1: "out of memory",
    -2: f"a gate has more than {MAX_ARITY} inputs",
    -3: "a gate delay below one tick",
    -4: "too many in-flight transition slots",
}


class _Sim(ctypes.Structure):
    """Mirror of ``struct repro_sim`` in settle.c (field for field)."""

    _fields_ = [
        ("n_nets", ctypes.c_int32),
        ("n_gates", ctypes.c_int32),
        ("n_latches", ctypes.c_int32),
        ("n_words", ctypes.c_int32),
        ("gate_out", ctypes.c_void_p),
        ("fanin_ptr", ctypes.c_void_p),
        ("fanin", ctypes.c_void_p),
        ("fanout_ptr", ctypes.c_void_p),
        ("fanout", ctypes.c_void_p),
        ("table_ptr", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("delay", ctypes.c_void_p),
        ("latch_q", ctypes.c_void_p),
        ("latch_d", ctypes.c_void_p),
        ("n_steps", ctypes.c_int32),
        ("n_pads", ctypes.c_int32),
        ("n_controls", ctypes.c_int32),
        ("tail_mask", ctypes.c_uint64),
        ("pad_net", ctypes.c_void_p),
        ("pad_value", ctypes.c_void_p),
        ("control_net", ctypes.c_void_p),
        ("control_bit", ctypes.c_void_p),
        ("state", ctypes.c_void_p),
        ("net_toggles", ctypes.c_void_p),
        ("counters", ctypes.c_void_p),
    ]


@dataclass(frozen=True)
class KernelStatus:
    """Which settle path ``simulate_design`` runs in this process."""

    #: True: the native kernel; False: the batch-kernel fallback.
    live: bool
    #: The loaded shared object's path, or why the fallback is live.
    detail: str


class _BuildError(Exception):
    pass


# One load per process (a loaded shared object is process-wide anyway);
# the lock keeps concurrent first simulations from building twice.
_LOCK = threading.Lock()
_LOADED: Optional[Tuple[Optional[ctypes.CDLL], KernelStatus]] = None


def load() -> Optional[ctypes.CDLL]:
    """The native kernel library, or ``None`` when it cannot be built.

    Builds (or loads the cached object) on the first call in a process;
    a failure warns once and is remembered.
    """
    return _load()[0]


def kernel_status() -> KernelStatus:
    """Report the live settle path, loading the kernel if not yet done."""
    return _load()[1]


def _load() -> Tuple[Optional[ctypes.CDLL], KernelStatus]:
    global _LOADED
    with _LOCK:
        if _LOADED is None:
            try:
                library, path = _build_and_load()
                _LOADED = (library, KernelStatus(True, str(path)))
            except (_BuildError, OSError) as exc:
                warnings.warn(
                    f"native settle kernel unavailable ({exc}); "
                    f"simulate_design falls back to the batch kernel",
                    RuntimeWarning, stacklevel=4,
                )
                _LOADED = (None, KernelStatus(False, str(exc)))
        return _LOADED


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def _find_compiler() -> Optional[str]:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _object_name(compiler: str) -> str:
    real = os.path.realpath(compiler)
    info = os.stat(real)
    digest = hashlib.sha256()
    for part in (
        _SOURCE.read_bytes(),
        " ".join(_FLAGS).encode(),
        f"{real}:{info.st_size}:{info.st_mtime_ns}".encode(),
        f"{sys.platform}:{platform.machine()}".encode(),
    ):
        digest.update(part)
        digest.update(b"\0")
    return f"settle-{digest.hexdigest()[:24]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the SHA-256 of the bytes before it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, trailer = data[:-_DIGEST], data[-_DIGEST:]
    return bool(body) and hashlib.sha256(body).digest() == trailer


def _open(path: Path) -> Optional[ctypes.CDLL]:
    """Load ``path`` and check it is this kernel's ABI, else ``None``."""
    if not _intact(path):
        return None
    try:
        library = ctypes.CDLL(str(path))
        library.repro_settle_abi.argtypes = []
        library.repro_settle_abi.restype = ctypes.c_int
        if library.repro_settle_abi() != _ABI:
            return None
    except (OSError, AttributeError):
        return None
    library.repro_simulate.argtypes = [ctypes.POINTER(_Sim)]
    library.repro_simulate.restype = ctypes.c_int
    return library


def _build_and_load() -> Tuple[ctypes.CDLL, Path]:
    compiler = _find_compiler()
    if compiler is None:
        raise _BuildError(
            f"no C compiler on PATH (looked for {', '.join(_COMPILERS)})"
        )
    directory = _cache_dir()
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    target = directory / _object_name(compiler)
    library = _open(target)
    if library is not None:
        return library, target
    # Missing, torn or foreign: build privately, prove the object
    # loads, then publish it atomically over whatever was there.
    fd, temp_name = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=directory
    )
    os.close(fd)
    temp = Path(temp_name)
    try:
        proc = subprocess.run(
            [compiler, *_FLAGS, "-o", str(temp), str(_SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise _BuildError(
                f"{compiler} exited with status {proc.returncode}: "
                f"{proc.stderr.strip()}"
            )
        digest = hashlib.sha256(temp.read_bytes()).digest()
        with open(temp, "ab") as handle:
            handle.write(digest)
        library = _open(temp)
        if library is None:
            raise _BuildError(f"{compiler} built an object that does not load")
        os.replace(temp, target)
    finally:
        if temp.exists():
            temp.unlink()
    return library, target


def _pointer(array: np.ndarray, dtype, shape: Tuple[int, ...]) -> int:
    """Address of ``array`` once its dtype, shape and layout are checked."""
    if (array.dtype != dtype or array.shape != shape
            or not array.flags.c_contiguous):
        raise SimulationError(
            f"native settle kernel input: expected C-contiguous "
            f"{np.dtype(dtype)} {shape}, got {array.dtype} {array.shape}"
        )
    return array.ctypes.data


def _check_ids(what: str, ids: np.ndarray, bound: int) -> None:
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
        raise SimulationError(
            f"native settle kernel input: {what} outside [0, {bound})"
        )


def _check_pointers(what: str, pointer: np.ndarray, size: int) -> None:
    if int(pointer[0]) != 0 or int(pointer[-1]) != size or (
            np.diff(pointer) < 0).any():
        raise SimulationError(
            f"native settle kernel input: malformed {what} row pointers"
        )


def simulate(
    library: ctypes.CDLL,
    netlist_arrays: Tuple[np.ndarray, ...],
    n_nets: int,
    lanes: int,
    n_steps: int,
    pad_net: np.ndarray,
    pad_value: np.ndarray,
    control_net: np.ndarray,
    control_bit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one simulation in the native kernel.

    ``netlist_arrays`` is :attr:`CompiledNetlist.native_arrays`;
    ``pad_value`` is ``(len(pad_net), n_words)`` uint64 (``n_words``
    64-lane words hold ``lanes`` lanes) and
    ``control_bit`` is ``(n_steps, len(control_net))`` uint8. Every
    array's dtype, shape and index range is checked here, before the
    kernel sees a pointer. Returns ``(state, net_toggles, counters)``:
    the final ``(n_nets, n_words)`` lane state, per-net toggle counts
    and the comb/reg/pad/control toggle totals.
    """
    (gate_out, fanin_ptr, fanin, fanout_ptr, fanout, table_ptr, table,
     delay, latch_q, latch_d) = netlist_arrays
    n_gates, n_latches = len(gate_out), len(latch_q)
    n_words = (lanes + 63) // 64
    tail_mask = (1 << (lanes - 64 * (n_words - 1))) - 1
    n_pads, n_controls = len(pad_net), len(control_net)
    i32, u64 = np.int32, np.uint64
    for what, pointer, values in (("fanin", fanin_ptr, fanin),
                                  ("fanout", fanout_ptr, fanout),
                                  ("table", table_ptr, table)):
        _check_pointers(what, pointer, len(values))
    arity = np.diff(fanin_ptr)
    if n_gates and (int(arity.max()) > MAX_ARITY or (
            np.diff(table_ptr) < ((1 << arity) + 31) >> 5).any()):
        raise SimulationError(
            "native settle kernel input: a truth table is wider than "
            f"{MAX_ARITY} inputs or shorter than its arity needs"
        )
    for what, ids in (("gate outputs", gate_out), ("fanins", fanin),
                      ("latch outputs", latch_q), ("latch data", latch_d),
                      ("pad nets", pad_net), ("control nets", control_net)):
        _check_ids(what, ids, n_nets)
    _check_ids("fanout gates", fanout, n_gates)
    driven = np.concatenate([pad_net, control_net, latch_q])
    if len(np.unique(driven)) != len(driven):
        # The kernel's changed-net list holds each net at most once.
        raise SimulationError(
            "native settle kernel input: a net is driven twice"
        )

    state = np.zeros((n_nets, n_words), dtype=u64)
    net_toggles = np.zeros(n_nets, dtype=np.int64)
    counters = np.zeros(4, dtype=np.int64)
    sim = _Sim(
        n_nets, n_gates, n_latches, n_words,
        _pointer(gate_out, i32, (n_gates,)),
        _pointer(fanin_ptr, i32, (n_gates + 1,)),
        _pointer(fanin, i32, fanin.shape),
        _pointer(fanout_ptr, i32, (n_nets + 1,)),
        _pointer(fanout, i32, fanout.shape),
        _pointer(table_ptr, i32, (n_gates + 1,)),
        _pointer(table, np.uint32, table.shape),
        _pointer(delay, i32, (n_gates,)),
        _pointer(latch_q, i32, (n_latches,)),
        _pointer(latch_d, i32, (n_latches,)),
        n_steps, n_pads, n_controls, tail_mask,
        _pointer(pad_net, i32, (n_pads,)),
        _pointer(pad_value, u64, (n_pads, n_words)),
        _pointer(control_net, i32, (n_controls,)),
        _pointer(control_bit, np.uint8, (n_steps, n_controls)),
        _pointer(state, u64, (n_nets, n_words)),
        _pointer(net_toggles, np.int64, (n_nets,)),
        _pointer(counters, np.int64, (4,)),
    )
    status = library.repro_simulate(ctypes.byref(sim))
    if status != 0:
        raise SimulationError(
            f"native settle kernel failed: "
            f"{_ERRORS.get(status, f'status {status}')}"
        )
    return state, net_toggles, counters
