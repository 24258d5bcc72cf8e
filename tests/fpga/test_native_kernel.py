"""The native settle kernel's build, cache and fallback paths.

``simulate_design`` runs the C kernel when :func:`repro.fpga.native.load`
returns a library and :func:`simulate_batch` with one configuration when
it returns ``None``; both paths must give the reference result. The
cache tests point the loader at a temporary directory and rebuild the
object there: a torn cache file must be rebuilt rather than loaded, a
broken build must warn once with the compiler's stderr, and two
processes building at once must both end up on the native path.
"""

import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.fpga import native, simulate_design
from repro.fpga import simulate as simulate_mod

from tests.fpga.test_kernel_differential import build_mapped
from tests.oracles import simulate_reference

_SRC = Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """A loader with nothing loaded yet, caching under ``tmp_path``."""
    monkeypatch.setattr(native, "_LOADED", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "cache")
    return tmp_path / "cache"


def _needs_compiler():
    if native._find_compiler() is None:
        pytest.skip("no C compiler on PATH")


def _reference(design, vectors):
    return simulate_reference(design, vectors, collect_per_net=True)


def test_native_path_runs_the_c_kernel(monkeypatch):
    _needs_compiler()
    design, vectors = build_mapped("pr")
    calls = []
    original = native.simulate
    monkeypatch.setattr(
        native, "simulate",
        lambda *args: calls.append(1) or original(*args),
    )
    monkeypatch.setattr(
        simulate_mod, "simulate_batch",
        lambda *args, **kwargs: pytest.fail("fell back to the batch kernel"),
    )
    result = simulate_design(design, vectors, collect_per_net=True)
    assert calls == [1]
    assert result == _reference(design, vectors)


def test_fallback_path_runs_the_batch_kernel(monkeypatch):
    design, vectors = build_mapped("pr")
    monkeypatch.setattr(native, "load", lambda: None)
    monkeypatch.setattr(
        native, "simulate",
        lambda *args: pytest.fail("called the native kernel"),
    )
    batches = []
    original = simulate_mod.simulate_batch
    monkeypatch.setattr(
        simulate_mod, "simulate_batch",
        lambda *args, **kwargs: batches.append(1) or original(*args, **kwargs),
    )
    result = simulate_design(design, vectors, collect_per_net=True)
    assert batches == [1]
    assert result == _reference(design, vectors)


def test_status_reports_live_object_outside_checkout():
    _needs_compiler()
    status = native.kernel_status()
    assert status.live, status.detail
    path = Path(status.detail).resolve()
    assert path.is_file() and path.suffix == ".so"
    assert _ROOT not in path.parents


def test_failed_build_warns_once_with_stderr(fresh_loader, tmp_path,
                                             monkeypatch):
    _needs_compiler()
    broken = tmp_path / "settle.c"
    broken.write_text('#error "deliberately broken kernel source"\n')
    monkeypatch.setattr(native, "_SOURCE", broken)
    design, vectors = build_mapped("pr")
    with pytest.warns(RuntimeWarning, match="deliberately broken") as caught:
        result = simulate_design(design, vectors, collect_per_net=True)
    assert len([w for w in caught if "native" in str(w.message)]) == 1
    assert result == _reference(design, vectors)
    status = native.kernel_status()
    assert not status.live
    assert "deliberately broken" in status.detail
    # The failure is remembered: no second build, no second warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_design(design, vectors)
    assert not list(fresh_loader.glob("*.tmp"))


def test_missing_compiler_names_the_cause(fresh_loader, monkeypatch):
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        status = native.kernel_status()
    assert not status.live and "no C compiler" in status.detail


@pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
def test_torn_cache_file_is_rebuilt(fresh_loader, monkeypatch, damage):
    _needs_compiler()
    path = Path(native.kernel_status().detail)
    intact = path.read_bytes()
    if damage == "truncate":
        torn = intact[: len(intact) // 2]
    elif damage == "garbage":
        torn = b"\x7fELF" + b"\0" * 200
    else:
        torn = b""
    # Put the torn file in place as a new inode: this process still has
    # the intact object mapped, and shrinking a mapped file in place
    # makes the next touch of its pages (at the latest, the loader's
    # finalisers at exit) die with SIGBUS.
    staged = path.with_suffix(".torn")
    staged.write_bytes(torn)
    os.replace(staged, path)
    monkeypatch.setattr(native, "_LOADED", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = native.kernel_status()
    assert status.live and Path(status.detail) == path
    assert native._intact(path)
    design, vectors = build_mapped("pr")
    assert simulate_design(
        design, vectors, collect_per_net=True
    ) == _reference(design, vectors)


def test_object_name_keys_the_source(tmp_path, monkeypatch):
    _needs_compiler()
    compiler = native._find_compiler()
    name = native._object_name(compiler)
    edited = tmp_path / "settle.c"
    edited.write_bytes(native._SOURCE.read_bytes() + b"\n/* edit */\n")
    monkeypatch.setattr(native, "_SOURCE", edited)
    assert native._object_name(compiler) != name


_CHILD = textwrap.dedent("""
    import sys
    from pathlib import Path
    from repro.fpga import native
    native._cache_dir = lambda: Path(sys.argv[1])
    from tests.fpga.test_kernel_differential import build_mapped
    from repro.fpga import simulate_design
    design, vectors = build_mapped("pr")
    result = simulate_design(design, vectors)
    status = native.kernel_status()
    print(status.live, result.total_toggles)
""")


def test_two_processes_build_at_once(tmp_path):
    _needs_compiler()
    cache = tmp_path / "shared"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC), str(_ROOT)]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(cache)], cwd=_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=300) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
        assert "RuntimeWarning" not in err, err
    lines = [out.strip() for out, _ in outputs]
    assert lines[0] == lines[1] and lines[0].startswith("True ")
    assert len(list(cache.glob("*.so"))) == 1
    assert not list(cache.glob("*.tmp"))


def test_import_and_estimate_never_build():
    """Only a solo simulation loads the kernel: imports and an
    estimate-only flow never do."""
    code = textwrap.dedent("""
        import repro.serve
        from repro import benchmark_spec, list_schedule, load_benchmark
        from repro.flow import FlowConfig
        from repro.flow.run import run_estimate
        from repro.fpga import native
        spec = benchmark_spec("pr")
        schedule = list_schedule(load_benchmark("pr"), spec.constraints)
        run_estimate(schedule, spec.constraints, "lopass",
                     FlowConfig(flow="estimate", width=4))
        assert native._LOADED is None
    """)
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_concurrent_threads_agree():
    """The loaded library is shared; every call owns its own state."""
    _needs_compiler()
    design, vectors = build_mapped("chem")
    expected = simulate_design(design, vectors, collect_per_net=True)
    results = [None] * 4

    def work(slot):
        results[slot] = simulate_design(design, vectors, collect_per_net=True)

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert all(result == expected for result in results)


def test_malformed_arrays_are_rejected_before_the_call():
    _needs_compiler()
    design, vectors = build_mapped("pr")
    compiled = simulate_mod.compile_netlist(design.netlist, 0)
    arrays = list(compiled.native_arrays)
    arrays[2] = arrays[2].copy()
    arrays[2][0] = compiled.n_nets  # a fanin id past the last net
    empty = np.zeros(0, dtype=np.int32)
    with pytest.raises(SimulationError, match="fanins outside"):
        native.simulate(
            native.load(), tuple(arrays), compiled.n_nets, 64, 1,
            empty, np.zeros((0, 1), dtype=np.uint64), empty,
            np.zeros((1, 0), dtype=np.uint8),
        )
