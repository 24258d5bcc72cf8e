"""Tests for the precalculated SA table."""

import glob
import os
import threading

import pytest

from repro.errors import BindingError
from repro.binding.sa_table import SATable, SATableConfig

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SHIPPED_TABLE = os.path.join(_REPO_ROOT, "data", "sa_table.txt")


class TestLookup:
    def test_lazy_compute_and_cache(self, sa_table):
        first = sa_table.get("add", 2, 1)
        assert first > 0
        before = len(sa_table)
        second = sa_table.get("add", 1, 2)  # normalized to same key
        assert len(sa_table) == before
        assert second == first

    def test_symmetric_normalization(self):
        assert SATable.normalize("add", 5, 2) == ("add", 2, 5)
        assert SATable.normalize("mult", 2, 5) == ("mult", 2, 5)

    def test_unknown_class_rejected(self):
        with pytest.raises(BindingError):
            SATable.normalize("div", 1, 1)

    def test_zero_mux_rejected(self):
        with pytest.raises(BindingError):
            SATable.normalize("add", 0, 1)

    def test_contains(self, sa_table):
        sa_table.get("add", 1, 1)
        assert ("add", 1, 1) in sa_table

    def test_sa_grows_with_mux_size(self, sa_table):
        """Section 5.2.2: bigger partial datapaths switch more."""
        small = sa_table.get("add", 1, 1)
        medium = sa_table.get("add", 3, 3)
        large = sa_table.get("add", 5, 5)
        assert small < medium < large

    def test_mult_costs_more_than_add(self, sa_table):
        assert sa_table.get("mult", 2, 2) > sa_table.get("add", 2, 2)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "table.txt")
        table = SATable(SATableConfig(width=3), path)
        value = table.get("add", 2, 2)
        table.save()
        reloaded = SATable(SATableConfig(width=3), path)
        assert len(reloaded) == 1
        assert reloaded.get("add", 2, 2) == value

    def test_save_requires_path(self):
        table = SATable()
        table.get("add", 1, 1)
        with pytest.raises(BindingError):
            table.save()

    def test_other_config_entries_skipped(self, tmp_path):
        path = str(tmp_path / "table.txt")
        narrow = SATable(SATableConfig(width=3), path)
        narrow.get("add", 1, 1)
        narrow.save()
        wide = SATable(SATableConfig(width=4), path)
        assert len(wide) == 0

    @pytest.mark.parametrize("line, reason", [
        ("add 1 1 garbage", "expected 8 fields"),
        ("add 1 x 4 4 0 1 1.0", "invalid literal"),
        ("add 1 1 4 4 0 1 lots", "could not convert"),
        ("add 1 1 4 4 0 1 nan", "finite and >= 0"),
        ("add 1 1 4 4 0 1 inf", "finite and >= 0"),
        ("add 1 1 4 4 0 1 -0.5", "finite and >= 0"),
        # Validated even when it belongs to another configuration.
        ("add 1 1 3 4 0 1 nan", "finite and >= 0"),
        ("div 1 1 4 4 0 1 1.0", "unknown FU class"),
        ("add 0 1 4 4 0 1 1.0", "mux sizes must be >= 1"),
        ("add 3 2 4 4 0 1 1.0", "key not normalized"),
    ])
    def test_malformed_line_rejected(self, tmp_path, line, reason):
        path = tmp_path / "table.txt"
        path.write_text(f"# header\nadd 1 1 4 4 0 1 1.0\n{line}\n")
        with pytest.raises(BindingError) as info:
            SATable(SATableConfig(), str(path))
        message = str(info.value)
        assert f"{path}:3" in message
        assert reason in message


class TestShippedTable:
    """``data/sa_table.txt`` is an outside input the flow only reads:
    it must hold exactly what a fresh table computes, or its fill
    state would change bindings behind the bind fingerprint's back."""

    def test_every_entry_equals_a_fresh_value(self):
        shipped = SATable(path=SHIPPED_TABLE)
        assert len(shipped) > 0
        fresh = SATable()
        for key, value in sorted(shipped._values.items()):
            assert fresh.get(*key) == value, key
        # The fresh values ran clean_fast on partial datapaths with
        # multiplexers up to 18 inputs.
        assert max(key[2] for key in shipped._values) == 18


def _write_entries(path, n: int) -> int:
    """A width-3 table file of n synthetic entries per FU class (no
    estimation, just keys); returns the entry count."""
    lines = []
    for fu_class in ("add", "mult"):
        for mux_a in range(1, n + 1):
            for mux_b in range(mux_a, n + 1):
                value = 0.125 * (mux_a + mux_b)
                lines.append(f"{fu_class} {mux_a} {mux_b} 3 4 0 1 {value}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


class TestProcessSafeSave:
    """The sweep-worker scenario: concurrent saves of data/sa_table.txt
    must never leave a torn or partial file behind."""

    def test_concurrent_saves_never_corrupt(self, tmp_path):
        path = str(tmp_path / "table.txt")
        # ~340 lines, several write() calls per save.
        n_entries = _write_entries(path, 18)
        table = SATable(SATableConfig(width=3), path)
        table.save()

        errors = []

        def hammer():
            local = SATable(SATableConfig(width=3), path)
            try:
                for _ in range(20):
                    local.save(path)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in writers:
            thread.start()
        # Read continuously while the writers race each other: every
        # observable file state must parse and be complete.
        while any(thread.is_alive() for thread in writers):
            reloaded = SATable(SATableConfig(width=3), path)
            assert len(reloaded) == n_entries
        for thread in writers:
            thread.join()
        assert errors == []
        reloaded = SATable(SATableConfig(width=3), path)
        assert len(reloaded) == n_entries

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "table.txt")
        _write_entries(path, 4)
        table = SATable(SATableConfig(width=3), path)
        table.save()
        leftovers = [
            name
            for name in glob.glob(str(tmp_path / "*"))
            if os.path.basename(name) != "table.txt"
        ]
        assert leftovers == []

    def test_save_preserves_file_permissions(self, tmp_path):
        source = str(tmp_path / "source.txt")
        _write_entries(source, 1)
        path = str(tmp_path / "table.txt")
        table = SATable(SATableConfig(width=3), source)
        table.save(path)
        umask = os.umask(0)
        os.umask(umask)
        # A fresh file honors the umask, not mkstemp's 0600 default.
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
        os.chmod(path, 0o604)
        table.save(path)
        assert os.stat(path).st_mode & 0o777 == 0o604

    def test_failed_save_cleans_temp_and_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "table.txt")
        _write_entries(path, 1)
        table = SATable(SATableConfig(width=3), path)
        table.save()
        before = open(path).read()

        # Corrupt the in-memory values so formatting raises mid-write.
        table._values[("mult", 1, 1)] = "not-a-float"
        with pytest.raises(Exception):
            table.save()
        assert open(path).read() == before  # old content intact
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name != "table.txt"
        ]
        assert leftovers == []


class TestPrecalculate:
    def test_precalculate_fills_triangle(self, tmp_path):
        table = SATable(SATableConfig(width=3))
        computed = table.precalculate(max_mux=2, fu_classes=("add",))
        assert computed == 3  # (1,1), (1,2), (2,2)
        assert table.precalculate(max_mux=2, fu_classes=("add",)) == 0

    def test_mapped_mode_differs_from_gate_level(self):
        gate_level = SATable(SATableConfig(width=3, map_to_luts=False))
        mapped = SATable(SATableConfig(width=3, map_to_luts=True))
        a = gate_level.get("add", 2, 2)
        b = mapped.get("add", 2, 2)
        assert a != b
        assert a > 0 and b > 0

    def test_mapped_mode_preserves_ordering(self):
        """The paper's precalc-vs-dynamic equivalence claim, in our
        setting: both estimation modes rank candidate mux shapes the
        same way."""
        gate_level = SATable(SATableConfig(width=3, map_to_luts=False))
        mapped = SATable(SATableConfig(width=3, map_to_luts=True))
        shapes = [(1, 1), (2, 2), (4, 4)]
        order_a = sorted(shapes, key=lambda s: gate_level.get("add", *s))
        order_b = sorted(shapes, key=lambda s: mapped.get("add", *s))
        assert order_a == order_b
