"""The SA table file is an outside input: every flow reads it, none
writes it back.

Each entry point below runs against a private copy of the shipped
``data/sa_table.txt`` on a grid that computes entries the file does
not hold; the copy must be byte-identical afterwards. A malformed
table is a user error (``error: ...``), not a traceback.
"""

import asyncio
import os
import shutil

import pytest

from repro.binding import SATable
from repro.cli import main
from repro.flow import SweepSpec, run_sweep
from repro.serve import FlowServer, ServeConfig
from tests.serve.test_server import http_request

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

#: A corpus instance whose HLPower binding needs a key the shipped
#: table lacks (checked by ``test_instance_needs_new_keys``).
WIDE = "wide-n64-m50-d50-s3"


@pytest.fixture()
def table_copy(tmp_path):
    path = tmp_path / "sa_table.txt"
    shutil.copyfile(os.path.join(_REPO_ROOT, "data", "sa_table.txt"), path)
    return path


def test_instance_needs_new_keys(table_copy):
    table = SATable(path=str(table_copy))
    shipped = len(table)
    run_sweep(SweepSpec(benchmarks=[WIDE], binders=("hlpower",),
                        widths=(4,), flow="estimate", baseline="none"),
              sa_table=table)
    assert len(table) > shipped


def test_cli_sweep_on_a_pool_leaves_the_file_untouched(table_copy, capsys):
    before = table_copy.read_bytes()
    assert main(["sweep", "--benchmarks", f"pr,{WIDE}", "--widths", "4",
                 "--flow", "estimate", "--jobs", "2",
                 "--sa-table", str(table_copy)]) == 0
    assert "Sweep: 4 cells" in capsys.readouterr().out
    assert table_copy.read_bytes() == before


def test_cli_estimate_leaves_the_file_untouched(table_copy, capsys):
    before = table_copy.read_bytes()
    assert main(["estimate", "--benchmarks", WIDE, "--binders", "hlpower",
                 "--width", "4", "--baseline", "none",
                 "--sa-table", str(table_copy)]) == 0
    assert WIDE in capsys.readouterr().out
    assert table_copy.read_bytes() == before


def test_daemon_start_request_stop_leaves_the_file_untouched(table_copy):
    before = table_copy.read_bytes()

    async def scenario():
        server = FlowServer(ServeConfig(port=0, sa_table=str(table_copy)))
        await server.start()
        try:
            return await http_request(
                server.port, "POST", "/estimate",
                {"benchmark": WIDE, "binder": "hlpower", "width": 4},
            )
        finally:
            await server.stop()

    status, _, _ = asyncio.run(scenario())
    assert status == 200
    assert table_copy.read_bytes() == before


@pytest.mark.parametrize("command", [
    ["estimate", "--benchmarks", "pr"],
    ["sweep", "--benchmarks", "pr"],
    ["bench", "pr"],
    ["corpus", "--limit", "1", "--no-oracle"],
    ["serve", "--port", "0"],
])
def test_malformed_table_is_a_cli_error(tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_text("add 1 1 4 4 0 1 nan\n")
    with pytest.raises(SystemExit) as info:
        main(command + ["--sa-table", str(path)])
    message = str(info.value.code)
    assert message.startswith("error: malformed SA table line")
    assert f"{path}:1" in message
