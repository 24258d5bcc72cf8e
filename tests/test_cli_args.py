"""Cross-subcommand consistency of the shared CLI flags.

``--sa-table``, ``--jobs``, ``--map-effort`` and the MCTS knobs
appear on several subcommands; they are declared once in shared
helpers (see :mod:`repro.cli`), and these tests pin that a subcommand
cannot silently drift to different defaults or accept values its
siblings reject.
"""

import argparse

import pytest

from repro.cli import build_parser
from repro.flow import SweepSpec
from repro.techmap import MAP_EFFORTS

#: Subcommands carrying each shared flag.
SHARED_FLAGS = {
    "--sa-table": ("bench", "suite", "sweep", "estimate", "corpus",
                   "serve"),
    "--jobs": ("bench", "suite", "sweep", "estimate", "corpus", "serve"),
    "--map-effort": ("bench", "suite", "sweep", "estimate", "corpus"),
    "--mcts-budget": ("bench", "suite", "sweep", "estimate", "corpus",
                      "synth"),
    "--mcts-seed": ("bench", "suite", "sweep", "estimate", "corpus",
                    "synth"),
}

#: Subcommands where the flag is a comma-separated grid axis rather
#: than a scalar choice.
AXIS_SUBCOMMANDS = {"sweep"}


def _subparsers(parser):
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _flag_action(subparser, flag):
    for action in subparser._actions:
        if flag in action.option_strings:
            return action
    raise AssertionError(f"{flag} missing")


@pytest.fixture(scope="module")
def commands():
    return _subparsers(build_parser())


@pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
def test_flag_present_with_identical_default(commands, flag):
    defaults = {}
    for name in SHARED_FLAGS[flag]:
        defaults[name] = _flag_action(commands[name], flag).default
    assert len(set(defaults.values())) == 1, defaults


@pytest.mark.parametrize(
    "flag, choices",
    [("--map-effort", MAP_EFFORTS)],
)
def test_choice_flags_share_vocabulary(commands, flag, choices):
    for name in SHARED_FLAGS[flag]:
        action = _flag_action(commands[name], flag)
        if name in AXIS_SUBCOMMANDS:
            # Axis flags validate through their type callable: every
            # canonical choice parses, anything else is rejected.
            assert action.type(",".join(choices)) == list(choices)
            with pytest.raises(argparse.ArgumentTypeError):
                action.type("bogus")
            with pytest.raises(argparse.ArgumentTypeError):
                action.type(",")
        else:
            assert tuple(action.choices) == tuple(choices)


@pytest.mark.parametrize("flag", ["--sim-kernel", "--bind-engine",
                                  "--elab-engine"])
@pytest.mark.parametrize("command", ["bench", "suite", "sweep", "estimate",
                                     "corpus", "serve", "synth"])
def test_retired_engine_flags_rejected(command, flag):
    argv = [command] + (["pr"] if command in ("bench", "synth") else [])
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + [flag, "reference"])


@pytest.mark.parametrize("argv", [["sweep", "--precalc-mux", "4"],
                                  ["corpus", "--profile"]])
def test_retired_flags_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_reference_map_effort_rejected(commands):
    with pytest.raises(argparse.ArgumentTypeError):
        _flag_action(commands["sweep"], "--map-effort").type("reference")
    assert "reference" not in _flag_action(
        commands["estimate"], "--map-effort"
    ).choices


def test_axis_defaults_parse_to_single_value(commands):
    # argparse runs string defaults through `type`, so the default of
    # an axis flag must itself be a valid axis.
    for flag in ("--map-effort",):
        action = _flag_action(commands["sweep"], flag)
        assert action.type(action.default) == [action.default]


def test_sweep_sim_batch_flag(commands):
    action = _flag_action(commands["sweep"], "--sim-batch")
    assert action.default == SweepSpec.sim_batch
    assert action.type is int


def test_mcts_flag_defaults_match_sweep_spec(commands):
    # The CLI defaults and the SweepSpec/FlowConfig defaults must be
    # the same numbers, or `repro sweep` and a hand-built spec would
    # fingerprint (and cache) differently.
    for name in SHARED_FLAGS["--mcts-budget"]:
        budget = _flag_action(commands[name], "--mcts-budget")
        seed = _flag_action(commands[name], "--mcts-seed")
        assert budget.default == SweepSpec.mcts_budget
        assert seed.default == SweepSpec.mcts_seed
        assert budget.type is int and seed.type is int


def test_parsed_namespaces_agree():
    parser = build_parser()
    sweep = parser.parse_args(["sweep"])
    estimate = parser.parse_args(["estimate"])
    corpus = parser.parse_args(["corpus"])
    bench = parser.parse_args(["bench", "chem"])
    assert (sweep.sa_table == estimate.sa_table == corpus.sa_table
            == bench.sa_table)
    assert sweep.jobs == estimate.jobs == corpus.jobs == bench.jobs == 1
    # Axis flags resolve to one-element lists of the scalar default.
    assert sweep.map_effort == [estimate.map_effort] == [bench.map_effort]
    assert sweep.sim_batch == SweepSpec.sim_batch
