"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import BadabingConfig
from repro.live.controller import FleetController, PathTarget
from repro.obs import (
    MetricsRegistry,
    StageProfiler,
    TelemetryExporter,
    audit_document,
    scorecard_from_runs,
    write_audit_document,
    write_metrics_document,
)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "episodic_cbr" in out
    assert "table8" in out
    assert "fig9b" in out


def test_measure_command_smoke(capsys):
    code = main([
        "measure", "episodic_cbr", "--p", "0.5", "--slots", "4000",
        "--seed", "3", "--profile", "smoke",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "loss frequency" in out
    assert "validation" in out


def test_zing_command_smoke(capsys):
    code = main([
        "zing", "episodic_cbr", "--rate", "20", "--size", "64",
        "--duration", "20", "--profile", "smoke",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "probes sent" in out
    assert "reported" in out


def test_table_command_rejects_unknown(capsys):
    assert main(["table", "9"]) == 2
    assert "unknown table" in capsys.readouterr().err


def test_figure_command_rejects_unknown(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figure_name_normalization(capsys):
    # "5" and "fig5" both resolve.
    parser = build_parser()
    args = parser.parse_args(["figure", "5", "--profile", "smoke"])
    assert args.handler(args) == 0
    assert "fig5" in capsys.readouterr().out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["measure", "sweep"])
def test_online_commands_have_no_vectorized_flag(command, capsys):
    # The batch pipeline is offline-only: only `analyze` takes --vectorized.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "episodic_cbr", "--vectorized"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --vectorized" in capsys.readouterr().err


def test_measure_improved_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["measure", "harpoon_web", "--improved"])
    assert args.improved is True
    assert args.scenario == "harpoon_web"


def test_measure_save_and_analyze_round_trip(tmp_path, capsys):
    trace = tmp_path / "m.jsonl"
    code = main([
        "measure", "episodic_cbr", "--p", "0.5", "--slots", "4000",
        "--seed", "5", "--profile", "smoke", "--save", str(trace),
    ])
    assert code == 0
    assert trace.exists()
    capsys.readouterr()
    code = main(["analyze", str(trace), "--alpha", "0.1", "--tau", "0.04"])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated loss frequency" in out
    assert "N=4000" in out


def test_analyze_rejects_garbage(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"type": "nope"}\n')
    # Structured errors exit with a clean diagnostic, not a traceback.
    assert main(["analyze", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "badabing-trace" in err or "nope" in err


def _write_trace(path):
    profiler = StageProfiler()
    with profiler.stage("sim.run"):
        pass
    profiler.write_jsonl(path)


#: A writer of one valid artifact per ``obs validate`` kind.
_VALID_ARTIFACT = {
    "metrics": lambda path: write_metrics_document(path, MetricsRegistry()),
    "trace": _write_trace,
    "audit": lambda path: write_audit_document(
        path, audit_document(scorecard_from_runs([]))
    ),
    "export": lambda path: TelemetryExporter(MetricsRegistry(), path=path).close(),
    "controller": lambda path: FleetController(
        [PathTarget("a", BadabingConfig())], events_path=path
    ).finalize(),
}


@pytest.mark.parametrize("case", ["missing", "not-json", "schema-invalid", "valid"])
@pytest.mark.parametrize("kind", sorted(_VALID_ARTIFACT))
def test_obs_validate_exit_contract(kind, case, tmp_path, capsys):
    """One contract for every kind: exit 2 if a file cannot be read or
    parsed, else 1 on schema problems, else 0; every named file is checked."""
    path = tmp_path / f"{kind}.out"
    if case == "valid":
        _VALID_ARTIFACT[kind](path)
    elif case == "not-json":
        path.write_text("{not json\n{not json\n")
    elif case == "schema-invalid":
        path.write_text(json.dumps({"schema": "nope", "seq": 1}) + "\n")
    named = ([] if kind == "metrics" else [f"--{kind}"]) + [str(path)]
    expected = {"missing": 2, "not-json": 2, "schema-invalid": 1, "valid": 0}[case]
    assert main(["obs", "validate", *named]) == expected

    other = "export" if kind == "controller" else "controller"
    companion = tmp_path / "companion.ndjson"
    companion.write_text(json.dumps({"schema": "nope", "seq": 1}) + "\n")
    capsys.readouterr()
    code = main(["obs", "validate", *named, f"--{other}", str(companion)])
    assert code == max(expected, 1)
    assert f"{companion}: " in capsys.readouterr().err


def test_bench_subcommand_is_gone(capsys):
    # perfbench/ is the one benchmark; a run's profile comes from its trace.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["bench", "--suite", "fast"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def _profile_rows(out):
    """``obs profile`` output as {stage: calls} (table) and tree lines."""
    table, tree = out.split("  call tree:\n")
    rows = {
        line.split()[0]: int(line.split()[1])
        for line in table.splitlines()[2:]
    }
    return rows, tree.splitlines()


def test_obs_profile_of_measure_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main([
        "measure", "episodic_cbr", "--slots", "4000", "--seed", "3",
        "--profile", "smoke", "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "profile", str(trace)]) == 0
    rows, tree = _profile_rows(capsys.readouterr().out)
    # queue.service is a span-free leaf: only the profile record has it.
    assert rows["queue.service"] > 0 and rows["sim.run"] == 1
    assert tree[0].split()[0] == "sim.run"
    assert tree[1].startswith("    queue.service")


def test_obs_profile_of_parallel_sweep_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main([
        "sweep", "episodic_cbr", "--p", "0.3,0.5", "--seeds", "1",
        "--slots", "600", "--workers", "2", "--profile", "smoke",
        "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "profile", str(trace), "--top", "50"]) == 0
    rows, tree = _profile_rows(capsys.readouterr().out)
    # Worker profiles are absorbed: both cells' sim.run show up.
    assert rows["sweep.cell"] == 2 and rows["sim.run"] == 2
    assert tree[0].split()[0] == "sweep.cell"
    assert any(line.startswith("    sim.run") for line in tree)


def test_obs_validate_rejects_negative_profile_self_seconds(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_trace(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert main(["obs", "validate", "--trace", str(path)]) == 0
    records[-1]["stages"]["sim.run"]["self_seconds"] = -1.0
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["obs", "validate", "--trace", str(path)]) == 1
    assert "negative duration" in capsys.readouterr().err
