"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, build_scenario, main, report_table
from repro.scenarios.highway import HighwayScenario
from repro.scenarios.intersection import IntersectionScenario
from repro.scenarios.urban_grid import UrbanGridScenario


def test_parser_defaults_and_overrides():
    parser = build_parser()
    args = parser.parse_args(["intersection"])
    assert args.vehicles == 6 and args.duration == 20.0 and args.seed == 0
    args = parser.parse_args(["urban-grid", "--vehicles", "9", "--duration", "5", "--seed", "3"])
    assert (args.vehicles, args.duration, args.seed) == (9, 5.0, 3)


def test_parser_requires_a_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_build_scenario_dispatch():
    parser = build_parser()
    assert isinstance(build_scenario(parser.parse_args(["intersection"])), IntersectionScenario)
    assert isinstance(build_scenario(parser.parse_args(["urban-grid"])), UrbanGridScenario)
    assert isinstance(build_scenario(parser.parse_args(["highway"])), HighwayScenario)


def test_main_runs_and_prints_report(capsys):
    exit_code = main(["intersection", "--vehicles", "4", "--duration", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "AirDnD scenario report: intersection" in captured.out
    assert "tasks_submitted" in captured.out
    assert "occluded_detection_rate" in captured.out


def test_report_table_contains_every_metric():
    exit_code = main(["urban-grid", "--vehicles", "6", "--duration", "5", "--seed", "2"])
    assert exit_code == 0


def test_sweep_parser_defaults_and_overrides():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--scenario", "highway", "--n", "4", "8"])
    assert args.command == "sweep"
    assert args.scenario == "highway"
    assert args.n == [4, 8]
    assert args.repetitions == 3 and args.duration == 20.0 and args.seed == 0
    assert args.jobs == 1 and args.out is None and args.sets is None


def test_sweep_requires_scenario_and_sizes():
    # Missing --scenario is a parse error; missing dimensions surfaces when
    # the sweep command actually runs.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--n", "4"])
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--scenario", "highway"])
    assert "at least one dimension" in str(excinfo.value)


def test_sweep_set_grammar_parses_dimensions():
    from repro.cli import parse_sweep_dimensions

    parser = build_parser()
    args = parser.parse_args([
        "sweep", "--scenario", "highway",
        "--n", "4", "8",
        "--set", "beacon_period=0.2,0.5",
        "--set", "heterogeneous_compute=true,false",
    ])
    dimensions = parse_sweep_dimensions(args)
    assert list(dimensions) == ["n", "beacon_period", "heterogeneous_compute"]
    assert dimensions["n"] == [4, 8]
    assert dimensions["beacon_period"] == [0.2, 0.5]
    assert dimensions["heterogeneous_compute"] == [True, False]


def test_sweep_set_grammar_rejects_malformed_input():
    from repro.cli import parse_sweep_dimensions

    parser = build_parser()

    def parse(*sets, n=None):
        argv = ["sweep", "--scenario", "highway"]
        if n:
            argv += ["--n", *map(str, n)]
        for assignment in sets:
            argv += ["--set", assignment]
        return parse_sweep_dimensions(parser.parse_args(argv))

    with pytest.raises(SystemExit):
        parse("beacon_period")          # no '='
    with pytest.raises(SystemExit):
        parse("beacon_period=")         # no values
    with pytest.raises(SystemExit):
        parse("n=4,8", n=[4, 8])        # duplicate dimension via the alias
    with pytest.raises(SystemExit):
        parse("n=4", "n=8")             # duplicate dimension
    with pytest.raises(SystemExit):
        parse("seed=1,2")               # the seed comes from --seed
    with pytest.raises(SystemExit):
        parse("num_vehicles=4", n=[4])  # fleet aliases normalise to n


def test_sweep_fleet_aliases_normalise_to_n():
    from repro.cli import parse_sweep_dimensions

    parser = build_parser()
    for alias in ("num_vehicles", "vehicles_per_direction"):
        args = parser.parse_args(
            ["sweep", "--scenario", "highway", "--set", f"{alias}=4,8"]
        )
        assert parse_sweep_dimensions(args) == {"n": [4, 8]}


def test_sweep_set_alias_output_identical_to_n(capsys):
    argv_tail = ["--duration", "3", "--repetitions", "1", "--seed", "2"]
    assert main(["sweep", "--scenario", "intersection", "--n", "4", "5", *argv_tail]) == 0
    via_n = capsys.readouterr().out
    assert main(["sweep", "--scenario", "intersection", "--set", "n=4,5", *argv_tail]) == 0
    via_set = capsys.readouterr().out
    assert via_n == via_set


def test_sweep_repeated_invocation_is_byte_identical(capsys):
    argv = ["sweep", "--scenario", "intersection", "--set", "n=4",
            "--duration", "3", "--repetitions", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_jobs_output_identical_to_sequential(capsys):
    argv_tail = ["--duration", "3", "--repetitions", "2", "--seed", "4"]
    assert main(["sweep", "--scenario", "intersection", "--set", "n=4,5",
                 "--jobs", "1", *argv_tail]) == 0
    sequential = capsys.readouterr().out
    assert main(["sweep", "--scenario", "intersection", "--set", "n=4,5",
                 "--jobs", "3", *argv_tail]) == 0
    parallel = capsys.readouterr().out
    assert sequential == parallel


def test_sweep_two_dimensional_grid_prints_every_point(capsys):
    exit_code = main([
        "sweep", "--scenario", "intersection",
        "--set", "n=4,5", "--set", "beacon_period=0.4,0.8",
        "--duration", "3", "--repetitions", "1", "--seed", "1",
        "--metrics", "node_count",
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    table_rows = [line.split() for line in captured.out.splitlines()
                  if "node_count" in line and "×" not in line]
    assert [(row[0], row[1]) for row in table_rows] == [
        ("4", "0.4"), ("4", "0.8"), ("5", "0.4"), ("5", "0.8")
    ]


def test_sweep_rejects_bad_out_suffix_before_running(monkeypatch, tmp_path):
    import repro.cli as cli

    def fail_if_swept(*args, **kwargs):
        raise AssertionError("the sweep ran before --out validation")

    monkeypatch.setattr(cli, "sweep_scenario_grid", fail_if_swept)
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--scenario", "highway", "--set", "n=4",
            "--duration", "3", "--repetitions", "1",
            "--out", str(tmp_path / "results.txt"),
        ])
    assert "use .json or .csv" in str(excinfo.value)


def test_sweep_exports_json_and_csv(tmp_path, capsys):
    import csv
    import json

    json_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    exit_code = main([
        "sweep", "--scenario", "highway",
        "--set", "n=2,3", "--set", "beacon_period=0.5,1.0",
        "--duration", "3", "--repetitions", "1", "--seed", "1",
        "--out", str(json_path), "--out", str(csv_path),
    ])
    assert exit_code == 0
    payload = json.loads(json_path.read_text())
    assert payload["sweep"]["scenario"] == "highway"
    assert payload["sweep"]["grid"] == {"n": [2, 3], "beacon_period": [0.5, 1.0]}
    assert len(payload["points"]) == 4
    assert all(len(point["runs"]) == 1 for point in payload["points"])
    assert "mesh_bytes" in payload["points"][0]["aggregates"]
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["n", "beacon_period", "repetition"]
    assert len(rows) == 1 + 4 * 3   # per point: one raw row + mean + stddev


def test_sweep_scenario_accepts_underscore_alias():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--scenario", "urban_grid", "--n", "4"])
    assert args.scenario == "urban-grid"


def test_sweep_resume_reuses_cells_and_matches_fresh_run(tmp_path, capsys):
    import json

    first = tmp_path / "first.json"
    exit_code = main([
        "sweep", "--scenario", "highway", "--set", "n=2,3",
        "--duration", "3", "--repetitions", "1", "--seed", "1",
        "--out", str(first),
    ])
    assert exit_code == 0
    capsys.readouterr()

    # Resume over a superset grid: the shared points come from the file.
    second = tmp_path / "second.json"
    exit_code = main([
        "sweep", "--scenario", "highway", "--set", "n=2,3,4",
        "--duration", "3", "--repetitions", "1", "--seed", "1",
        "--resume", str(first), "--out", str(second),
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "resume: reused 2 of 3 cells" in out
    old_points = {p["name"]: p["runs"] for p in json.loads(first.read_text())["points"]}
    new_points = {p["name"]: p["runs"] for p in json.loads(second.read_text())["points"]}
    for name, runs in old_points.items():
        assert new_points[name] == runs


def test_sweep_resume_rejects_missing_and_mismatched_files(tmp_path):
    with pytest.raises(SystemExit, match="no such file"):
        main([
            "sweep", "--scenario", "highway", "--n", "2",
            "--duration", "2", "--repetitions", "1",
            "--resume", str(tmp_path / "absent.json"),
        ])
    other = tmp_path / "other.json"
    exit_code = main([
        "sweep", "--scenario", "intersection", "--n", "3",
        "--duration", "2", "--repetitions", "1", "--out", str(other),
    ])
    assert exit_code == 0
    with pytest.raises(SystemExit, match="holds a 'intersection' sweep"):
        main([
            "sweep", "--scenario", "highway", "--n", "2",
            "--duration", "2", "--repetitions", "1",
            "--resume", str(other),
        ])
    # Cells simulated at a different duration must not be reused: their
    # metrics describe a different experiment.
    with pytest.raises(SystemExit, match="swept at --duration 2"):
        main([
            "sweep", "--scenario", "intersection", "--n", "3",
            "--duration", "30", "--repetitions", "1",
            "--resume", str(other),
        ])


def test_sweep_command_prints_aggregated_table(capsys):
    exit_code = main([
        "sweep", "--scenario", "intersection", "--n", "4", "5",
        "--duration", "3", "--repetitions", "2", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "AirDnD sweep: intersection" in captured.out
    assert "success_rate" in captured.out
    assert "stddev" in captured.out


def test_sweep_command_rejects_unknown_metric_names(monkeypatch):
    # The typo must be caught by the cheap pre-sweep probe — before any grid
    # point has run, not after minutes of simulation.
    import repro.cli as cli

    def fail_if_swept(*args, **kwargs):
        raise AssertionError("the sweep ran before --metrics validation")

    monkeypatch.setattr(cli, "sweep_scenario_grid", fail_if_swept)
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--scenario", "intersection", "--n", "4",
            "--duration", "3", "--repetitions", "1",
            "--metrics", "sucess_rate",
        ])
    assert "unknown metric" in str(excinfo.value)
    assert "success_rate" in str(excinfo.value)  # the fix is suggested


def test_sweep_command_with_explicit_metrics(capsys):
    exit_code = main([
        "sweep", "--scenario", "intersection", "--n", "4",
        "--duration", "3", "--repetitions", "1",
        "--metrics", "node_count", "tasks_submitted",
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "node_count" in captured.out
    assert "mesh_bytes" not in captured.out


def test_sweep_profile_prints_hot_spots_and_dumps_stats(tmp_path, capsys):
    stats_path = tmp_path / "sweep.prof"
    exit_code = main([
        "sweep", "--scenario", "highway", "--n", "3",
        "--duration", "2", "--repetitions", "1",
        "--profile", "--profile-top", "5", "--profile-out", str(stats_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    # The sweep table still renders, followed by the profile report.
    assert "AirDnD sweep: highway" in captured.out
    assert "profile: top 5 functions by cumulative time" in captured.out
    assert "cumtime" in captured.out
    # The raw stats are loadable with the standard tooling.
    import pstats

    stats = pstats.Stats(str(stats_path))
    assert stats.total_calls > 0


def test_sweep_profile_with_jobs_merges_worker_stats(tmp_path, capsys):
    """With --jobs > 1 the simulation work happens in worker processes;
    every cell's profile is merged, and nothing warns about sampling."""
    stats_path = tmp_path / "sweep-jobs.prof"
    exit_code = main([
        "sweep", "--scenario", "highway", "--n", "3",
        "--duration", "2", "--repetitions", "2", "--jobs", "2",
        "--profile", "--profile-top", "5", "--profile-out", str(stats_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.err == ""
    assert "(2 cell profiles merged)" in captured.out
    import pstats

    stats = pstats.Stats(str(stats_path))
    profiled_files = {file for (file, _line, _name) in stats.stats}
    assert any(file.endswith("simcore/simulator.py") for file in profiled_files)
    calls = {name: counts[1] for (_, _, name), counts in stats.stats.items()}
    assert calls["run_scenario_once"] == 2   # both cells, not a sample


def test_serve_parser_defaults_and_overrides():
    parser = build_parser()
    args = parser.parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8517
    assert args.step_slice == 2000
    assert args.snapshot_dir is None
    assert not args.no_auto_drive
    assert args.server == "auto"
    args = parser.parse_args([
        "serve", "--host", "0.0.0.0", "--port", "9000",
        "--step-slice", "500", "--snapshot-dir", "/tmp/evict",
        "--no-auto-drive", "--server", "stdlib",
    ])
    assert (args.host, args.port, args.step_slice) == ("0.0.0.0", 9000, 500)
    assert args.snapshot_dir == "/tmp/evict"
    assert args.no_auto_drive
    assert args.server == "stdlib"


def test_serve_rejects_unknown_server_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--server", "gunicorn"])


def test_serve_command_serves_requests_over_tcp():
    import json
    import os
    import subprocess
    import sys
    import threading
    import urllib.request

    import repro

    # The banner is the readiness signal: the stdlib server prints it once
    # the socket is bound, with the port the OS picked for ``--port 0``.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--server", "stdlib"],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )
    # A server that never binds must fail the test, not hang it.
    watchdog = threading.Timer(120.0, server.kill)
    watchdog.start()
    try:
        banner = server.stdout.readline()
        assert banner.startswith("repro service on http://127.0.0.1:"), banner
        url = banner.split()[3]
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as response:
            payload = json.loads(response.read())
    finally:
        watchdog.cancel()
        server.kill()
        server.wait()
    assert payload["status"] == "ok"
    assert payload["sessions"] == 0
    assert payload["states"]["running"] == 0


# ------------------------------------------------------------------ telemetry


def test_run_trace_writes_chrome_trace_json(tmp_path, capsys):
    import json

    path = tmp_path / "run.trace.json"
    exit_code = main([
        "run", "--scenario", "intersection", "--vehicles", "4",
        "--duration", "4", "--seed", "1", "--trace", str(path),
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert f"events written to {path}" in out
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["otherData"]["schema"] == "repro.trace/1"
    names = {event["name"] for event in doc["traceEvents"]}
    assert {"window_open", "window_advance", "window_close"} <= names
    assert "dispatch_batch" in names


def test_run_trace_does_not_change_the_report(tmp_path, capsys):
    argv = ["run", "--scenario", "intersection", "--vehicles", "4",
            "--duration", "4", "--seed", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
    traced = capsys.readouterr().out
    # Everything except the trailing "trace: ..." line is byte-identical.
    assert traced.startswith(plain)
    assert traced[len(plain):].startswith("trace: ")


def test_run_trace_sample_must_be_positive():
    with pytest.raises(SystemExit, match="--trace-sample"):
        main([
            "run", "--scenario", "intersection", "--vehicles", "4",
            "--duration", "4", "--trace", "/tmp/unused.json",
            "--trace-sample", "0",
        ])


def test_sweep_trace_dir_writes_one_trace_per_cell(tmp_path, capsys):
    import json

    trace_dir = tmp_path / "traces"
    exit_code = main([
        "sweep", "--scenario", "intersection", "--set", "n=4,5",
        "--duration", "4", "--repetitions", "1", "--trace-dir", str(trace_dir),
    ])
    assert exit_code == 0
    assert "one Chrome trace-event file per fresh cell" in capsys.readouterr().out
    traces = sorted(trace_dir.glob("cell-s*.json"))
    assert len(traces) == 2  # one per grid cell, named by the cell seed
    for path in traces:
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]


def test_sweep_trace_dir_composes_with_jobs_and_warm_start(tmp_path, capsys):
    base = ["sweep", "--scenario", "highway", "--set", "n=3,4",
            "--set", "duration=2,4", "--repetitions", "1"]
    parallel = tmp_path / "parallel"
    assert main(base + ["--jobs", "2", "--trace-dir", str(parallel)]) == 0
    assert len(list(parallel.glob("cell-s*.json"))) == 4   # one per cell
    warm = tmp_path / "warm"
    assert main(base + ["--warm-start", "--jobs", "2", "--trace-dir", str(warm)]) == 0
    assert "per trajectory" in capsys.readouterr().out
    assert len(list(warm.glob("cell-s*.json"))) == 2   # one per trajectory


def test_sweep_warm_start_jobs_export_identical_to_sequential(tmp_path, capsys):
    import json

    base = ["sweep", "--scenario", "highway", "--set", "n=3,4",
            "--set", "duration=2,5", "--repetitions", "1", "--warm-start"]
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(base + ["--jobs", "2", "--profile", "--out", str(many)]) == 0
    capsys.readouterr()
    with open(one) as handle:
        points_one = json.load(handle)["points"]
    with open(many) as handle:
        points_many = json.load(handle)["points"]
    assert points_one == points_many


def test_sweep_warm_start_rejects_resume(tmp_path):
    earlier = tmp_path / "earlier.json"
    base = ["sweep", "--scenario", "highway", "--set", "n=3",
            "--set", "duration=2,4", "--repetitions", "1"]
    assert main(base + ["--out", str(earlier)]) == 0
    with pytest.raises(SystemExit, match="--warm-start does not support --resume"):
        main(base + ["--warm-start", "--resume", str(earlier)])


def test_fabric_submit_rejects_trace_dir(tmp_path):
    with pytest.raises(SystemExit, match="--trace-dir"):
        main([
            "sweep", "--scenario", "intersection", "--set", "n=4",
            "--duration", "4", "--fabric", str(tmp_path / "store.db"),
            "--trace-dir", str(tmp_path / "traces"),
        ])


def test_fabric_status_prometheus_is_valid_exposition(tmp_path, capsys):
    from tests.telemetry.test_check_metrics import check_exposition

    store = tmp_path / "store.db"
    assert main([
        "sweep", "--scenario", "intersection", "--set", "n=4",
        "--duration", "4", "--repetitions", "1", "--fabric", str(store),
    ]) == 0
    capsys.readouterr()
    assert main(["fabric", "status", "--store", str(store), "--prometheus"]) == 0
    text = capsys.readouterr().out
    assert check_exposition(text) == []
    assert 'repro_fabric_cells{state="pending"} 1' in text
