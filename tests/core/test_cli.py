"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.fault.results import result_to_dict
from repro.store import CampaignDatabase
from repro.store.db import file_stem


def _write_jsonl(path, results):
    """A JSONL result log: one result object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result_to_dict(result),
                                    sort_keys=True) + "\n")


def _stored(path):
    """The results of the campaign named after *path*'s stem."""
    with CampaignDatabase(path) as db:
        return db.results(db.campaign_id(file_stem(path)))


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Register file" in out
    assert "+100%" in out


def test_figure2(capsys):
    assert main(["figure2"]) == 0
    out = capsys.readouterr().out
    assert "CHECK" in out and "TRAP" in out


def test_rates_single_environment(capsys):
    assert main(["rates", "--environment", "GEO"]) == 0
    out = capsys.readouterr().out
    assert "GEO" in out and "upsets/day" in out
    assert "LEO-polar" not in out


def test_info(capsys):
    assert main(["info", "--config", "express"]) == 0
    out = capsys.readouterr().out
    assert "leon-express" in out
    assert "TMR flip-flops: True" in out
    assert "apb-bridge" in out or "APB peripherals" in out


def test_run_source_file(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        set 0x40100000, %g1
        set 7, %g2
        st %g2, [%g1]
    done:
        ba done
        nop
    """)
    assert main(["run", str(source), "--stop", "done"]) == 0
    out = capsys.readouterr().out
    assert "stopped: stop-pc" in out


def test_run_halting_program_exit_code(tmp_path, capsys):
    source = tmp_path / "crash.s"
    source.write_text("    ta 0\n    nop\n")
    assert main(["run", str(source)]) == 1


def test_campaign(capsys):
    code = main(["campaign", "--program", "cncf", "--let", "60",
                 "--fluence", "300", "--ips", "30000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "X-sect" in out
    assert "failures: 0" in out


def test_campaign_recovery_prints_summary(capsys):
    """The pinned halting scenario: the standard device at LET 110, seed
    16, completes under --recovery ladder and reports the recovery block."""
    code = main(["campaign", "--device", "standard", "--recovery", "ladder",
                 "--let", "110", "--flux", "5000", "--fluence", "10000",
                 "--ips", "30000", "--seed", "16"])
    out = capsys.readouterr().out
    assert code == 1  # the recovered halt still counts as a failure
    assert "recovery summary" in out
    assert "warm-reset" in out or "cold-reboot" in out
    assert "MTTR" in out and "availability" in out


def test_campaign_device_conflicts_with_result_store(tmp_path, capsys):
    code = main(["campaign", "--device", "standard",
                 "--results", str(tmp_path / "runs.db")])
    assert code == 2
    assert "express" in capsys.readouterr().err


def test_campaign_trace_needs_a_result_store(tmp_path, capsys):
    """--trace stores events with the run rows: without --results, and on
    a device --results refuses, it is a usage error that runs nothing."""
    assert main(["campaign", "--trace"]) == 2
    assert "--results" in capsys.readouterr().err
    path = tmp_path / "runs.db"
    assert main(["campaign", "--device", "standard", "--trace",
                 "--results", str(path)]) == 2
    assert "express" in capsys.readouterr().err
    assert not path.exists()


def test_availability_analytic_table(capsys):
    assert main(["availability", "--environment", "GEO"]) == 0
    out = capsys.readouterr().out
    assert "LEON-FT" in out and "unprotected" in out
    assert "availability" in out


def test_availability_measured(tmp_path, capsys):
    from repro.fault.campaign import Campaign, CampaignConfig

    result = Campaign(CampaignConfig(
        program="iutest", seed=3, recovery="ladder", fluence=300.0,
        instructions_per_second=20_000.0)).run()
    result.cycles = 1_000_000
    result.recoveries = {"pipeline-restart": 2, "warm-reset": 1}
    result.recovery_downtime = {"pipeline-restart": 8, "warm-reset": 45_000}
    result.halts = 1
    path = str(tmp_path / "meas.db")
    with CampaignDatabase(path) as db:
        db.add_results(db.ensure_campaign("meas"), [result])
    code = main(["availability", "--measured", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured from" in out
    assert "warm-reset" in out
    assert "mean outage" in out
    assert "measured outage" in out


def test_availability_measured_empty_store(tmp_path, capsys):
    missing = tmp_path / "missing.db"
    assert main(["availability", "--measured", str(missing)]) == 1
    assert "no results" in capsys.readouterr().err
    assert not missing.exists()  # a read path creates no database


def test_campaign_reports_elapsed_wall_throughput(capsys):
    """The throughput line must use batch-elapsed wall time (parallel
    runs overlap; summing per-run times understates by ~--jobs x), and
    report the per-run CPU alongside."""
    code = main(["campaign", "--program", "iutest", "--let", "60",
                 "--fluence", "300", "--ips", "20000",
                 "--runs", "2", "--jobs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "host-throughput" in l)
    assert "s wall" in line and "s run CPU" in line
    assert "--jobs 2" in line


def test_campaign_trace_and_trace_stats_subcommands(tmp_path, capsys):
    trace = str(tmp_path / "trace.db")
    assert main(["campaign", "--program", "iutest", "--let", "110",
                 "--flux", "400", "--fluence", "600", "--ips", "20000",
                 "--runs", "2", "--jobs", "2", "--results", trace,
                 "--trace"]) == 0
    capsys.readouterr()

    assert main(["trace", trace]) == 0
    out = capsys.readouterr().out
    assert "upset 0" in out
    assert "without a terminal event" not in out

    assert main(["trace", trace, "--run", "1", "--target",
                 "icache-tag"]) == 0
    out = capsys.readouterr().out
    assert "run 0" not in out

    assert main(["trace", trace, "--events"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(l.startswith("{") for l in lines if l)

    # stats folds the trace alone and must agree with the run readouts.
    assert main(["stats", trace]) == 0
    out = capsys.readouterr().out
    assert "events vs run-end readouts: match" in out
    assert "phase timers" in out


def test_campaign_resume_reuses_zero_upset_run(tmp_path, capsys):
    """A stored run with zero upsets (below-threshold LET) must count as
    done when the command is repeated."""
    db = str(tmp_path / "runs.db")
    base = ["campaign", "--program", "iutest", "--let", "3",
            "--fluence", "200", "--ips", "20000", "--results", db]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "upsets: 0" in out
    first = _stored(db)
    assert len(first) == 1
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "resume: 1 of 1" in out
    assert "upsets: 0" in out
    again = _stored(db)
    # Nothing re-ran: the row (down to its host wall time) is the first.
    assert [r.wall_seconds for r in again] == \
        [r.wall_seconds for r in first]


def test_campaign_warm_start_results_and_resume(tmp_path, capsys):
    db = str(tmp_path / "runs.db")
    base = ["campaign", "--program", "iutest", "--let", "60",
            "--fluence", "150", "--ips", "20000", "--beam-delay", "0.5",
            "--warm-start", "--results", db]
    assert main(base + ["--runs", "2"]) == 0
    capsys.readouterr()
    assert len(_stored(db)) == 2
    # More replicas into the same file reuse the stored two, run three.
    assert main(base + ["--runs", "5"]) == 0
    out = capsys.readouterr().out
    assert "resume: 2 of 5" in out
    assert "/3 run(s) reconverged" in out  # only three runs executed
    assert len(_stored(db)) == 5


def test_campaign_results_skip_runs_and_keep_the_table(tmp_path, capsys):
    """A repeated --results command executes nothing and prints the same
    Table 2; the stored rows equal a direct executor run at any --jobs."""
    from repro.fault.campaign import CampaignConfig
    from repro.fault.executor import CampaignExecutor, expand_runs

    db = str(tmp_path / "x.db")
    base = ["campaign", "--program", "iutest", "--let", "60",
            "--fluence", "150", "--ips", "20000", "--runs", "4",
            "--results", db]

    def table(out):
        return [line for line in out.splitlines()
                if "host-throughput" not in line
                and not line.startswith("resume:")]

    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--jobs", "4"]) == 0
    second = capsys.readouterr().out
    assert "resume: 4 of 4" in second
    assert "host-throughput: 0 instr/s" in second  # nothing executed
    assert "0.00s run CPU" in second
    assert table(second) == table(first)

    configs = expand_runs(CampaignConfig(
        program="iutest", let=60.0, fluence=150.0,
        instructions_per_second=20_000.0), 4)
    direct = [r.comparable() for r in CampaignExecutor(1).run_many(configs)]
    assert [r.comparable() for r in _stored(db)] == direct
    parallel_db = str(tmp_path / "y.db")
    assert main(base[:-1] + [parallel_db, "--jobs", "4"]) == 0
    capsys.readouterr()
    assert [r.comparable() for r in _stored(parallel_db)] == direct


def test_ingested_log_resumes_through_results(tmp_path, capsys):
    """An old JSONL log migrates: ingest it, then --results into the
    database runs only the configs missing from the log."""
    from repro.fault.campaign import CampaignConfig
    from repro.fault.executor import CampaignExecutor, expand_runs

    configs = expand_runs(CampaignConfig(
        program="iutest", let=60.0, fluence=150.0,
        instructions_per_second=20_000.0), 5)
    logged = CampaignExecutor(1).run_many(configs[:2])
    log, db = str(tmp_path / "runs.jsonl"), str(tmp_path / "runs.db")
    _write_jsonl(log, logged)
    assert main(["ingest", log, "--db", db]) == 0
    assert main(["campaign", "--program", "iutest", "--let", "60",
                 "--fluence", "150", "--ips", "20000", "--runs", "5",
                 "--results", db]) == 0
    out = capsys.readouterr().out
    assert "resume: 2 of 5" in out
    stored = _stored(db)
    # The logged rows were kept, not re-run; the rest were appended.
    assert [r.wall_seconds for r in stored[:2]] == \
        [r.wall_seconds for r in logged]
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in CampaignExecutor(1).run_many(configs)]


@pytest.mark.parametrize("command", [
    ["ingest", "README.md", "--db", "{bad}"],
    ["serve", "--db", "{bad}", "--port", "0"],
    ["campaign", "--fluence", "150", "--results", "{bad}"],
    ["attack", "--skip-at", "0x40000000", "--runs", "1",
     "--results", "{bad}"],
    ["availability", "--measured", "{bad}"],
])
def test_non_database_file_is_a_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "not.db"
    bad.write_text('{"config": {}}\n')
    code = main([part.replace("{bad}", str(bad)) for part in command])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {bad}: not a campaign database" in err
    assert "repro ingest" in err  # it looks like a JSONL log
    assert bad.read_text() == '{"config": {}}\n'  # left untouched


@pytest.mark.parametrize("command", [
    ["campaign", "--fluence", "150", "--results", "{bad}"],
    ["ingest", "README.md", "--db", "{bad}"],
    ["trace", "{bad}"],
])
def test_unopenable_database_path_is_a_usage_error(tmp_path, capsys,
                                                    command):
    bad = tmp_path / "nodir" / "x.db"
    code = main([part.replace("{bad}", str(bad)) for part in command])
    assert code == 2
    assert f"error: {bad}" in capsys.readouterr().err
    assert not bad.parent.exists()


def test_trace_of_an_untraced_campaign_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "runs.db")
    assert main(["campaign", "--fluence", "150", "--ips", "20000",
                 "--results", path]) == 0
    capsys.readouterr()
    for command in ("trace", "stats"):
        assert main([command, path]) == 2
        assert "no trace events in campaign 'runs'" in \
            capsys.readouterr().err


def test_trace_file_passed_as_database_names_trace_import(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"ev": "run-start", "run": 0}\n')
    assert main(["stats", str(trace)]) == 2
    assert f"repro ingest --trace {trace}" in capsys.readouterr().err


def test_sweep_warm_start(capsys):
    assert main(["sweep", "--program", "iutest", "--lets", "25,60",
                 "--fluence", "150", "--ips", "20000",
                 "--beam-delay", "0.5", "--warm-start"]) == 0
    out = capsys.readouterr().out
    assert "2 LET points" in out


def test_state_save_and_info(tmp_path, capsys):
    path = str(tmp_path / "snap.bin")
    assert main(["state", "save", path, "--program", "iutest",
                 "--instructions", "2000"]) == 0
    assert main(["state", "info", path]) == 0
    out = capsys.readouterr().out
    assert "format version: 2" in out
    assert "regfile" in out
    assert "architectural digest" in out


def test_state_info_rejects_v1_file(tmp_path, capsys):
    import pickle
    import zlib

    path = tmp_path / "old.bin"
    path.write_bytes(zlib.compress(pickle.dumps(
        {"version": 1, "config_key": "x", "components": {}}, 4)))
    assert main(["state", "info", str(path)]) == 1
    assert "v1 != supported v2" in capsys.readouterr().err


def test_ingest_results_into_database(tmp_path, capsys):
    from repro.fault.campaign import CampaignConfig
    from repro.fault.executor import CampaignExecutor, expand_runs

    log = str(tmp_path / "runs.jsonl")
    db = str(tmp_path / "campaigns.db")
    _write_jsonl(log, CampaignExecutor(1).run_many(expand_runs(
        CampaignConfig(program="iutest", let=60.0, fluence=150.0,
                       instructions_per_second=20_000.0), 2)))
    assert main(["ingest", log, "--db", db]) == 0
    out = capsys.readouterr().out
    assert "2 run(s) -> campaign 'runs' (#1)" in out  # stem names it
    # Re-ingest is idempotent: the upsert keeps the same campaign.
    assert main(["ingest", log, "--db", db, "--name", "named"]) == 0

    with CampaignDatabase(db) as database:
        assert len(database.results(database.campaign_id("runs"))) == 2
        assert len(database.results(database.campaign_id("named"))) == 2


def test_ingest_missing_file_fails(tmp_path, capsys):
    db = str(tmp_path / "campaigns.db")
    assert main(["ingest", str(tmp_path / "absent.jsonl"),
                 "--db", db]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
