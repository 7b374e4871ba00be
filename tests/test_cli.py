"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main


class TestParsing:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig1" in out and "table1" in out and "fig15" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_registry_covers_all_paper_items(self):
        expected = {f"fig{i}" for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12,
                                        13, 14, 15)}
        expected |= {"table1", "sensitivity", "shortflows", "uplink",
                     "landscape"}
        assert set(EXPERIMENTS) == expected


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "verus" in out and "cubic" in out

    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        code = main(["trace", "--scenario", "city_driving",
                     "--duration", "5", "--out", str(out_file)])
        assert code == 0
        from repro.cellular import load_trace
        trace = load_trace(out_file)
        assert trace.size > 100
        assert np.all(np.diff(trace) >= 0)

    def test_run_fig3_prints_table(self, capsys):
        assert main(["run", "fig3", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "avg_delay_on_ms" in out

    def test_run_fig13_prints_jain(self, capsys):
        assert main(["run", "fig13", "--duration", "30"]) == 0
        assert "Jain index" in capsys.readouterr().out


class TestSweep:
    def test_dry_run_prints_grid(self, capsys):
        code = main(["sweep", "--scenario", "city_driving",
                     "--protocol", "verus", "--protocol", "cubic",
                     "--seeds", "2", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 tasks" in out
        assert "seed_index" in out
        assert out.count("city_driving") == 4

    def test_sweep_runs_then_resumes_from_cache(self, tmp_path, capsys):
        argv = ["sweep", "--scenario", "campus_pedestrian",
                "--protocol", "cubic", "--duration", "4", "--seeds", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed: 2" in first and "cached: 0" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed: 0" in second and "cached: 2" in second
        assert "2 hits" in second

    def test_sweep_writes_rows_json(self, tmp_path, capsys):
        import json
        out_file = tmp_path / "rows.json"
        code = main(["sweep", "--scenario", "campus_pedestrian",
                     "--protocol", "cubic", "--duration", "4",
                     "--no-cache", "--out", str(out_file)])
        assert code == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["protocol"] == "cubic"
        assert rows[0]["mean_throughput_mbps"] > 0

    def test_report_accepts_jobs_flag(self, capsys):
        assert main(["report", "--duration", "10", "--items", "fig4",
                     "--jobs", "2"]) == 0
        assert "# Verus reproduction report" in capsys.readouterr().out


class TestSeedFlag:
    def test_run_seed_reproducible_from_shell(self, capsys):
        assert main(["run", "fig2", "--duration", "20", "--seed", "123"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig2", "--duration", "20", "--seed", "123"]) == 0
        assert capsys.readouterr().out == first

    def test_run_seed_changes_channel(self, capsys):
        assert main(["run", "fig2", "--duration", "20", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig2", "--duration", "20", "--seed", "2"]) == 0
        assert capsys.readouterr().out != first

    def test_quickstart_accepts_seed(self, capsys):
        assert main(["quickstart", "--duration", "10", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert "verus" in first
        assert main(["quickstart", "--duration", "10", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


class TestBenchTrajectory:
    @staticmethod
    def _write(path, label, mode, benches):
        import json
        doc = {"schema": "repro.bench/1", "label": label, "mode": mode,
               "written_at": "2026-01-01T00:00:00Z",
               "benchmarks": {
                   name: {"samples": samples, "workload_hash": digest}
                   for name, (samples, digest) in benches.items()}}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_one_column_per_file_of_medians(self, tmp_path, capsys):
        old = self._write(tmp_path / "a.json", "older", "quick",
                          {"engine": ([0.003, 0.001, 0.002], "h1"),
                           "queue": ([0.010], "q1")})
        new = self._write(tmp_path / "b.json", "newer", "quick",
                          {"engine": ([0.0015], "h1"),
                           "queue": ([0.020], "q2"),
                           "fresh": ([0.005], "f1")})
        assert main(["bench", "--trajectory", old, new]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines()
                      if line.startswith("benchmark"))
        assert header.split()[1:] == ["older", "newer"]
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines()
                if line.split() and line.split()[0] in
                ("engine", "queue", "fresh")}
        assert rows["engine"] == ["2.00", "1.50"]      # medians, in ms
        assert rows["queue"] == ["10.00", "20.00"]
        assert rows["fresh"] == ["-", "5.00"]

    def test_refuses_to_mix_quick_and_full(self, tmp_path, capsys):
        quick = self._write(tmp_path / "q.json", "q", "quick",
                            {"engine": ([0.001], "h")})
        full = self._write(tmp_path / "f.json", "f", "full",
                           {"engine": ([0.004], "h")})
        assert main(["bench", "--trajectory", quick, full]) == 2
        assert "cannot mix" in capsys.readouterr().err

    def test_default_reads_the_committed_quick_snapshots(self, capsys):
        assert main(["bench", "--trajectory"]) == 0
        out = capsys.readouterr().out
        assert "quick mode" in out
        header = next(line for line in out.splitlines()
                      if line.startswith("benchmark"))
        assert {"baseline", "pr15"} <= set(header.split()[1:])
