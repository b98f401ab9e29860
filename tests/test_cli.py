"""Tests for the command-line interface."""

import argparse
import os

import pytest

from repro import io as rio
from repro.cli import build_parser, main


@pytest.fixture
def helix_file(tmp_path):
    path = tmp_path / "helix2.npz"
    assert main(["generate", "helix", "--length", "2", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_helix(self, helix_file):
        problem = rio.load_problem(helix_file)
        assert problem.n_atoms == 86

    def test_protein(self, tmp_path):
        out = tmp_path / "prot.npz"
        assert main(["generate", "protein", "--out", str(out)]) == 0
        assert rio.load_problem(out).name == "protein"

    def test_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        main(["generate", "helix", "--length", "1", "--out", str(out)])
        captured = capsys.readouterr().out
        assert "43 atoms" in captured


class TestInfo:
    def test_reports_structure(self, helix_file, capsys):
        assert main(["info", str(helix_file)]) == 0
        out = capsys.readouterr().out
        assert "atoms:" in out and "86" in out
        assert "leaf capture" in out


class TestSolve:
    def test_solves_and_writes(self, helix_file, tmp_path, capsys):
        est_path = tmp_path / "est.npz"
        code = main(
            [
                "solve",
                str(helix_file),
                "--cycles",
                "3",
                "--out",
                str(est_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean |residual|" in out
        est = rio.load_estimate(est_path)
        assert est.n_atoms == 86

    def test_alternative_decomposition(self, helix_file, capsys):
        assert (
            main(
                [
                    "solve",
                    str(helix_file),
                    "--decomposition",
                    "rcb",
                    "--cycles",
                    "2",
                ]
            )
            == 0
        )

    def test_anneal_flag(self, helix_file, capsys):
        assert (
            main(["solve", str(helix_file), "--cycles", "2", "--anneal", "10,0.5"])
            == 0
        )

    def test_bad_anneal_flag(self, helix_file):
        with pytest.raises(SystemExit):
            main(["solve", str(helix_file), "--anneal", "banana"])

    def test_batch_anneal_flag(self, helix_file, capsys):
        code = main(
            ["solve", str(helix_file), "--cycles", "2",
             "--batch-anneal", "10,0.5,2"]
        )
        assert code == 0
        assert "mean |residual|" in capsys.readouterr().out

    def test_bad_batch_anneal_flag(self, helix_file):
        with pytest.raises(SystemExit, match="batch-anneal"):
            main(["solve", str(helix_file), "--batch-anneal", "banana"])
        with pytest.raises(SystemExit, match="batch-anneal"):
            main(["solve", str(helix_file), "--batch-anneal", "0.2,0.5"])

    def test_batch_anneal_composes_with_session(self, helix_file, tmp_path):
        sdir = tmp_path / "sess"
        code = main(
            ["solve", str(helix_file), "--cycles", "2",
             "--batch-anneal", "8,0.5", "--session-dir", str(sdir)]
        )
        assert code == 0
        assert (
            main(["resolve", "--session-dir", str(sdir),
                  "--add", "dist:0:9:4.1:0.01"])
            == 0
        )


class TestSessionCLI:
    @pytest.fixture
    def session_dir(self, helix_file, tmp_path, capsys):
        sdir = tmp_path / "session"
        code = main(
            [
                "solve",
                str(helix_file),
                "--cycles",
                "3",
                "--session-dir",
                str(sdir),
            ]
        )
        assert code == 0
        assert "session saved to" in capsys.readouterr().out
        return sdir

    def test_resolve_add(self, session_dir, tmp_path, capsys):
        est_path = tmp_path / "warm.npz"
        code = main(
            [
                "resolve",
                "--session-dir",
                str(session_dir),
                "--add",
                "dist:0:1:1.5:0.01",
                "--out",
                str(est_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "added constraint ids:" in out
        assert "re-solved" in out and "cached" in out
        assert rio.load_estimate(est_path).n_atoms == 86

    def test_resolve_drop(self, session_dir, capsys):
        # Drop the constraint id printed by a previous add.
        main(["resolve", "--session-dir", str(session_dir), "--add", "dist:0:1:1.5"])
        out = capsys.readouterr().out
        cid = out.split("added constraint ids: ")[1].splitlines()[0].strip()
        assert (
            main(["resolve", "--session-dir", str(session_dir), "--drop", cid]) == 0
        )
        assert "dropped 1 constraints" in capsys.readouterr().out

    def test_resolve_full_scope(self, session_dir, capsys):
        assert (
            main(
                [
                    "resolve",
                    "--session-dir",
                    str(session_dir),
                    "--scope",
                    "full",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "re-solved 15/15 nodes" in out

    def test_session_dir_rejects_anneal(self, helix_file, tmp_path):
        with pytest.raises(SystemExit, match="anneal"):
            main(
                [
                    "solve",
                    str(helix_file),
                    "--session-dir",
                    str(tmp_path / "s"),
                    "--anneal",
                    "10,0.5",
                ]
            )

    def test_session_dir_rejects_checkpoint_dir(self, helix_file, tmp_path):
        with pytest.raises(SystemExit, match="exclusive"):
            main(
                [
                    "solve",
                    str(helix_file),
                    "--session-dir",
                    str(tmp_path / "s"),
                    "--checkpoint-dir",
                    str(tmp_path / "ck"),
                ]
            )

    def test_bad_constraint_spec(self, session_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "resolve",
                    "--session-dir",
                    str(session_dir),
                    "--add",
                    "banana",
                ]
            )


class TestSimulate:
    def test_table_output(self, helix_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(helix_file),
                    "--machine",
                    "dash",
                    "--processors",
                    "1,2,4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "simulated DASH" in out
        assert "spdup" in out

    def test_challenge(self, helix_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(helix_file),
                    "--machine",
                    "challenge",
                    "--processors",
                    "1,2",
                ]
            )
            == 0
        )
        assert "Challenge" in capsys.readouterr().out


class TestFuzz:
    def test_sweep_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        code = main(
            ["fuzz", "--seed", "0", "--budget", "3",
             "--checks", "fast_vs_reference,warm_equals_cold",
             "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "3 passed, 0 failed" in printed
        import json

        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["ran"] == 3
        assert len(doc["scenarios"]) == 3

    def test_streaming_rollup_printed(self, capsys):
        assert (
            main(["fuzz", "--seed", "0", "--budget", "2",
                  "--checks", "streaming"])
            == 0
        )
        assert "streaming:" in capsys.readouterr().out

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit, match="unknown"):
            main(["fuzz", "--budget", "1", "--checks", "vibes"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit, match="backend"):
            main(["fuzz", "--budget", "1", "--backends", "gpu"])

    def test_failure_writes_artifact_and_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        """With a sabotaged fast kernel the sweep must fail, minimize the
        seed, and leave a reproducible artifact."""
        from repro.linalg.fast import trsm_right as real_trsm

        def broken(lower, b, **kwargs):
            result = real_trsm(lower, b, **kwargs)
            result *= 1.0 + 1e-6
            return result

        monkeypatch.setattr("repro.core.update.trsm_right", broken)
        artifact = tmp_path / "failing.json"
        code = main(
            ["fuzz", "--seed", "0", "--budget", "1",
             "--checks", "fast_vs_reference", "--minimize",
             "--fail-artifact", str(artifact)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        import json

        doc = json.loads(artifact.read_text())
        entry = doc["failures"][0]
        assert entry["seed"] == 0
        assert entry["failed_checks"] == ["fast_vs_reference"]
        assert "repro fuzz --seed 0" in entry["repro"]
        minimized = entry["minimized_spec"]
        assert minimized["n_constraints"] <= entry["spec"]["n_constraints"]

    def test_time_budget_stops_early(self, capsys):
        code = main(
            ["fuzz", "--seed", "0", "--budget", "50",
             "--checks", "fast_vs_reference", "--time-budget", "0.01"]
        )
        assert code == 0
        assert "time budget exhausted" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "dna", "--out", "x.npz"])

    @pytest.mark.parametrize(
        "argv",
        [["solve", "p.npz"], ["resolve", "--session-dir", "d"], ["fuzz"]],
        ids=["solve", "resolve", "fuzz"],
    )
    def test_workers_default_to_usable_cores(self, argv):
        # Running more workers than the process may use only oversubscribes.
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:
            usable = os.cpu_count()
        assert build_parser().parse_args(argv).workers == usable

    def test_every_help_page_renders(self):
        # argparse %-formats help strings, so a bare '%' breaks --help.
        def pages(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from pages(sub)

        for page in pages(build_parser()):
            assert page.format_help()

    def test_obs_help_lists_its_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--help"])
        assert exc.value.code == 0
        assert "{top,doctor,critical-path}" in capsys.readouterr().out
