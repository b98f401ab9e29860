"""Tests for the command-line interface."""

import argparse
import json
import os

import numpy as np
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

    @pytest.mark.parametrize("path", ["serial", "thread", "session"])
    def test_cycles_below_one_refused(self, helix_file, tmp_path, path):
        extra = {
            "serial": [],
            "thread": ["--backend", "thread"],
            "session": ["--session-dir", str(tmp_path / "sess")],
        }[path]
        with pytest.raises(SystemExit, match="--cycles"):
            main(["solve", str(helix_file), "--cycles", "0", *extra])

    def test_process_backend_without_session_dir_uses_workers(
        self, helix_file, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        assert main(["solve", str(helix_file), "--cycles", "1",
                     "--backend", "process", "--workers", "2",
                     "--trace", str(trace)]) == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        pids = {r["pid"] for r in rows if r.get("type") != "meta"}
        assert os.getpid() in pids and len(pids) > 1

    def test_anneal_refused_on_a_parallel_backend(self, helix_file):
        with pytest.raises(SystemExit, match="anneal"):
            main(["solve", str(helix_file), "--backend", "thread",
                  "--anneal", "10,0.5"])

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

    def test_session_dir_rejects_flat_decomposition(self, helix_file, tmp_path):
        with pytest.raises(SystemExit, match="flat"):
            main(["solve", str(helix_file), "--decomposition", "flat",
                  "--session-dir", str(tmp_path / "s")])

    def test_session_dir_builds_the_requested_decomposition(
        self, helix_file, tmp_path
    ):
        from repro.core.estimator import build_hierarchy
        from repro.core.session import SolveSession

        sdir = tmp_path / "s"
        assert main(["solve", str(helix_file), "--cycles", "1",
                     "--decomposition", "rcb", "--session-dir", str(sdir)]) == 0
        problem = rio.load_problem(helix_file)
        rcb = build_hierarchy(
            "rcb", problem.constraints, problem.initial_estimate(0).coords
        )
        stored = SolveSession.load(sdir).hierarchy
        assert [n.atoms.tolist() for n in stored.leaves()] == [
            n.atoms.tolist() for n in rcb.leaves()
        ]
        assert [n.atoms.tolist() for n in stored.leaves()] != [
            n.atoms.tolist() for n in problem.hierarchy.leaves()
        ]

    def test_session_and_plain_paths_write_equal_estimates(
        self, helix_file, tmp_path, capsys
    ):
        """One stopping rule: both paths converge after the same cycles."""
        plain, durable = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(["solve", str(helix_file), "--tol", "0.05",
                     "--out", str(plain)]) == 0
        assert main(["solve", str(helix_file), "--tol", "0.05",
                     "--session-dir", str(tmp_path / "d"),
                     "--out", str(durable)]) == 0
        first, second = (
            l for l in capsys.readouterr().out.splitlines() if "after" in l
        )
        assert first == second and first.startswith("converged")
        a, b = rio.load_estimate(plain), rio.load_estimate(durable)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)

    def test_killed_solve_resumes_with_the_same_command(
        self, helix_file, tmp_path, capsys
    ):
        ref, res, sdir = tmp_path / "ref.npz", tmp_path / "res.npz", tmp_path / "d"
        argv = ["solve", str(helix_file), "--cycles", "3", "--tol", "0"]
        assert main(argv + ["--out", str(ref)]) == 0
        # This seed exhausts one node's restarts in cycle 2.
        with pytest.raises(SystemExit, match="resume"):
            main(argv + ["--session-dir", str(sdir),
                         "--faults", "crash=0.3,seed=1"])
        capsys.readouterr()
        assert main(argv + ["--session-dir", str(sdir), "--out", str(res)]) == 0
        assert "resuming interrupted solve at cycle 2" in capsys.readouterr().out
        a, b = rio.load_estimate(ref), rio.load_estimate(res)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)

    def test_unfinished_solve_of_another_problem_is_discarded(
        self, helix_file, tmp_path, capsys
    ):
        sdir = tmp_path / "d"
        argv = ["solve", str(helix_file), "--cycles", "3", "--tol", "0",
                "--session-dir", str(sdir)]
        with pytest.raises(SystemExit):
            main(argv + ["--faults", "crash=0.3,seed=1"])
        with pytest.raises(SystemExit, match="interrupted"):
            main(["resolve", "--session-dir", str(sdir)])
        capsys.readouterr()
        for changed in (["--batch", "8"], ["--local-iterations", "2"], ["--seed", "1"]):
            assert main(argv + changed + ["--cycles", "1"]) == 0
            out = capsys.readouterr().out
            assert "discarded the previous run" in out and "resuming" not in out
            with pytest.raises(SystemExit):
                main(argv + ["--faults", "crash=0.3,seed=1"])

    def test_older_session_directory_starts_fresh(self, helix_file, tmp_path, capsys):
        sdir = tmp_path / "d"
        sdir.mkdir()
        (sdir / "session.json").write_text('{"version": 1}')
        assert main(["solve", str(helix_file), "--cycles", "1",
                     "--session-dir", str(sdir)]) == 0
        out = capsys.readouterr().out
        assert "discarded the previous run" in out and "version" in out

    def test_session_on_a_removed_kernel_tier_is_discarded(
        self, session_dir, helix_file, capsys
    ):
        """A session written with kernel_impl="fast" (the old default)."""
        manifest = session_dir / "session.json"
        doc = json.loads(manifest.read_text())
        doc["options"]["kernel_impl"] = "fast"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match="kernel_impl") as excinfo:
            main(["resolve", "--session-dir", str(session_dir)])
        assert str(session_dir) in str(excinfo.value)
        assert main(["solve", str(helix_file), "--cycles", "2",
                     "--session-dir", str(session_dir)]) == 0
        out = capsys.readouterr().out
        assert "discarded the previous run" in out and "kernel_impl" in out
        assert json.loads(manifest.read_text())["options"]["kernel_impl"] == "vector"
        assert main(["resolve", "--session-dir", str(session_dir)]) == 0

    def test_edited_problem_is_not_resumed(self, helix_file, tmp_path, capsys):
        sdir = tmp_path / "d"
        with pytest.raises(SystemExit):
            main(["solve", str(helix_file), "--cycles", "3", "--tol", "0",
                  "--session-dir", str(sdir), "--faults", "crash=0.3,seed=1"])
        problem = rio.load_problem(helix_file)
        problem.constraints.pop()
        edited = tmp_path / "edited.npz"
        rio.save_problem(edited, problem)
        capsys.readouterr()
        assert main(["solve", str(edited), "--cycles", "3", "--tol", "0",
                     "--session-dir", str(sdir)]) == 0
        assert "discarded the previous run" in capsys.readouterr().out

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
             "--checks", "vector_vs_reference,warm_equals_cold",
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
             "--checks", "vector_vs_reference", "--minimize",
             "--fail-artifact", str(artifact)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        import json

        doc = json.loads(artifact.read_text())
        entry = doc["failures"][0]
        assert entry["seed"] == 0
        assert entry["failed_checks"] == ["vector_vs_reference"]
        assert "repro fuzz --seed 0" in entry["repro"]
        minimized = entry["minimized_spec"]
        assert minimized["n_constraints"] <= entry["spec"]["n_constraints"]


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
        assert "{top,doctor}" in capsys.readouterr().out
