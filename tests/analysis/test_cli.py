"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ["bound", "fig1", "duel", "tree", "compare"]:
            args = {
                "bound": ["bound", "--m", "2", "--eps", "0.5"],
                "fig1": ["fig1"],
                "duel": ["duel", "--m", "2", "--eps", "0.5"],
                "tree": ["tree", "--m", "2", "--eps", "0.5"],
                "compare": ["compare"],
            }[cmd]
            ns = parser.parse_args(args)
            assert ns.command == cmd


class TestCommands:
    def test_bound(self, capsys):
        assert main(["bound", "--m", "2", "--eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "3.5" in out and "phase k = 2" in out

    def test_bound_tiny_slack(self, capsys):
        assert main(["bound", "--m", "2", "--eps", "1e-100"]) == 0
        assert "c(eps=1e-100, m=2) = 2000000000000000" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["bound", "duel"])
    @pytest.mark.parametrize("eps", ["nan", "0", "-1", "5e-324"])
    def test_unusable_slack_is_a_clean_error(self, capsys, command, eps):
        assert main([command, "--m", "2", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "slack" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_fig1_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "fig1.csv"
        code = main(
            ["fig1", "--machines", "1,2", "--points", "40", "--csv", str(csv)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m=1" in out and "m=2" in out
        assert csv.read_text().startswith("epsilon,m=1,m=2")

    def test_duel(self, capsys):
        assert main(["duel", "--m", "2", "--eps", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "forced ratio" in out and "c(eps, m)" in out

    def test_duel_with_trace(self, capsys):
        assert main(["duel", "--m", "1", "--eps", "0.5", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "job 0" in out

    def test_duel_rejects_preemptive(self, capsys):
        code = main(["duel", "--m", "2", "--eps", "0.2", "--algorithm", "dasgupta-palis"])
        assert code == 2
        assert "non-preemptive" in capsys.readouterr().err

    def test_tree(self, capsys):
        assert main(["tree", "--m", "2", "--eps", "0.2"]) == 0
        assert "phase 2 stops" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", ["random", "cloud", "bait-and-whale"])
    def test_compare(self, capsys, workload):
        code = main(
            [
                "compare",
                "--workload", workload,
                "--m", "2",
                "--eps", "0.2",
                "--n", "20",
                "--algorithms", "threshold,greedy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "greedy" in out


class TestSimulateCommand:
    def test_kernel_stats_printed(self, capsys):
        code = main(
            ["simulate", "--algorithm", "greedy", "--n", "30", "--m", "2", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model          : immediate" in out
        assert "decisions" in out and "kdec/s" in out

    def test_events_dump(self, capsys):
        code = main(["simulate", "--algorithm", "delayed-greedy", "--n", "10", "--events"])
        assert code == 0
        out = capsys.readouterr().out
        assert "model          : delayed" in out
        assert "decision" in out and "job 0" in out

    def test_migration_has_no_kernel_stats(self, capsys):
        code = main(["simulate", "--algorithm", "migration-greedy", "--n", "12"])
        assert code == 0
        assert "not kernel-backed" in capsys.readouterr().out

    def test_unknown_algorithm(self, capsys):
        assert main(["simulate", "--algorithm", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_serial_with_csv(self, capsys, tmp_path):
        from repro.cli import main

        csv = tmp_path / "rows.csv"
        code = main(
            [
                "sweep",
                "--epsilons", "0.3",
                "--machines", "2",
                "--n", "8",
                "--repetitions", "1",
                "--csv", str(csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_ratio_upper" in out
        header = csv.read_text().splitlines()[0]
        assert header.startswith("epsilon,machines,repetition,algorithm")

    def test_sweep_journal_resume_and_manifest(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "sweep.jsonl"
        manifest = tmp_path / "failures.json"
        csv = tmp_path / "rows.csv"
        base = [
            "sweep",
            "--epsilons", "0.3",
            "--machines", "2",
            "--n", "8",
            "--repetitions", "1",
        ]
        code = main(base + ["--journal", str(journal), "--manifest", str(manifest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 cells completed" in out
        assert journal.exists()
        import json

        assert json.loads(manifest.read_text())["quarantined"] == 0

        # Resume replays everything from disk and still writes the CSV.
        code = main(base + ["--resume", str(journal), "--csv", str(csv)])
        assert code == 0
        assert "1 replayed from journal" in capsys.readouterr().out
        assert csv.read_text().startswith("epsilon,machines")

    def test_sweep_resume_rejects_mismatched_spec(self, tmp_path, capsys):
        import pytest

        from repro.cli import main
        from repro.workloads.journal import JournalMismatchError

        journal = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
             "--repetitions", "1", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(JournalMismatchError, match="base_seed"):
            main(
                ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
                 "--repetitions", "1", "--seed", "9", "--resume", str(journal)]
            )

    def test_sweep_refuses_to_clobber_existing_journal(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "sweep.jsonl"
        base = [
            "sweep",
            "--epsilons", "0.3",
            "--machines", "2",
            "--n", "8",
            "--repetitions", "1",
        ]
        assert main(base + ["--journal", str(journal)]) == 0
        before = journal.read_text()
        capsys.readouterr()
        # Forgot --resume: must refuse, not truncate hours of checkpoints.
        assert main(base + ["--journal", str(journal)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert journal.read_text() == before

    def test_sweep_rejects_conflicting_journal_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
             "--repetitions", "1",
             "--journal", str(tmp_path / "a.jsonl"),
             "--resume", str(tmp_path / "b.jsonl")]
        )
        assert code == 2
        assert "different files" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [[], ["--journal", "sweep.jsonl"]], ids=["serial", "journaled"]
    )
    def test_sweep_colliding_seeds_is_a_clean_error(self, tmp_path, capsys, extra):
        from repro.cli import main

        extra = [tmp_path / arg if arg.endswith(".jsonl") else arg for arg in extra]
        code = main(
            ["sweep", "--epsilons", "0.1,0.3", "--machines", "2,3", "--n", "6",
             "--seed", "2020", "--repetitions", "70", *map(str, extra)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: sweep grid has 12 colliding cell seed")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra", [[], ["--journal", "sweep.jsonl"]], ids=["serial", "journaled"]
    )
    def test_sweep_single_machine_algorithm_on_more_machines_is_a_clean_error(
        self, tmp_path, capsys, extra
    ):
        from repro.cli import main

        extra = [tmp_path / arg if arg.endswith(".jsonl") else arg for arg in extra]
        code = main(
            ["sweep", "--workload", "cloud", "--epsilons", "0.2",
             "--machines", "1,2", "--algorithms", "threshold,classify-select",
             "--n", "10", "--repetitions", "1", "--seed", "9", "--no-cache",
             *map(str, extra)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "error: classify-select only runs on single-machine instances"
        )
        assert "machine count(s) 2" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra", [[], ["--journal", "sweep.jsonl"]], ids=["serial", "journaled"]
    )
    def test_sweep_unknown_algorithm_is_a_clean_error(self, tmp_path, capsys, extra):
        from repro.cli import main

        extra = [tmp_path / arg if arg.endswith(".jsonl") else arg for arg in extra]
        code = main(
            ["sweep", "--epsilons", "0.5", "--machines", "1",
             "--algorithms", "nosuch", "--n", "4", "--repetitions", "1",
             "--no-cache", *map(str, extra)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown algorithm 'nosuch' in the sweep grid")
        assert "threshold" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cloud_workload(self, capsys):
        from repro.cli import main

        assert main(
            [
                "sweep",
                "--workload", "cloud",
                "--epsilons", "0.2",
                "--machines", "2",
                "--n", "10",
                "--repetitions", "1",
            ]
        ) == 0
        assert "cloud" in capsys.readouterr().out

    def test_sweep_cache_warm_rerun(self, capsys, tmp_path):
        from repro.cli import main

        argv = [
            "sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
            "--repetitions", "1", "--cache-dir", str(tmp_path / "brackets"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "bracket cache: 0 hits / 1 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "bracket cache: 1 hits / 0 misses (100% hit rate)" in warm

    def test_sweep_no_cache(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
             "--repetitions", "1", "--no-cache"]
        ) == 0
        assert "bracket cache" not in capsys.readouterr().out


class TestSweepFlagTable:
    """Which path each ``repro sweep`` flag combination takes, and its exit
    code: the serial path, the lease loop, or a refusal before either."""

    BASE = [
        "sweep", "--epsilons", "0.3", "--machines", "2", "--n", "6",
        "--repetitions", "2", "--algorithms", "greedy", "--no-cache",
    ]

    @pytest.fixture
    def paths(self, monkeypatch):
        from repro.workloads import execute, remote

        taken = []
        for module, name, path in (
            (execute, "_execute_serial", "serial"),
            (remote, "run_lease_loop", "lease"),
        ):
            def spy(*args, _real=getattr(module, name), _path=path, **kwargs):
                taken.append(_path)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return taken

    @pytest.mark.parametrize(
        ("flags", "path", "code"),
        [
            ([], "serial", 0),
            (["--parallel", "2"], "lease", 0),
            (["--parallel", "1", "--no-speculate"], "lease", 0),
            (["--journal", "{J}"], "lease", 0),
            (["--timeout", "30"], "lease", 0),
            (["--manifest", "{M}"], "lease", 0),
            (["--adaptive-reps"], "lease", 0),
            (["--manifest", "{M}", "--adaptive-reps"], "lease", 0),
            (["--shards", "2", "--shard-index", "1"], "lease", 0),
            (["--retries", "0"], "serial", 0),
            (["--no-speculate"], "serial", 0),
            (["--heartbeat-interval", "0.05"], "serial", 0),
            (["--lease-timeout", "5"], "serial", 0),
            (["--host-max-failures", "3"], "serial", 0),
            (["--no-local-fallback"], "serial", 0),
            (["--cache-dir", "{D}"], "serial", 0),
            (["--shards", "2"], None, 2),
            (["--shards", "2", "--shard-index", "2"], None, 2),
            (["--shards", "0"], None, 2),
            (["--salvage"], None, 2),
            (["--parallel", "2", "--timeout", "0"], None, 2),
            (["--parallel", "2", "--retries", "-1"], None, 2),
            (["--parallel", "2", "--heartbeat-interval", "0.5", "--lease-timeout", "0.2"],
             None, 2),
            (["--manifest", "{M}", "--timeout", "0"], None, 2),
            (["--journal", "{J}", "--resume", "{K}"], None, 2),
            (["--hosts", "{D}/missing.json"], None, 2),
            (["--adaptive-reps", "--hosts", "{H}"], None, 2),
            (["--epsilons", "0.1,0.3", "--machines", "2,3", "--repetitions", "70"],
             None, 2),
        ],
    )
    def test_path_and_exit_code(self, flags, path, code, paths, tmp_path, capsys):
        (tmp_path / "hosts.json").write_text('[{"name": "a"}]')
        names = {"{J}": "j.jsonl", "{K}": "k.jsonl", "{M}": "m.json", "{H}": "hosts.json"}
        argv = [
            str(tmp_path / names[f]) if f in names else f.replace("{D}", str(tmp_path))
            for f in flags
        ]
        assert main(self.BASE + argv) == code
        assert paths == ([] if path is None else [path])
        if code == 2:
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("salvage", [[], ["--salvage"]])
    def test_resume_takes_the_lease_loop(self, salvage, paths, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(self.BASE + ["--journal", journal]) == 0
        assert main(self.BASE + ["--resume", journal] + salvage) == 0
        assert paths == ["lease", "lease"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--retries", "-1"],
            ["--heartbeat-interval", "0"],
            ["--parallel", "-1"],
            ["--host-max-failures", "0"],
            ["--lease-timeout", "0.05"],
        ],
    )
    def test_invalid_values_are_refused_on_the_serial_path_too(self, flags, paths, capsys):
        assert main(self.BASE + flags) == 2
        assert paths == []
        assert capsys.readouterr().err.startswith("error: ")


class TestShardedSweepCommand:
    BASE = [
        "sweep",
        "--epsilons", "0.2,0.5",
        "--machines", "1,2",
        "--n", "6",
        "--repetitions", "1",
        "--algorithms", "greedy",
    ]

    def test_shards_require_shard_index(self, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--shards", "3"]) == 2
        assert "--shard-index" in capsys.readouterr().err
        assert main(self.BASE + ["--shards", "3", "--shard-index", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_shard_run_and_merge_match_unsharded(self, capsys, tmp_path):
        from repro.cli import main

        plain_csv = tmp_path / "plain.csv"
        assert main(self.BASE + ["--csv", str(plain_csv)]) == 0
        capsys.readouterr()

        journals = []
        for i in range(3):
            journal = tmp_path / f"shard{i}.jsonl"
            journals.append(str(journal))
            code = main(
                self.BASE
                + ["--shards", "3", "--shard-index", str(i),
                   "--journal", str(journal)]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"shard {i}/3" in out

        merged_csv = tmp_path / "merged.csv"
        merged_journal = tmp_path / "merged.jsonl"
        code = main(
            ["merge", *journals, "--out", str(merged_journal),
             "--csv", str(merged_csv)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged 3 journal(s)" in out
        assert "0 missing" in out
        assert merged_csv.read_text() == plain_csv.read_text()
        assert merged_journal.exists()

    def test_resume_shard_with_wrong_flags_fails(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "shard0.jsonl"
        assert main(
            self.BASE
            + ["--shards", "3", "--shard-index", "0", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        code = main(
            self.BASE
            + ["--shards", "4", "--shard-index", "0", "--resume", str(journal)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "n_shards=3" in err and "n_shards=4" in err


class TestMergeCommand:
    def test_incomplete_merge_degraded_exit(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "shard0.jsonl"
        assert main(
            ["sweep", "--epsilons", "0.2,0.5", "--machines", "1", "--n", "6",
             "--repetitions", "1", "--algorithms", "greedy",
             "--shards", "2", "--shard-index", "0", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(["merge", str(journal)]) == 4
        captured = capsys.readouterr()
        assert "missing" in captured.out
        assert "incomplete" in captured.err

    def test_mismatched_journals_rejected(self, capsys, tmp_path):
        from repro.cli import main

        base = ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "6",
                "--repetitions", "1", "--algorithms", "greedy"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(base + ["--journal", str(a)]) == 0
        assert main(base + ["--seed", "9", "--journal", str(b)]) == 0
        capsys.readouterr()
        assert main(["merge", str(a), str(b)]) == 2
        assert "different sweeps" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = str(tmp_path / "brackets")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 0" in capsys.readouterr().out

        assert main(
            ["sweep", "--epsilons", "0.3", "--machines", "2", "--n", "8",
             "--repetitions", "2", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries         : 2" in out
        assert "schema version" in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2 cached bracket(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 0" in capsys.readouterr().out


class TestRowsToCsv:
    def test_roundtrip_columns(self):
        from functools import partial

        from repro.workloads.execute import execute_sweep
        from repro.workloads.random_instances import random_instance
        from repro.workloads.sweep import SweepSpec, rows_to_csv

        spec = SweepSpec(
            epsilons=[0.3],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=partial(random_instance, 6),
            repetitions=1,
        )
        text = rows_to_csv(execute_sweep(spec).rows)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == len(lines[1].split(","))


class TestPlanCommand:
    def test_solve_for_machines(self, capsys):
        from repro.cli import main

        assert main(["plan", "--target", "5.0", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fleet size m = 12" in out

    def test_solve_for_slack(self, capsys):
        from repro.cli import main

        assert main(["plan", "--target", "5.0", "--m", "3"]) == 0
        assert "slack eps" in capsys.readouterr().out

    def test_unachievable(self, capsys):
        from repro.cli import main

        assert main(["plan", "--target", "3.0", "--eps", "0.01"]) == 1
        assert "unachievable" in capsys.readouterr().out

    def test_requires_exactly_one_dimension(self, capsys):
        from repro.cli import main

        assert main(["plan", "--target", "5.0"]) == 2
        assert main(["plan", "--target", "5.0", "--eps", "0.1", "--m", "2"]) == 2


class TestFig1Svg:
    def test_fig1_svg_output(self, capsys, tmp_path):
        from repro.cli import main

        svg = tmp_path / "fig1.svg"
        code = main(
            ["fig1", "--machines", "1,2", "--points", "30", "--svg", str(svg)]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        assert "m = 2" in text
