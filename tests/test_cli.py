"""Command-line surface: flags, outputs, exit codes, determinism."""

import contextlib
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from contrabatch import (
    EmbeddingPair,
    bandwidth_pipeline,
    gap_report,
    hard_negative_batches,
    load_pair,
    random_batches,
    save_embeddings,
)
from contrabatch import batching, cli, io, losses, similarity
from contrabatch.cli import main
from conftest import (
    clustered_pair,
    count_products,
    orthogonal_ties,
    random_pair,
    src_env,
    two_cluster_pair,
)


def write_pair(tmp_path, pair, fmt="emb1"):
    x, y = tmp_path / f"x.{fmt}", tmp_path / f"y.{fmt}"
    save_embeddings(pair.x, x, fmt)
    save_embeddings(pair.y, y, fmt)
    return str(x), str(y)


def write_constant_pair(tmp_path, n):
    m = np.zeros((n, 3))
    m[:, 0] = 1.0
    x, y = tmp_path / "cx.emb1", tmp_path / "cy.emb1"
    save_embeddings(m, x)
    save_embeddings(m, y)
    return str(x), str(y)


class TestPermute:
    def test_two_cluster_golden_outputs(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, two_cluster_pair())
        perm_file = tmp_path / "perm.txt"
        batch_file = tmp_path / "batches.txt"
        rc = main([
            "permute", "--x", x, "--y", y, "--quantile", "0.5",
            "--batch-size", "4", "--out-perm", str(perm_file),
            "--out-batches", str(batch_file), "--report",
        ])
        assert rc == 0
        assert perm_file.read_text() == "7\n6\n5\n4\n3\n2\n1\n0\n"
        assert batch_file.read_text() == "0: 7 6 5 4\n1: 3 2 1 0\n"
        report = json.loads(capsys.readouterr().out)
        assert report["strategy"] == "gcbs"
        assert report["quantile"] == 0.5

    def test_single_batch_gap_zero(self, tmp_path, capsys):
        pair = random_pair(6, 4, seed=0)
        x, y = write_pair(tmp_path, pair)
        rc = main(["permute", "--x", x, "--y", y, "--batch-size", "6",
                   "--quantile", "0.9", "--report"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["gap"]) < 1e-9

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = main(["permute", "--x", str(tmp_path / "nope.emb1"),
                   "--y", str(tmp_path / "nope.emb1"), "--batch-size", "2"])
        assert rc == 1
        assert "nope.emb1" in capsys.readouterr().err

    def test_bad_quantile_exits_two(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(4, 3, seed=2))
        rc = main(["permute", "--x", x, "--y", y, "--batch-size", "2",
                   "--quantile", "1.5"])
        assert rc == 2

    @pytest.mark.parametrize("tau", ["inf", "0", "-1", "1e-310"])
    def test_failed_report_writes_no_file(self, tmp_path, capsys, tau):
        # inf, 0 and -1 are not temperatures; at 1e-310 every logit
        # overflows and the report has no JSON form
        x, y = write_pair(tmp_path, random_pair(8, 4, seed=3))
        perm_file, batch_file = tmp_path / "perm.txt", tmp_path / "batches.txt"
        rc = main(["permute", "--x", x, "--y", y, "--batch-size", "4", "--quantile", "0.8",
                   "--tau", tau, "--out-perm", str(perm_file), "--out-batches", str(batch_file),
                   "--report"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not perm_file.exists() and not batch_file.exists()

    @pytest.mark.parametrize("batches", ["missing/batches.txt", "a-directory"])
    def test_failed_batch_dump_keeps_the_old_permutation(self, tmp_path, capsys, batches):
        x, y = write_pair(tmp_path, random_pair(16, 4, seed=3))
        (tmp_path / "a-directory").mkdir()
        perm_file = tmp_path / "perm.txt"
        perm_file.write_text("earlier run\n")
        rc = main(["permute", "--x", x, "--y", y, "--batch-size", "4", "--out-perm",
                   str(perm_file), "--out-batches", str(tmp_path / batches)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{batches}'\n" in err
        assert perm_file.read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a-directory", "perm.txt", "x.emb1", "y.emb1"]
        assert list((tmp_path / "a-directory").iterdir()) == []

    @pytest.mark.parametrize("batches", ["perm.txt", "sub/../perm.txt", "link/perm.txt"])
    def test_one_path_for_both_outputs_exits_two(self, tmp_path, capsys, batches):
        x, y = write_pair(tmp_path, random_pair(16, 4, seed=3))
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path)
        rc = main(["permute", "--x", x, "--y", y, "--batch-size", "4", "--out-perm",
                   str(tmp_path / "perm.txt"), "--out-batches", str(tmp_path / batches)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub", "x.emb1", "y.emb1"]

    def test_outputs_leave_no_temporary_files(self, tmp_path):
        x, y = write_pair(tmp_path, two_cluster_pair())
        rc = main(["permute", "--x", x, "--y", y, "--quantile", "0.5", "--batch-size", "4",
                   "--out-perm", str(tmp_path / "perm.txt"),
                   "--out-batches", str(tmp_path / "batches.txt")])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "batches.txt", "perm.txt", "x.emb1", "y.emb1"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("tau", ["1e-308", "1e-310"])
    @pytest.mark.parametrize("n, argv, message", [
        (300, ["permute", "--batch-size", "8", "--report"], "error: non-finite value"),
        (8, ["oracle", "--batch-size", "4"], "error: objective is NaN"),  # the oracle caps N at 10
    ], ids=["permute", "oracle"])
    def test_overflowing_report_prints_one_error_line(self, tmp_path, threads, tau, n, argv,
                                                      message):
        # run as a process: NumPy's floating-point warnings reach stderr there
        x, y = write_pair(tmp_path, random_pair(n, 16, seed=3))
        child = subprocess.run(
            [sys.executable, "-c", "from contrabatch.cli import entrypoint; entrypoint()",
             *argv, "--x", x, "--y", y, "--tau", tau, "--threads", threads],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr.startswith(message)
        assert child.stderr.count("\n") == 1

    def test_degenerate_row_exits_one(self, tmp_path, capsys):
        m = np.ones((4, 3))
        m[2] = 0.0
        x = tmp_path / "x.emb1"
        save_embeddings(m, x)
        rc = main(["permute", "--x", str(x), "--y", str(x), "--batch-size", "2"])
        assert rc == 1


class TestAnalyze:
    def test_full_batch_gap_zero(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(8, 4, seed=3))
        rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "8",
                   "--quantile", "0.9"])
        assert rc == 0
        assert abs(json.loads(capsys.readouterr().out)["gap"]) < 1e-9

    def test_constant_pair_gap_is_log_ratio(self, tmp_path, capsys):
        x, y = write_constant_pair(tmp_path, 12)
        rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "3",
                   "--quantile", "0.5", "--strategy", "random"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gap"] == pytest.approx(math.log(12 / 3), abs=1e-9)

    def test_permutation_file_input(self, tmp_path, capsys):
        pair = random_pair(6, 4, seed=4)
        x, y = write_pair(tmp_path, pair)
        perm = tmp_path / "p.txt"
        perm.write_text("5\n4\n3\n2\n1\n0\n")
        rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "2",
                   "--perm", str(perm)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["strategy"] == "file"

    def test_tsv_inputs_are_sniffed(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(5, 3, seed=5), fmt="tsv")
        rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "5",
                   "--quantile", "0.8"])
        assert rc == 0
        assert abs(json.loads(capsys.readouterr().out)["gap"]) < 1e-9

    @pytest.mark.parametrize("command, tau", [
        ("analyze", "inf"), ("analyze", "1e-310"), ("oracle", "1e-310"),
    ])
    def test_non_finite_temperature_or_report_exits_two(
        self, tmp_path, capsys, command, tau
    ):
        # 1e-310 is a valid temperature, but every logit overflows and the
        # losses come out NaN, which has no JSON form
        x, y = write_pair(tmp_path, random_pair(8, 4, seed=3))
        pipeline = ["--quantile", "0.8"] if command == "analyze" else []
        rc = main([command, "--x", x, "--y", y, "--batch-size", "4", "--tau", tau] + pipeline)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("contents", [b"0\n0\n1\n2\n", b"EMB1\x80\x00\n"],
                             ids=["duplicate", "binary"])
    def test_bad_permutation_file_exits_one(self, tmp_path, capsys, contents):
        x, y = write_pair(tmp_path, random_pair(4, 3, seed=6))
        perm = tmp_path / "p.txt"
        perm.write_bytes(contents)
        rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "2",
                   "--perm", str(perm)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCompare:
    def test_single_seed_zero_stddev(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(10, 4, seed=7))
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "2",
                   "--quantile", "0.7", "--seeds", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["random_summary"]["train_loss"]["stddev"] == 0.0
        assert payload["random_summary"]["gap"]["stddev"] == 0.0

    def test_report_order_and_tags(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(12, 4, seed=8))
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "4",
                   "--quantile", "0.7", "--seeds", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        tags = [r["strategy"] for r in payload["reports"]]
        assert tags == ["gcbs", "hardneg1"] + ["random"] * 3
        assert payload["reports"][1]["strategy"] == "hardneg1"

    def test_zero_seeds_exits_two(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(6, 3, seed=9))
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "2",
                   "--seeds", "0"])
        assert rc == 2

    def test_odd_batch_size_rejected_before_the_pipeline(self, tmp_path, capsys, monkeypatch):
        x, y = write_pair(tmp_path, random_pair(12, 4, seed=8))
        calls = []
        real = batching.estimate_quantile_threshold

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(batching, "estimate_quantile_threshold", counted)
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "3",
                   "--quantile", "0.7", "--seeds", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert calls == []
        assert captured.out == ""
        assert captured.err == "error: mined-negative batches need an even batch size, got 3\n"

    def test_clustered_data_separates_pipeline_from_random(self, tmp_path, capsys):
        # measured separation on this fixture is ~41 sigma; the assertion
        # uses a conservative 5 sigma
        pair, _ = clustered_pair(256, 32, 16, noise=0.15, seed=2)
        x, y = write_pair(tmp_path, pair)
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "16",
                   "--quantile", "0.99", "--seeds", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        pipeline_train = payload["reports"][0]["train_loss"]
        summary = payload["random_summary"]["train_loss"]
        assert pipeline_train > summary["mean"] + 5 * summary["stddev"]

    def test_global_stats_computed_once(self, tmp_path, capsys, monkeypatch):
        x, y = write_pair(tmp_path, random_pair(40, 6, seed=14))
        pair = load_pair(x, y).normalized()
        runs = [(bandwidth_pipeline(pair, 0.8, 4)[1], "gcbs", 0.8),
                (hard_negative_batches(pair, 4, seed=0), "hardneg1", None)]
        runs += [(random_batches(pair.n, 4, seed), "random", None) for seed in range(5)]
        expected = ", ".join(gap_report(pair, a, 0.05, strategy=s, quantile=q).to_json()
                             for a, s, q in runs)
        calls = []
        real = losses._global_stats

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(losses, "_global_stats", counted)
        monkeypatch.setattr(cli, "_global_stats", counted)
        rc = main(["compare", "--x", x, "--y", y, "--batch-size", "4",
                   "--quantile", "0.8", "--seeds", "5"])
        assert rc == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(f'{{"reports": [{expected}], ')


class TestNormalizeOnce:
    @pytest.mark.parametrize("command", [["permute", "--report"], ["compare", "--seeds", "2"]],
                             ids=["permute", "compare"])
    def test_rows_normalized_once_on_load(self, tmp_path, capsys, monkeypatch, command):
        x, y = write_pair(tmp_path, random_pair(16, 4, seed=13))
        calls = []
        real = io.normalize_rows

        def counted(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(io, "normalize_rows", counted)
        rc = main(command + ["--x", x, "--y", y, "--batch-size", "4", "--quantile", "0.8"])
        assert rc == 0
        assert calls == [(16, 4), (16, 4)]  # X and Y, once each


def test_cli_import_leaves_the_thread_pool_unloaded():
    # a one-thread run never needs the pool, or the logging it imports
    code = ("import sys, numpy, contrabatch.cli; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=src_env(), timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


class TestBench:
    def test_first_size_warmed_up_untimed(self, capsys, monkeypatch):
        calls = []
        real = batching.estimate_quantile_threshold

        def counted(pair, *args, **kwargs):
            calls.append(pair.n)
            return real(pair, *args, **kwargs)

        monkeypatch.setattr(batching, "estimate_quantile_threshold", counted)
        rc = main(["bench", "--sizes", "64,128", "--dim", "8"])
        assert rc == 0
        assert calls == [64, 64, 128]
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,stage,seconds"
        rows = [line.split(",")[:2] for line in out[1:]]
        stages = ["quantile", "graph", "ordering", "total"]
        assert rows == [[n, stage] for n in ("64", "128") for stage in stages]

    def test_single_size_rows(self, capsys):
        rc = main(["bench", "--sizes", "256", "--dim", "16"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,stage,seconds"
        rows = [line.split(",") for line in out[1:]]
        stages = [r[1] for r in rows]
        assert stages == ["quantile", "graph", "ordering", "total"]
        assert all(float(r[2]) > 0 for r in rows)

    def test_slope_reported_for_multiple_sizes(self, capsys):
        rc = main(["bench", "--sizes", "128,256", "--dim", "8"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "log-log slope" in captured.err

    def test_repeated_size_prints_no_slope(self, capsys):
        # one distinct N gives no slope to fit; numpy would warn and print noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bench", "--sizes", "64,64", "--dim", "8"])
        assert rc == 0
        captured = capsys.readouterr()
        rows = [line.split(",")[:2] for line in captured.out.strip().splitlines()[1:]]
        stages = ["quantile", "graph", "ordering", "total"]
        assert rows == [["64", stage] for _ in range(2) for stage in stages]
        assert "slope" not in captured.err

    def test_edgeless_graph_warns(self, capsys):
        # one column of +-1 entries: every product is +-1 and the cutoff lands on 1
        with pytest.warns(UserWarning, match="no inner product exceeds"):
            rc = main(["bench", "--sizes", "4", "--dim", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_empty_sizes_exits_two(self, capsys):
        assert main(["bench", "--sizes", ""]) == 2


class TestOracleCommand:
    def test_emits_all_three_objectives(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(6, 4, seed=10))
        rc = main(["oracle", "--x", x, "--y", y, "--batch-size", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"qbap", "qap", "min_gap"}
        assert payload["qbap"]["enumerated_count"] == 15
        assert all(len(b) == 2 for b in payload["qap"]["batches"])

    def test_capacity_exits_two(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(11, 4, seed=11))
        rc = main(["oracle", "--x", x, "--y", y, "--batch-size", "2"])
        assert rc == 2


class TestDeterminism:
    def test_outputs_byte_identical_across_threads_and_runs(self, tmp_path, capsys):
        pair = random_pair(40, 8, seed=12)
        x, y = write_pair(tmp_path, pair)
        outputs = []
        for threads in ("1", "8", "1"):
            perm_file = tmp_path / f"perm_{len(outputs)}.txt"
            rc = main(["permute", "--x", x, "--y", y, "--batch-size", "8",
                       "--quantile", "0.8", "--threads", threads,
                       "--out-perm", str(perm_file), "--report"])
            assert rc == 0
            outputs.append((capsys.readouterr().out, perm_file.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_analyze_and_compare_stable(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(16, 4, seed=13))
        seen = []
        for threads in ("1", "8"):
            rc = main(["analyze", "--x", x, "--y", y, "--batch-size", "4",
                       "--quantile", "0.8", "--strategy", "hardneg1",
                       "--threads", threads])
            assert rc == 0
            seen.append(capsys.readouterr().out)
        assert seen[0] == seen[1]


# Exact stdout of each command on small seeded fixtures.  Report bytes are
# part of the CLI's contract, so these change only on purpose.
PERMUTE_REPORT = (
    '{"n": 16, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 18.646166802639804, "train_loss": 13.306281150240284, '
    '"gap": 5.33988565239952, "ub_gap_translation": 28.608025261534223, '
    '"ub_gap_standard": 7.8707646471959514, '
    '"qbap_value": -0.99500467072645971, "qap_value": -1.2126281985197369, '
    '"strategy": "gcbs", "quantile": 0.80000000000000004}\n'
)
COMPARE_REPORT = (
    '{"reports": [{"n": 16, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 18.646166802639804, "train_loss": 13.306281150240284, '
    '"gap": 5.33988565239952, "ub_gap_translation": 28.608025261534223, '
    '"ub_gap_standard": 7.8707646471959514, '
    '"qbap_value": -0.99500467072645971, "qap_value": -1.2126281985197369, '
    '"strategy": "gcbs", "quantile": 0.80000000000000004}, '
    '{"n": 16, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 18.646166802639804, "train_loss": 16.713070552322932, '
    '"gap": 1.933096250316872, "ub_gap_translation": 25.625298339090712, '
    '"ub_gap_standard": 4.1245375894689822, '
    '"qbap_value": -0.95452307376921186, "qap_value": 25.871407682411693, '
    '"strategy": "hardneg1", "quantile": null}, '
    '{"n": 16, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 18.646166802639804, "train_loss": 12.190260359151306, '
    '"gap": 6.4559064434884981, "ub_gap_translation": 26.974271758112234, '
    '"ub_gap_standard": 9.0031058694526802, '
    '"qbap_value": -0.95452307376921186, "qap_value": -10.176236997155089, '
    '"strategy": "random", "quantile": null}, '
    '{"n": 16, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 18.646166802639804, "train_loss": 14.612519930790317, '
    '"gap": 4.0336468718494878, "ub_gap_translation": 25.682918407559107, '
    '"ub_gap_standard": 6.5894077517193708, '
    '"qbap_value": -0.9062850322794207, "qap_value": 5.3229932837146041, '
    '"strategy": "random", "quantile": null}], '
    '"random_summary": {"train_loss": {"mean": 13.401390144970811, '
    '"stddev": 1.2111297858195051}, "gap": {"mean": 5.2447766576689929, '
    '"stddev": 1.2111297858195051}}}\n'
)
ORACLE_REPORT = (
    '{"qbap": {"best_value": 0.084404203771453565, '
    '"batches": [[0, 4], [1, 3], [2, 5]], "enumerated_count": 15}, '
    '"qap": {"best_value": 5.2696680602924921, '
    '"batches": [[0, 4], [1, 3], [2, 5]], "enumerated_count": 15}, '
    '"min_gap": {"best_value": 4.7321949188716292, '
    '"batches": [[0, 5], [1, 2], [3, 4]], "enumerated_count": 15}}\n'
)

TIES_REPORT = (
    '{"n": 32, "k": 4, "tau": 0.050000000000000003, '
    '"global_loss": 2.079441547863297, "train_loss": 6.1834608544586445e-09, '
    '"gap": 2.0794415416798362, "ub_gap_translation": 22.079441541679834, '
    '"ub_gap_standard": 3.4657359027997265, "qbap_value": 0, "qap_value": 0, '
    '"strategy": "gcbs", "quantile": 0.999}\n'
)


class TestEdgelessGraph:
    def test_warning_on_stderr_leaves_stdout_alone(self, tmp_path):
        # the cutoff lands on 1.0, the largest product, so the graph is empty
        x, y = write_pair(tmp_path, orthogonal_ties())
        perm_file = tmp_path / "perm.txt"
        child = subprocess.run(
            [sys.executable, "-c", "from contrabatch.cli import entrypoint; entrypoint()",
             "permute", "--x", x, "--y", y, "--batch-size", "4", "--quantile", "0.999",
             "--out-perm", str(perm_file), "--report"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert child.returncode == 0
        assert "UserWarning" in child.stderr and "no edges" in child.stderr
        assert "Traceback" not in child.stderr
        assert child.stdout == TIES_REPORT
        assert perm_file.read_text() == "".join(f"{i}\n" for i in range(31, -1, -1))


class TestReportBytes:
    @pytest.mark.parametrize("command, expected", [
        (["permute", "--report"], PERMUTE_REPORT),
        (["compare", "--seeds", "2"], COMPARE_REPORT),
    ], ids=["permute", "compare"])
    def test_pair_reports(self, tmp_path, capsys, command, expected):
        x, y = write_pair(tmp_path, random_pair(16, 4, seed=13))
        rc = main(command + ["--x", x, "--y", y, "--batch-size", "4",
                             "--quantile", "0.8"])
        assert rc == 0
        assert capsys.readouterr().out == expected

    def test_oracle(self, tmp_path, capsys):
        x, y = write_pair(tmp_path, random_pair(6, 4, seed=10))
        rc = main(["oracle", "--x", x, "--y", y, "--batch-size", "2"])
        assert rc == 0
        assert capsys.readouterr().out == ORACLE_REPORT


def plain_report(x, y, q, k, tau, chunk_rows=None, threads=1) -> str:
    """stdout of ``permute --report`` built by the public functions on a plain pair."""
    pair = load_pair(x, y).normalized()
    assignment = bandwidth_pipeline(pair, q, k, chunk_rows=chunk_rows, threads=threads)[1]
    return gap_report(pair, assignment, tau, strategy="gcbs", quantile=q,
                      threads=threads).to_json() + "\n"


def duplicated_cluster_pair() -> EmbeddingPair:
    """512 clustered rows, every other one on both sides a copy of x_0.

    A quarter of all products tie at the top, too many for a tile's tail.
    """
    pair, _ = clustered_pair(512, 16, 8, noise=0.05, seed=46)
    x, y = pair.x.copy(), pair.y.copy()
    x[::2] = y[::2] = x[0]
    return EmbeddingPair(x, y)


class TestOneSweep:
    """The report reads its global loss from the cutoff's tiles: one X·Yᵀ
    multiply per ``permute --report``, and the same report bytes as the
    public functions on a plain pair on every path."""

    TILES = [(0, 128), (128, 256), (256, 384), (384, 512)]

    def run(self, tmp_path, capsys, monkeypatch, pair, flags, command="permute"):
        x, y = write_pair(tmp_path, pair)
        calls = count_products(monkeypatch)
        extra = ["--report"] if command == "permute" else ["--seeds", "2"]
        rc = main([command, "--x", x, "--y", y, "--batch-size", "16"] + extra + flags)
        assert rc == 0
        return x, y, calls, capsys.readouterr().out

    def test_permute_report_multiplies_each_tile_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        calls = self.run(tmp_path, capsys, monkeypatch, random_pair(512, 16, seed=41),
                         ["--quantile", "0.999", "--threads", "2"])[2]
        assert sorted(calls) == self.TILES  # estimate only: the graph and report reuse it

    def test_compare_multiplies_each_tile_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        x, y, calls, out = self.run(tmp_path, capsys, monkeypatch, random_pair(512, 16, seed=41),
                                    ["--quantile", "0.999"], command="compare")
        assert sorted(calls) == self.TILES  # the estimate: the mined baseline reads its argmax
        assert out.startswith('{"reports": [' + plain_report(x, y, 0.999, 16, 0.05)[:-1])

    def scanned(self, monkeypatch, plain):
        """``plain`` reading neighbours and global stats, as compare sets it,
        after the cutoff's scan."""
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        pair = similarity._reading(plain, (batching._nearest_part, ()),
                                   (losses._global_part, (0.05,)))
        similarity.estimate_quantile_threshold(pair, 0.999, 512)
        return pair

    def test_neighbours_of_another_pair_are_multiplied(self, monkeypatch):
        plain, other = random_pair(512, 16, seed=41), random_pair(512, 16, seed=49)
        pair = self.scanned(monkeypatch, plain)
        calls = count_products(monkeypatch)
        np.testing.assert_array_equal(batching.nearest_cross_neighbors(pair),
                                      batching.nearest_cross_neighbors(plain))
        assert sorted(calls) == self.TILES  # the plain pair's pass only
        calls.clear()
        copied = replace(pair, x=other.x, y=other.y)  # carries the readers along
        np.testing.assert_array_equal(batching.nearest_cross_neighbors(copied),
                                      batching.nearest_cross_neighbors(other))
        assert sorted(calls) == sorted(self.TILES * 2)
        # the other way round: a scan of the copy leaves the pair nothing to read
        fresh = similarity._reading(plain, (batching._nearest_part, ()),
                                    (losses._global_part, (0.05,)))
        similarity.estimate_quantile_threshold(replace(fresh, x=other.x, y=other.y), 0.999, 512)
        calls.clear()
        np.testing.assert_array_equal(batching.nearest_cross_neighbors(fresh),
                                      batching.nearest_cross_neighbors(plain))
        assert sorted(calls) == sorted(self.TILES * 2)

    def test_read_neighbours_keep_the_tie_rule(self, monkeypatch):
        plain = duplicated_cluster_pair()
        pair = self.scanned(monkeypatch, plain)
        calls = count_products(monkeypatch)
        mined = hard_negative_batches(pair, 16, seed=3)
        assert calls == []
        nn = batching.nearest_cross_neighbors(plain)
        assert nn[0] == 2 and (nn[2::2] == 0).all()  # tied rows: the lowest j != i
        want = hard_negative_batches(plain, 16, seed=3)
        assert len(mined.batches) == len(want.batches)
        assert all(np.array_equal(a, b) for a, b in zip(mined.batches, want.batches))

    def test_full_sort_multiplies_the_report_tiles(self, tmp_path, capsys, monkeypatch):
        # q = 0.9 keeps no tails: the sort, the graph and the report each multiply
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        calls = self.run(tmp_path, capsys, monkeypatch, random_pair(512, 16, seed=41),
                         ["--quantile", "0.9"])[2]
        assert sorted(calls) == sorted(self.TILES * 3)

    def test_off_grid_chunks_multiply_the_report_tiles(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        calls = self.run(tmp_path, capsys, monkeypatch, random_pair(512, 16, seed=41),
                         ["--quantile", "0.999", "--chunk-rows", "100"])[2]
        chunk_tiles = [(s, min(s + 100, 512)) for s in range(0, 512, 100)]
        assert sorted(calls) == sorted(chunk_tiles + self.TILES * 2)  # graph and report

    @pytest.mark.parametrize("pair, flags, row_chunk, edgeless", [
        (random_pair(512, 16, seed=41), ["--quantile", "0.9"], 128, False),
        (duplicated_cluster_pair(), ["--quantile", "0.999"], 128, True),  # the cutoff is the top
        (random_pair(512, 16, seed=41), ["--quantile", "0.999", "--chunk-rows", "100"], 128,
         False),
        (random_pair(2050, 16, seed=47), ["--quantile", "0.999"], None, False),
        (random_pair(512, 16, seed=41), ["--quantile", "0.999", "--threads", "2"], 128, False),
        (random_pair(512, 16, seed=41), ["--quantile", "0.999", "--tau", "0.05"], 128, False),
        (random_pair(512, 16, seed=41), ["--quantile", "0.999", "--tau", "0.5"], 128, False),
    ], ids=["full-sort", "dropped-tail", "off-grid-chunks", "n-2050", "threads-2",
            "tau-0.05", "tau-0.5"])
    def test_report_bytes_on_every_path(self, tmp_path, capsys, monkeypatch, pair, flags,
                                        row_chunk, edgeless):
        if row_chunk is not None:
            monkeypatch.setattr(similarity, "ROW_CHUNK", row_chunk)
        opts = dict(zip(flags[::2], flags[1::2]))
        chunk_rows = int(opts["--chunk-rows"]) if "--chunk-rows" in opts else None
        warned = (pytest.warns(UserWarning, match="no inner product exceeds") if edgeless
                  else contextlib.nullcontext([]))
        with warned as record:
            x, y, _, out = self.run(tmp_path, capsys, monkeypatch, pair, flags)
            want = plain_report(x, y, float(opts["--quantile"]), 16,
                                float(opts.get("--tau", "0.05")), chunk_rows=chunk_rows,
                                threads=int(opts.get("--threads", "1")))
        assert out == want
        assert len(record) == (2 if edgeless else 0)  # the CLI's pipeline and the plain one

    def test_duplicated_pair_drops_a_tail(self, tmp_path, monkeypatch):
        # the premise of the dropped-tail case above
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        pair = load_pair(*write_pair(tmp_path, duplicated_cluster_pair())).normalized()
        tails = similarity.estimate_quantile_threshold(pair, 0.999, 512)._tails.by_span
        assert any(tail.bound == math.inf for tail in tails.values())


class TestFlagValidation:
    """Out-of-domain flags exit 2 with one error line, before any stdout."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--strategy", "random", "--seed", "-1"],
        ["compare", "--seed", "-1"],
        ["permute", "--threads", "0"],
        ["analyze", "--threads", "-3"],
    ], ids=["analyze-seed", "compare-seed", "threads-zero", "threads-negative"])
    def test_pair_commands(self, tmp_path, capsys, argv):
        x, y = write_pair(tmp_path, random_pair(8, 4, seed=3))
        rc = main(argv + ["--x", x, "--y", y, "--batch-size", "4", "--quantile", "0.8"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flags", [
        ["--sizes", "a"], ["--sizes", "64", "--dim", "0"],
        ["--sizes", "64", "--threads", "0"], ["--sizes", "64", "--seed", "-1"],
        ["--sizes", "64", "--chunk-rows", "0"], ["--sizes", "64", "--quantile", "1.5"],
        ["--sizes", "128,64", "--chunk-rows", "100"],
        ["--sizes", "64", "--dim", "1000000000000"], ["--sizes", "100000000000000000"],
    ], ids=["sizes-not-a-number", "dim-zero", "threads-zero", "seed-negative", "chunk-rows-zero",
            "quantile-out-of-range", "chunk-rows-above-a-later-size", "dim-too-large",
            "size-too-large"])
    def test_bench(self, capsys, flags):
        rc = main(["bench"] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestUnreadFlags:
    """A command declares only the flags it reads; any other is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["permute", "--strategy", "gcbs"], ["permute", "--strategy", "random"],
        ["permute", "--seed", "1"], ["oracle", "--quantile", "0.9"],
        ["oracle", "--chunk-rows", "4"], ["oracle", "--no-reverse-cm"], ["oracle", "--seed", "1"],
    ], ids=["permute-strategy-gcbs", "permute-strategy-random", "permute-seed",
            "oracle-quantile", "oracle-chunk-rows", "oracle-reverse-cm", "oracle-seed"])
    def test_argparse_rejects(self, tmp_path, capsys, argv):
        x, y = write_pair(tmp_path, random_pair(4, 3, seed=1))
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--x", x, "--y", y, "--batch-size", "2"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bench_rejects_batch_size(self, capsys):
        # bench cuts no batches, so it takes no batch size
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--sizes", "64", "--batch-size", "8"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""
