"""End-to-end tests for the command-line pipeline."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepgcn.cli import main
from sepgcn.data import load_snapshot
from sepgcn.geo import EARTH_RADIUS_KM
from sepgcn.graph import interaction_matrix
from sepgcn.model import load_checkpoint, save_checkpoint
from sepgcn.sep_graph import build_sep_matrix, load_sep_matrix

SETTINGS = [
    "--seed", "3",
    "--set", "split.min_interactions=2",
    "--set", "pruning.max_neighbors=16",
    "--set", "model.dim=16",
    "--set", "train.epochs_max=8",
    "--set", "train.eval_every=4",
]


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out if capsys is not None else None
    return code, out


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full artifact chain shared by the read-only tests."""
    d = tmp_path_factory.mktemp("chain")
    assert main(["synth", "--out", str(d / "raw.tsv"), "--users", "60",
                 "--items", "120", "--checkins", "2500", "--seed", "3"]) == 0
    assert main(["prepare", "--raw", str(d / "raw.tsv"), "--out", str(d / "snap.txt"),
                 *SETTINGS]) == 0
    assert main(["build-sep", "--snapshot", str(d / "snap.txt"),
                 "--out", str(d / "pairs.sep"), *SETTINGS]) == 0
    assert main(["train", "--snapshot", str(d / "snap.txt"), "--sep", str(d / "pairs.sep"),
                 "--out", str(d / "ck.bin"), "--log", str(d / "train.log"), *SETTINGS]) == 0
    assert main(["eval", "--snapshot", str(d / "snap.txt"), "--sep", str(d / "pairs.sep"),
                 "--checkpoint", str(d / "ck.bin"), "--out", str(d / "rep"), *SETTINGS]) == 0
    return d


class TestPrepare:
    def test_snapshot_and_summary(self, chain, tmp_path, capsys):
        code, out = run(
            ["prepare", "--raw", chain / "raw.tsv", "--out", tmp_path / "snap.txt", *SETTINGS],
            capsys,
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header.split("\t") == ["users", "items", "checkins", "interactions", "density_pct"]
        assert row.split("\t")[0] == "60"
        assert (tmp_path / "snap.txt").exists()

    def test_rerun_is_byte_identical(self, chain, tmp_path):
        args = ["prepare", "--raw", chain / "raw.tsv", *SETTINGS]
        assert main([str(a) for a in args + ["--out", tmp_path / "a.txt"]]) == 0
        assert main([str(a) for a in args + ["--out", tmp_path / "b.txt"]]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_missing_raw_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["prepare", "--raw", str(missing), "--out", str(tmp_path / "s.txt")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_missing_out_path_exits_3(self, chain, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "paths.snapshot" in err and "--out" in err

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code = main(["prepare", "--config", str(tmp_path / "none.cfg"),
                     "--raw", "x", "--out", "y"])
        assert code == 3
        assert "config file not found" in capsys.readouterr().err


class TestBuildSep:
    def test_brute_force_flag_gives_identical_file(self, chain, tmp_path):
        args = ["build-sep", "--snapshot", chain / "snap.txt", *SETTINGS]
        assert main([str(a) for a in args + ["--out", tmp_path / "fast.sep"]]) == 0
        assert main(
            [str(a) for a in args + ["--out", tmp_path / "slow.sep", "--brute-force"]]
        ) == 0
        assert (tmp_path / "fast.sep").read_bytes() == (tmp_path / "slow.sep").read_bytes()
        assert (tmp_path / "fast.sep").read_bytes() == (chain / "pairs.sep").read_bytes()

    def test_meta_carries_run_identity(self, chain):
        sep = load_sep_matrix(chain / "pairs.sep")
        assert sep.meta["seed"] == 3
        assert sep.meta["variant"] == "sepgcn"
        assert len(sep.meta["config_hash"]) == 16

    def test_temporal_only_cutoff_is_half_circumference(self, chain, tmp_path, capsys):
        code, out = run(
            ["build-sep", "--snapshot", chain / "snap.txt", "--out", tmp_path / "t.sep",
             "--variant", "sep_temporal_only", *SETTINGS],
            capsys,
        )
        assert code == 0
        cutoff = float(next(l for l in out.splitlines() if l.startswith("cutoff_km")).split("\t")[1])
        assert cutoff == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-6)
        sep = load_sep_matrix(tmp_path / "t.sep")
        assert sep.meta["unit_values"] is True

    def test_spatial_only_drops_slot_constraint(self, chain, tmp_path):
        assert main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                     "--out", str(tmp_path / "s.sep"), "--variant", "sep_spatial_only",
                     *[str(a) for a in SETTINGS]]) == 0
        spatial = load_sep_matrix(tmp_path / "s.sep")
        standard = load_sep_matrix(chain / "pairs.sep")
        assert len(spatial.values) >= len(standard.values)

    def test_spatial_only_builds_within_a_small_pair_budget(self, tmp_path):
        """Every edge shares slot 0 here, and the cutoff covers the city: 5.8 M
        linked pairs, of which the builder lists only each edge's nearest."""
        assert main(["synth", "--out", str(tmp_path / "raw.tsv"), "--users", "200",
                     "--items", "400", "--checkins", "6000", "--seed", "0"]) == 0
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"), "--seed", "0"]) == 0
        assert main(["build-sep", "--snapshot", str(tmp_path / "snap.txt"),
                     "--out", str(tmp_path / "s.sep"), "--variant", "sep_spatial_only",
                     "--seed", "0", "--set", "pruning.max_neighbors=16",
                     "--set", "pruning.pair_budget=100000"]) == 0

    @pytest.mark.parametrize(
        "setting",
        [
            "similarity.sample_budget=-1",
            "similarity.sample_budget=0",
            "similarity.median_km=0",
            "similarity.median_km=-1",
            "similarity.median_km=nan",
            "similarity.median_km=inf",
        ],
    )
    def test_bad_similarity_setting_exits_3(self, chain, tmp_path, capsys, setting):
        code = main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                     "--out", str(tmp_path / "p.sep"), *[str(a) for a in SETTINGS],
                     "--set", setting])
        assert code == 3
        assert setting.split(".")[1].split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "p.sep").exists()

    def test_max_neighbors_beyond_the_edge_count_means_no_cap(self, chain, tmp_path):
        capped = load_sep_matrix(chain / "pairs.sep")
        built = {}
        for cap in ("99999999999999999999", str(capped.n_edges)):
            assert main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                         "--out", str(tmp_path / f"{cap}.sep"), *[str(a) for a in SETTINGS],
                         "--set", f"pruning.max_neighbors={cap}"]) == 0
            built[cap] = load_sep_matrix(tmp_path / f"{cap}.sep")
        huge, every = built.values()
        for f in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(huge, f), getattr(every, f))
        assert huge.nnz > capped.nnz  # the cap of 16 binds on this city

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(["build-sep", "--snapshot", str(tmp_path / "gone.txt"),
                     "--out", str(tmp_path / "p.sep")])
        assert code == 2
        assert "gone.txt" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_echo(self, chain):
        e0, meta = load_checkpoint(chain / "ck.bin")
        ds = load_snapshot(chain / "snap.txt")
        assert e0.shape == (ds.n_users + ds.n_items, 16)
        assert meta["variant"] == "sepgcn"
        assert meta["seed"] == 3
        assert meta["layers"] == 3

    def test_log_has_five_columns(self, chain):
        lines = (chain / "train.log").read_text().splitlines()
        assert lines[0].split("\t") == ["epoch", "loss", "recall@20", "ndcg@20", "wallclock_s"]
        assert all(len(l.split("\t")) == 5 for l in lines[1:])
        assert len(lines) == 3  # epochs 4 and 8

    def test_lightgcn_ignores_matrix_without_reading(self, chain, tmp_path, capsys):
        phantom = tmp_path / "never-written.sep"
        code, out = run(
            ["train", "--snapshot", chain / "snap.txt", "--sep", phantom,
             "--out", tmp_path / "lg.bin", "--variant", "lightgcn", *SETTINGS],
            capsys,
        )
        assert code == 0
        assert "left unread" in out
        assert not phantom.exists()

    def test_requires_matrix_path_for_sep_variant(self, chain, capsys):
        code = main(["train", "--snapshot", str(chain / "snap.txt"),
                     "--out", "x.bin", *[str(a) for a in SETTINGS]])
        assert code == 3
        err = capsys.readouterr().err
        assert "paths.sep" in err and "--sep" in err

    def test_divergent_run_exits_4_but_keeps_checkpoint(self, chain, tmp_path, capsys):
        code = main(["train", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--out", str(tmp_path / "div.bin"),
                     *[str(a) for a in SETTINGS],
                     "--set", "train.optimizer=sgd", "--set", "train.lr=1e30"])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        e0, _ = load_checkpoint(tmp_path / "div.bin")
        assert np.all(np.isfinite(e0))

    def test_divergence_in_the_evaluation_keeps_checkpoint_and_log(self, chain, tmp_path, capsys):
        """One Adam step at lr=1e308 leaves a finite table too large for the
        evaluation's forward pass; the table before that step is kept."""
        ck, log = tmp_path / "ck.bin", tmp_path / "train.log"
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(ck), "--log", str(log), *[str(a) for a in SETTINGS],
                     "--set", "train.lr=1e308", "--set", "train.eval_every=1",
                     "--set", "train.batch_size=1000000"])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert np.all(np.isfinite(load_checkpoint(ck)[0]))
        assert log.read_text() == "epoch\tloss\trecall@20\tndcg@20\twallclock_s\n"
        assert main(["eval", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--checkpoint", str(ck), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]]) == 0

    def test_overflowing_optimizer_step_is_named(self, chain, tmp_path, capsys, recwarn):
        """At lr=1e308 the weight-decay term alone carries the first SGD step
        past the float limit; the table before that step is kept."""
        ck = tmp_path / "ck.bin"
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(ck), *[str(a) for a in SETTINGS],
                     "--set", "train.optimizer=sgd", "--set", "train.lr=1e308",
                     "--set", "train.l2=1e10", "--set", "train.eval_every=1"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "error: training diverged (non-finite values after the optimizer step)"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert np.all(np.isfinite(load_checkpoint(ck)[0]))

    @pytest.mark.parametrize(
        "setting",
        ["train.lr=inf", "train.l2=nan", "train.l2=inf", "model.init_std=nan", "model.init_std=inf"],
    )
    def test_non_finite_setting_exits_3(self, chain, tmp_path, capsys, setting):
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(tmp_path / "ck.bin"), *[str(a) for a in SETTINGS],
                     "--set", setting])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ck.bin").exists()


class TestMatrixOfAnotherRun:
    """A matrix file built with other pair settings than the run's ends train and eval."""

    @pytest.mark.parametrize(
        "built_with, key",
        [
            (["--variant", "sep_temporal_only", "--set", "pruning.max_neighbors=8"], "variant"),
            (["--set", "pruning.max_neighbors=8"], "max_neighbors"),
            (["--set", "pruning.sigma_floor=0.05"], "sigma_floor"),
            (["--set", "similarity.alpha=0.6"], "alpha_sim"),
            (["--seed", "4"], "seed"),
        ],
    )
    def test_exits_3_with_one_error_line(self, chain, tmp_path, capsys, built_with, key):
        other = tmp_path / "other.sep"
        assert main([str(a) for a in ["build-sep", "--snapshot", chain / "snap.txt",
                                      "--out", other, *SETTINGS, *built_with]]) == 0
        common = ["--snapshot", chain / "snap.txt", "--sep", other, *SETTINGS]
        for argv in (
            ["train", *common, "--out", tmp_path / "new.bin"],
            ["eval", *common, "--checkpoint", chain / "ck.bin", "--out", tmp_path / "r"],
        ):
            error = TestBadInputFiles.assert_exits(argv, 3, capsys)
            assert f"edge-pair matrix was built with {key}=" in error
        assert not (tmp_path / "new.bin").exists()
        assert not (tmp_path / "r.tsv").exists()


class TestEval:
    def test_reeval_is_byte_identical(self, chain, tmp_path):
        assert main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "rep"), *[str(a) for a in SETTINGS]]) == 0
        assert (tmp_path / "rep.tsv").read_bytes() == (chain / "rep.tsv").read_bytes()
        assert (tmp_path / "rep.kv").read_bytes() == (chain / "rep.kv").read_bytes()

    def test_report_recall_matches_training_best(self, chain):
        log_best = max(
            float(l.split("\t")[2]) for l in (chain / "train.log").read_text().splitlines()[1:]
        )
        kv = dict(
            l.split(" = ") for l in (chain / "rep.kv").read_text().splitlines() if " = " in l
        )
        assert float(kv["k20.recall"]) == log_best

    def test_dim_mismatch_exits_3(self, chain, tmp_path, capsys):
        code = main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "r"), "--seed", "3",
                     "--set", "split.min_interactions=2", "--set", "model.dim=8"])
        assert code == 3
        assert "dim" in capsys.readouterr().err

    def test_wrong_snapshot_exits_3(self, chain, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "raw2.tsv"), "--users", "30",
                     "--items", "50", "--checkins", "900", "--seed", "9"]) == 0
        assert main(["prepare", "--raw", str(tmp_path / "raw2.tsv"),
                     "--out", str(tmp_path / "snap2.txt"), *[str(a) for a in SETTINGS]]) == 0
        code = main(["eval", "--snapshot", str(tmp_path / "snap2.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "r"), *[str(a) for a in SETTINGS]])
        assert code == 3
        assert "nodes" in capsys.readouterr().err

    def test_overflowing_layer_mean_exits_4(self, chain, tmp_path, capsys, recwarn):
        """Rows along A's eigenvector sqrt(degree), scaled near the float limit:
        every layer repeats them, so each stays finite and only their mean overflows."""
        train = interaction_matrix(load_snapshot(chain / "snap.txt"), "train")
        deg = np.concatenate([train.sum(axis=1).A1, train.sum(axis=0).A1])
        e0 = np.repeat((np.sqrt(deg) / np.sqrt(deg).max() * 1e308)[:, None], 16, axis=1)
        save_checkpoint(e0, {}, tmp_path / "big.bin")
        code = main(["eval", "--snapshot", str(chain / "snap.txt"), "--variant", "lightgcn",
                     "--checkpoint", str(tmp_path / "big.bin"), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values after the layer mean"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "rep.tsv").exists()

    def test_overflowing_ranking_scores_exit_4(self, chain, tmp_path, capsys, recwarn):
        """Rows of normal(0, 1) times 1e200 pass the forward pass, but their dot
        products overflow; ranking them would order infinities by item id."""
        n_nodes = load_checkpoint(chain / "ck.bin")[0].shape[0]
        e0 = np.random.default_rng(0).normal(size=(n_nodes, 16)) * 1e200
        save_checkpoint(e0, {}, tmp_path / "big.bin")
        code = main(["eval", "--snapshot", str(chain / "snap.txt"), "--variant", "lightgcn",
                     "--checkpoint", str(tmp_path / "big.bin"), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values in the ranking scores"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "rep.tsv").exists()

    def test_missing_checkpoint_exits_2(self, chain, tmp_path, capsys):
        gone = tmp_path / "gone.bin"
        code = main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(gone),
                     "--out", str(tmp_path / "r"), *[str(a) for a in SETTINGS]])
        assert code == 2
        assert str(gone) in capsys.readouterr().err

    def test_user_without_test_items_counts_as_excluded(self, tmp_path, capsys):
        """Users a and b share six venues; x's five venues are x's alone, so the
        split promotes all of x's test edges to train and x has nothing to rank."""
        lines = []
        for user, venues in (("a", range(6)), ("b", range(6)), ("x", range(6, 11))):
            lines += [f"{user}\tv{v}\t2024-01-01T{v + 8:02d}:00:00\t40.0\t-74.0" for v in venues]
        (tmp_path / "raw.tsv").write_text("\n".join(lines) + "\n")
        common = ["--seed", "0", "--variant", "lightgcn", "--set", "model.dim=4",
                  "--set", "train.epochs_max=2", "--set", "train.eval_every=1"]
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"), *common]) == 0
        splits = {}
        edges = load_snapshot(tmp_path / "snap.txt").interactions
        for u, test in zip(edges.users.tolist(), edges.is_test.tolist()):
            splits.setdefault(u, set()).add("test" if test else "train")
        assert splits == {0: {"train", "test"}, 1: {"train", "test"}, 2: {"train"}}
        assert main(["train", "--snapshot", str(tmp_path / "snap.txt"),
                     "--out", str(tmp_path / "ck.bin"), *common]) == 0
        capsys.readouterr()
        code, out = run(["eval", "--snapshot", tmp_path / "snap.txt",
                         "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "rep", *common],
                        capsys)
        assert code == 0
        assert "evaluated 2 users (1 excluded)" in out
        assert "n_excluded = 1" in (tmp_path / "rep.kv").read_text()


class TestSweep:
    def test_layers_axis_row_count(self, chain, tmp_path, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers",
             "--values", "1,2", "--out", tmp_path / "sw", *SETTINGS],
            capsys,
        )
        assert code == 0
        table = (tmp_path / "sw.sweep.tsv").read_text().splitlines()
        assert table[0].startswith("# axis=layers")
        assert table[1] == "value\tk\tprecision\trecall\tndcg\taccuracy"
        assert len(table) == 2 + 2 * 2  # two values x two cutoffs
        assert {row.split("\t")[0] for row in table[2:]} == {"1", "2"}

    def test_single_value_sweep_matches_eval(self, chain, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers",
             "--values", "3", *SETTINGS],
            capsys,
        )
        assert code == 0
        kv = dict(
            l.split(" = ") for l in (chain / "rep.kv").read_text().splitlines() if " = " in l
        )
        row20 = next(
            l.split("\t") for l in out.splitlines() if l.startswith("3\t20")
        )
        assert row20[2] == kv["k20.precision"]
        assert row20[3] == kv["k20.recall"]
        assert row20[4] == kv["k20.ndcg"]
        assert row20[5] == kv["k20.accuracy"]

    def test_kcore_axis_changes_dataset(self, chain, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "kcore",
             "--values", "0,10", "--variant", "lightgcn", *SETTINGS,
             "--set", "train.epochs_max=2", "--set", "train.eval_every=0"],
            capsys,
        )
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if l and l[0].isdigit()]
        row0 = next(r for r in rows if r[0] == "0" and r[1] == "20")
        row10 = next(r for r in rows if r[0] == "10" and r[1] == "20")
        assert row0[2:] != row10[2:]

    @pytest.mark.parametrize(
        "axis, values, variant, builds",
        [("alpha", "0.3,0.7", "sepgcn", 1), ("kcore", "0,3", "sepgcn", 2)],
    )
    def test_pair_graph_built_once_per_dataset(
        self, chain, monkeypatch, capsys, axis, values, variant, builds
    ):
        from sepgcn import sep_graph

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_sep_matrix(*args, **kwargs)

        monkeypatch.setattr(sep_graph, "build_sep_matrix", counting)
        code, _ = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", axis, "--values", values,
             "--variant", variant, *SETTINGS,
             "--set", "train.epochs_max=1", "--set", "train.eval_every=0"],
            capsys,
        )
        assert code == 0
        assert len(calls) == builds

    def test_empty_values_exit_3(self, chain, capsys):
        code = main(["sweep", "--snapshot", str(chain / "snap.txt"), "--axis", "layers",
                     "--values", " , ", *[str(a) for a in SETTINGS]])
        assert code == 3


class TestOracleCheck:
    def test_all_pass(self, tmp_path, capsys):
        code, out = run(["oracle-check", "--seed", "7", "--workdir", tmp_path / "oc"], capsys)
        assert code == 0
        verdicts = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(verdicts) == 7
        assert all(v.startswith("PASS") for v in verdicts)

    def test_seed_with_last_bit_distances_passes(self, tmp_path, capsys):
        """At seed 6 a per-pair distance taken on numpy scalars differs in its last bit
        from the array kernel; both builders must still agree entry for entry."""
        code, out = run(["oracle-check", "--seed", "6", "--workdir", tmp_path / "oc"], capsys)
        assert code == 0, out


class TestConfigPrecedence:
    def test_flags_beat_set_beat_file(self, chain, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.dim = 8\nseed = 1\nsplit.min_interactions = 2\n")
        assert main(["train", "--config", str(cfg), "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--out", str(tmp_path / "ck.bin"),
                     "--set", "model.dim=16", "--set", "seed=2", "--seed", "3",
                     "--set", "pruning.max_neighbors=16",
                     "--set", "train.epochs_max=2", "--set", "train.eval_every=0"]) == 0
        _, meta = load_checkpoint(tmp_path / "ck.bin")
        assert meta["dim"] == 16  # --set beats the file
        assert meta["seed"] == 3  # the flag beats --set

    def test_unknown_key_exits_3(self, chain, tmp_path, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", "bogus.key=1"])
        assert code == 3
        assert "bogus.key" in capsys.readouterr().err
        # model.gamma was once an alias for model.alpha and model.beta
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.gamma = 0.3\n")
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--config", str(cfg)])
        assert code == 3
        assert "unknown config key 'model.gamma'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threads=2", "deterministic=true"])
    def test_thread_keys_are_unknown(self, chain, tmp_path, capsys, key):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", key])
        assert code == 3
        assert f"unknown config key {key.split('=')[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--deterministic"]])
    def test_thread_flags_rejected_by_parser(self, chain, tmp_path, flag):
        with pytest.raises(SystemExit):
            main(["prepare", "--raw", str(chain / "raw.tsv"),
                  "--out", str(tmp_path / "s.txt"), *flag])

    def test_bad_split_ratio_exits_3(self, chain, tmp_path, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", "split.train_ratio=1.5"])
        assert code == 3
        assert "train_ratio" in capsys.readouterr().err

    def test_bad_variant_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "nonsense"])


class TestNegativeSeed:
    """A negative seed is a configuration error, caught before any stage reads data."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--raw", "raw.tsv", "--out", "snap.txt", "--seed", "-1"],
            ["build-sep", "--snapshot", "snap.txt", "--out", "pairs.sep", "--seed", "-1"],
            ["train", "--snapshot", "snap.txt", "--sep", "pairs.sep", "--out", "ck.bin",
             "--set", "model.seed=-3"],
            ["eval", "--snapshot", "snap.txt", "--sep", "pairs.sep", "--checkpoint", "ck.bin",
             "--out", "rep", "--seed", "-1"],
            ["synth", "--out", "new.tsv", "--seed", "-1"],
            ["oracle-check", "--workdir", "oc", "--seed", "-1"],
        ],
    )
    def test_exits_3_with_one_error_line(self, chain, tmp_path, capsys, argv):
        inputs = ("raw.tsv", "snap.txt", "pairs.sep", "ck.bin")
        for f in inputs:
            shutil.copy(chain / f, tmp_path / f)
        argv = [str(tmp_path / a) if a in (*inputs, "rep", "new.tsv", "oc") else a for a in argv]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert "seed must be >= 0" in error
        assert not (tmp_path / "new.tsv").exists() and not (tmp_path / "rep.tsv").exists()


class TestNegativeSplitThreshold:
    """A negative k-core or minimum-interaction threshold has no meaning."""

    @pytest.mark.parametrize("setting", ["split.kcore=-1", "split.min_interactions=-3"])
    def test_prepare_exits_3_with_one_error_line(self, chain, tmp_path, capsys, setting):
        argv = ["prepare", "--raw", chain / "raw.tsv", "--out", tmp_path / "snap.txt", "--set", setting]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error == f"error: {setting.replace('=', ' must be >= 0, got ')}"
        assert not (tmp_path / "snap.txt").exists()


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


class TestStageImports:
    """Each stage loads only what it runs; each check starts a fresh interpreter."""

    def test_config_is_a_leaf(self):
        loaded = _modules_after("import sepgcn.config")
        assert {m for m in loaded if m.startswith("sepgcn")} == {
            "sepgcn", "sepgcn.config", "sepgcn.errors"
        }
        assert "numpy" not in loaded

    def test_synth_and_prepare_load_no_scipy(self, tmp_path):
        raw, snap = tmp_path / "raw.tsv", tmp_path / "snap.txt"
        loaded = _modules_after(
            "from sepgcn.cli import main\n"
            f"assert main(['synth', '--out', {str(raw)!r}, '--users', '30', '--items', '60',"
            " '--checkins', '600', '--seed', '2']) == 0\n"
            f"assert main(['prepare', '--raw', {str(raw)!r}, '--out', {str(snap)!r},"
            " '--set', 'split.min_interactions=2']) == 0"
        )
        assert snap.exists()
        assert "sepgcn.cli" in loaded
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
        assert "sepgcn.snapshot_columns" not in loaded  # neither stage reads a snapshot

    def test_eval_loads_no_scipy_special(self, chain, tmp_path):
        argv = ["eval", "--snapshot", chain / "snap.txt", "--sep", chain / "pairs.sep",
                "--checkpoint", chain / "ck.bin", "--out", tmp_path / "rep", *SETTINGS]
        loaded = _modules_after(
            f"from sepgcn.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"
        )
        assert (tmp_path / "rep.tsv").read_bytes() == (chain / "rep.tsv").read_bytes()
        assert "scipy.sparse" in loaded
        assert "scipy.special" not in loaded
        assert "sepgcn.snapshot_columns" in loaded


class TestSynth:
    def test_round_trips_through_prepare(self, tmp_path, capsys):
        code, out = run(
            ["synth", "--out", tmp_path / "raw.tsv", "--users", "20", "--items", "40",
             "--checkins", "600", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "600 check-ins" in out
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"),
                     "--set", "split.min_interactions=2"]) == 0
        ds = load_snapshot(tmp_path / "snap.txt")
        assert ds.n_checkins == 600


def _edit_sep_header(key, value):
    def edit(text):
        head, _, body = text.partition("\n")
        meta = json.loads(head.split(" ", 1)[1])
        meta[key] = value
        return f"SEPMAT1 {json.dumps(meta, sort_keys=True)}\n{body}"

    return edit


def _nan_first_entry(text):
    lines = text.splitlines(keepends=True)
    i, j, _ = lines[1].split("\t")
    lines[1] = f"{i}\t{j}\tnan\n"
    return "".join(lines)


def _checkpoint_header(header):
    def edit(blob):
        magic, _, payload = blob.split(b"\n", 2)
        return magic + b"\n" + header + b"\n" + payload

    return edit


def _snapshot_header(text):
    lines = text.splitlines(keepends=True)
    return "".join([lines[0], "{}\n", *lines[2:]])


# (file to corrupt, edit of its contents)
BAD_INPUTS = {
    "sep-malformed-line": ("pairs.sep", lambda text: text + "garbage line\n"),
    "sep-index-past-n_edges": ("pairs.sep", lambda text: text + "0\t99999999\t0.5\n"),
    "sep-nan-value": ("pairs.sep", _nan_first_entry),
    "sep-storage-full": ("pairs.sep", _edit_sep_header("storage", "full")),
    "sep-normalization-row_unit": ("pairs.sep", _edit_sep_header("normalization", "row_unit")),
    "sep-normalization-raw": ("pairs.sep", _edit_sep_header("normalization", "raw")),
    "snapshot-empty-header": ("snap.txt", _snapshot_header),
    "checkpoint-header-not-json": ("ck.bin", _checkpoint_header(b"not json")),
    "checkpoint-empty-header": ("ck.bin", _checkpoint_header(b"{}")),
    "checkpoint-zero-dim": ("ck.bin", _checkpoint_header(b'{"dim": 0, "n_nodes": 180}')),
    "checkpoint-negative-nodes": ("ck.bin", _checkpoint_header(b'{"dim": 16, "n_nodes": -1}')),
}


class TestBadInputFiles:
    """Each corrupted input file ends the stage with its exit code and one error line."""

    @pytest.mark.parametrize(
        "stage, case",
        [
            (stage, case)
            for case in sorted(BAD_INPUTS)
            for stage in ("train", "eval")
            if stage == "eval" or BAD_INPUTS[case][0] != "ck.bin"  # train reads no checkpoint
        ],
    )
    def test_exit_2_with_one_error_line(self, chain, tmp_path, capsys, stage, case):
        name, edit = BAD_INPUTS[case]
        for f in ("snap.txt", "pairs.sep", "ck.bin"):
            shutil.copy(chain / f, tmp_path / f)
        target = tmp_path / name
        if name == "ck.bin":
            target.write_bytes(edit(target.read_bytes()))
        else:
            target.write_text(edit(target.read_text()))
        common = ["--snapshot", tmp_path / "snap.txt", "--sep", tmp_path / "pairs.sep", *SETTINGS]
        if stage == "train":
            argv = ["train", *common, "--out", tmp_path / "new.bin"]
        else:
            argv = ["eval", *common, "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "r"]
        self.assert_exits(argv, 2, capsys)

    @pytest.mark.parametrize(
        "name, code", [("raw.tsv", 2), ("run.cfg", 3), ("snap.txt", 2), ("pairs.sep", 2)]
    )
    def test_non_utf8_file(self, chain, tmp_path, capsys, name, code):
        for f in ("raw.tsv", "snap.txt", "pairs.sep", "ck.bin"):
            shutil.copy(chain / f, tmp_path / f)
        (tmp_path / "run.cfg").write_text("seed = 3\n")
        with (tmp_path / name).open("ab") as f:
            f.write(b"\xff\xfe\n")
        common = ["--config", tmp_path / "run.cfg", *SETTINGS]
        if name in ("raw.tsv", "run.cfg"):
            argv = ["prepare", "--raw", tmp_path / "raw.tsv", "--out", tmp_path / "s.txt", *common]
        else:
            argv = ["eval", "--snapshot", tmp_path / "snap.txt", "--sep", tmp_path / "pairs.sep",
                    "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "r", *common]
        assert "not UTF-8 text" in self.assert_exits(argv, code, capsys)

    @staticmethod
    def assert_exits(argv, code, capsys):
        """Run a stage; it must end with `code` and one final `error:` line."""
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [err.strip().splitlines()[-1]]
        assert "Traceback" not in err
        return errors[0]
