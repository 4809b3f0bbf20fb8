"""Config parsing, override precedence, seed fan-out, and fingerprints."""
from __future__ import annotations

import pytest

from sepgcn.config import (
    KEYMAP,
    RunConfig,
    build_run_config,
    load_config_file,
    parse_overrides,
)
from sepgcn.errors import ConfigError


class TestLoadFile:
    def test_parses_comments_blanks_and_spacing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# an experiment\n"
            "\n"
            "variant = lightgcn\n"
            "model.dim=48   # inline comment\n"
            "  train.lr =  0.005\n"
        )
        pairs = load_config_file(path)
        assert pairs == {"variant": "lightgcn", "model.dim": "48", "train.lr": "0.005"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "absent.cfg")


class TestOverrides:
    def test_parse_set_arguments(self):
        pairs = parse_overrides(["model.dim=16", "train.lr=0.1"])
        assert pairs == {"model.dim": "16", "train.lr": "0.1"}

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["model.dim"])

    def test_overrides_beat_file(self):
        cfg = build_run_config({"model.dim": "32"}, {"model.dim": "64"})
        assert cfg.model.dim == 64


class TestBuild:
    def test_defaults(self):
        cfg = build_run_config()
        assert cfg.variant == "sepgcn"
        assert cfg.model.sep_enabled
        assert cfg.ks == (5, 20)
        assert cfg.similarity.alpha_sim == 0.5
        assert cfg.pruning.sigma_floor == 0.01

    def test_every_mapped_key_is_settable(self):
        samples = {
            "variant": "lightgcn",
            "seed": "4",
            "ks": "5,10,20",
            "similarity.median_mode": "per_user",
            "similarity.median_km": "12.5",
            "model.sep_update": "once",
            "train.optimizer": "sgd",
        }
        filled = {}
        for key in KEYMAP:
            if key.startswith("paths."):
                filled[key] = "some/where"
            else:
                filled.setdefault(key, samples.get(key, "1"))
        filled["split.train_ratio"] = "0.8"
        filled["similarity.alpha"] = "0.5"
        filled["pruning.sigma_floor"] = "0.01"
        filled["model.alpha"] = "0.4"
        filled["model.beta"] = "0.6"
        filled["model.init_std"] = "0.1"
        filled["train.lr"] = "0.01"
        filled["train.l2"] = "1e-5"
        filled["similarity.sample_budget"] = "1000"
        filled["pruning.pair_budget"] = "100000"
        cfg = build_run_config(filled)
        assert cfg.variant == "lightgcn"
        assert cfg.ks == (5, 10, 20)
        assert cfg.similarity.median_km == 12.5
        assert cfg.paths.sep_matrix == "some/where"
        assert cfg.train.optimizer == "sgd"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="model.dims"):
            build_run_config({"model.dims": "32"})
        with pytest.raises(ConfigError, match="unknown config key 'model.gamma'"):
            build_run_config({"model.gamma": "0.3"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="model.dim"):
            build_run_config({"model.dim": "thirty"})

    def test_none_coercion(self):
        cfg = build_run_config({"similarity.median_km": "none"})
        assert cfg.similarity.median_km is None

    def test_single_k(self):
        cfg = build_run_config({"ks": "10"})
        assert cfg.ks == (10,)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha_user"):
            build_run_config({"model.alpha": "1.2"})

    def test_variant_drives_sep_enabled(self):
        assert build_run_config({"variant": "lightgcn"}).model.sep_enabled is False
        assert build_run_config({"variant": "sep_temporal_only"}).model.sep_enabled is True

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            build_run_config({"variant": "gcn"})

    def test_invalid_downstream_value_caught_by_validate(self):
        with pytest.raises(ConfigError, match="train_ratio"):
            build_run_config({"split.train_ratio": "1.5"})
        with pytest.raises(ConfigError):
            build_run_config({"ks": "5,5"})
        with pytest.raises(ConfigError):
            build_run_config({"model.layers": "0"})


class TestSeedDerivation:
    def test_stage_seeds_fan_out_from_master(self):
        cfg = build_run_config({"seed": "7"})
        assert cfg.split.seed == 7
        assert cfg.model.seed == 8
        assert cfg.train.seed == 9
        assert cfg.median_seed == 10

    def test_explicit_stage_seed_wins(self):
        cfg = build_run_config({"seed": "7", "train.seed": "99"})
        assert cfg.train.seed == 99
        assert cfg.model.seed == 8

    def test_explicit_median_seed(self):
        cfg = build_run_config({"seed": "7", "similarity.seed": "123"})
        assert cfg.median_seed == 123


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = build_run_config({"seed": "3"})
        b = build_run_config({"seed": "3"})
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 16
        c = build_run_config({"seed": "3", "model.dim": "48"})
        assert c.fingerprint() != a.fingerprint()

    def test_paths_do_not_affect_hash(self):
        a = build_run_config({"seed": "3"})
        b = build_run_config({"seed": "3", "paths.snapshot": "/tmp/x", "paths.raw": "r.tsv"})
        assert a.fingerprint() == b.fingerprint()

    def test_default_hashes_are_pinned(self):
        """Every artifact header carries this digest, so moving or renaming a
        settings field must leave it as it is."""
        assert build_run_config().fingerprint() == "42f7542f23a7ab07"
        lightgcn = build_run_config({"seed": "1", "variant": "lightgcn"})
        assert lightgcn.fingerprint() == "b1c35aae026fa5a5"

    def test_variant_and_ks_affect_hash(self):
        a = build_run_config({})
        b = build_run_config({"variant": "lightgcn"})
        c = build_run_config({"ks": "5"})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


class TestRunConfigValidate:
    @pytest.mark.parametrize(
        "key", ["seed", "split.seed", "model.seed", "train.seed", "similarity.seed"]
    )
    def test_negative_seed(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -1$"):
            build_run_config({key: "-1"})

    @pytest.mark.parametrize("key, value", [("split.kcore", "-1"), ("split.min_interactions", "-3")])
    def test_negative_split_threshold(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got {value}$"):
            build_run_config({key: value})

    def test_zero_split_thresholds_keep_their_hash(self):
        cfg = build_run_config({"split.kcore": "0", "split.min_interactions": "0"})
        assert cfg.fingerprint() == build_run_config({"split.min_interactions": "0"}).fingerprint()
        assert build_run_config({"split.kcore": "0"}).fingerprint() == "42f7542f23a7ab07"

    def test_empty_ks(self):
        cfg = RunConfig()
        cfg.ks = ()
        with pytest.raises(ConfigError, match="cutoff"):
            cfg.validate()
