"""Run configuration: flat dotted-key files, overrides, seeds, fingerprints.

One master seed fans out to the stages (split, model init, training,
median sampling) so a single integer reproduces a whole run, while any
stage seed can still be pinned individually. The fingerprint covers only
behavior-relevant fields — never paths — so two runs of the same
experiment in different directories stamp identical hashes on their
reports.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import SplitConfig
from .errors import ConfigError
from .geo import SimilarityParams
from .model import ModelConfig
from .sep_graph import PruningParams
from .training import TrainConfig

VARIANTS = ("sepgcn", "lightgcn", "sep_temporal_only", "sep_spatial_only")


@dataclass
class PathsConfig:
    raw: str | None = None
    snapshot: str | None = None
    sep_matrix: str | None = None
    checkpoint: str | None = None
    report_prefix: str | None = None
    train_log: str | None = None


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    pruning: PruningParams = field(default_factory=PruningParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ks: tuple[int, ...] = (5, 20)
    variant: str = "sepgcn"
    seed: int = 0
    median_seed: int = 3

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; choose one of {', '.join(VARIANTS)}"
            )
        if not self.ks:
            raise ConfigError("at least one ranking cutoff k is required")
        if any(k < 1 for k in self.ks):
            raise ConfigError("ranking cutoffs must be >= 1")
        if len(set(self.ks)) != len(self.ks):
            raise ConfigError("ranking cutoffs must be distinct")
        self.split.validate()
        self.similarity.validate()
        self.pruning.validate(self.similarity.alpha_sim)
        self.model.validate()
        self.train.validate()

    def fingerprint(self) -> str:
        """First 16 hex digits of a canonical digest of the run behavior."""
        payload = {
            "variant": self.variant,
            "seed": self.seed,
            "median_seed": self.median_seed,
            "ks": list(self.ks),
            "split": asdict(self.split),
            "similarity": asdict(self.similarity),
            "pruning": asdict(self.pruning),
            "model": asdict(self.model),
            "train": asdict(self.train),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _coerce_ks(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _coerce_optional_float(raw: str):
    return None if raw.lower() == "none" else float(raw)


# dotted key -> (section attribute or None for top level, field, coercion)
KEYMAP = {
    "variant": (None, "variant", str),
    "seed": (None, "seed", int),
    "ks": (None, "ks", _coerce_ks),
    "paths.raw": ("paths", "raw", str),
    "paths.snapshot": ("paths", "snapshot", str),
    "paths.sep": ("paths", "sep_matrix", str),
    "paths.checkpoint": ("paths", "checkpoint", str),
    "paths.report_prefix": ("paths", "report_prefix", str),
    "paths.train_log": ("paths", "train_log", str),
    "split.train_ratio": ("split", "train_ratio", float),
    "split.seed": ("split", "seed", int),
    "split.min_interactions": ("split", "min_interactions", int),
    "split.kcore": ("split", "kcore", int),
    "similarity.alpha": ("similarity", "alpha_sim", float),
    "similarity.median_mode": ("similarity", "median_mode", str),
    "similarity.median_km": ("similarity", "median_km", _coerce_optional_float),
    "similarity.sample_budget": ("similarity", "sample_budget", int),
    "similarity.seed": (None, "median_seed", int),
    "pruning.sigma_floor": ("pruning", "sigma_floor", float),
    "pruning.max_neighbors": ("pruning", "max_neighbors", int),
    "pruning.pair_budget": ("pruning", "pair_budget", int),
    "model.dim": ("model", "dim", int),
    "model.layers": ("model", "layers", int),
    "model.alpha": ("model", "alpha_user", float),
    "model.beta": ("model", "beta_item", float),
    "model.sep_update": ("model", "sep_update", str),
    "model.init_std": ("model", "init_std", float),
    "model.seed": ("model", "seed", int),
    "train.lr": ("train", "lr", float),
    "train.l2": ("train", "l2_lambda", float),
    "train.epochs_max": ("train", "epochs_max", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.neg_per_pos": ("train", "neg_per_pos", int),
    "train.eval_every": ("train", "eval_every", int),
    "train.patience": ("train", "early_stop_patience", int),
    "train.optimizer": ("train", "optimizer", str),
    "train.seed": ("train", "seed", int),
}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def parse_overrides(items) -> dict[str, str]:
    """Turn repeated `--set key=value` arguments into a mapping."""
    pairs: dict[str, str] = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        pairs[key] = value
    return pairs


def build_run_config(
    file_pairs: dict[str, str] | None = None,
    override_pairs: dict[str, str] | None = None,
) -> RunConfig:
    """Assemble a validated RunConfig; overrides beat the file.

    Stage seeds derive from the master seed (split = seed, model = seed+1,
    train = seed+2, median sampling = seed+3) unless set explicitly.
    """
    pairs = {**(file_pairs or {}), **(override_pairs or {})}
    cfg = RunConfig()
    for key, raw in pairs.items():
        if key not in KEYMAP:
            raise ConfigError(f"unknown config key {key!r}")
        section, attr, coerce = KEYMAP[key]
        try:
            value = coerce(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, attr, value)
    if "split.seed" not in pairs:
        cfg.split.seed = cfg.seed
    if "model.seed" not in pairs:
        cfg.model.seed = cfg.seed + 1
    if "train.seed" not in pairs:
        cfg.train.seed = cfg.seed + 2
    if "similarity.seed" not in pairs:
        cfg.median_seed = cfg.seed + 3
    cfg.model.sep_enabled = cfg.variant != "lightgcn"
    cfg.validate()
    return cfg
