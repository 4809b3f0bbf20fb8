"""Run configuration: every settings section, flat dotted-key files,
overrides, seeds, fingerprints.

Each stage's settings class lives here, so reading a configuration needs
neither numpy nor scipy, and a stage imports only the modules it runs.
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
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

EARTH_RADIUS_KM = 6371.0
VARIANTS = ("sepgcn", "lightgcn", "sep_temporal_only", "sep_spatial_only")


@dataclass
class SplitConfig:
    train_ratio: float = 0.70
    seed: int = 0
    min_interactions: int = 5
    kcore: int = 0

    def validate(self) -> None:
        if not (0.0 < self.train_ratio < 1.0):
            raise ConfigError(f"train_ratio must lie in (0,1), got {self.train_ratio}")
        for key in ("min_interactions", "kcore"):
            if getattr(self, key) < 0:
                raise ConfigError(f"split.{key} must be >= 0, got {getattr(self, key)}")


@dataclass
class SimilarityParams:
    """Parameters of the distance-decay similarity.

    alpha_sim is the similarity assigned to a pair at exactly the median
    distance; median_km is a derived statistic filled in by
    median_distance(). median_mode selects how that statistic is computed.
    """

    alpha_sim: float = 0.5
    median_mode: str = "global"  # "global" | "per_user"
    median_km: float | None = None
    sample_budget: int = 1_000_000
    earth_radius_km: float = EARTH_RADIUS_KM

    def validate(self) -> None:
        if not (0.0 < self.alpha_sim < 1.0):
            raise ConfigError(f"alpha_sim must lie in (0,1), got {self.alpha_sim}")
        if self.median_mode not in ("global", "per_user"):
            raise ConfigError(f"unknown median_mode {self.median_mode!r}")
        if self.sample_budget < 1:
            raise ConfigError(f"sample_budget must be >= 1, got {self.sample_budget}")
        if self.median_km is not None and not (math.isfinite(self.median_km) and self.median_km > 0):
            raise ConfigError(f"median_km must be finite and > 0, got {self.median_km}")


@dataclass
class PruningParams:
    """Knobs that keep the edge-pair graph sparse.

    sigma_floor induces the distance cutoff (the radius where the
    similarity decays to the floor); max_neighbors caps each edge's
    retained links at the strongest ones, and a value of at least the edge
    count keeps every link; pair_budget caps the superset entries, the
    (edge, neighbour) entries that candidate generation lists per slot,
    about max_neighbors + 1 per edge and slot however many edges share a
    venue, counted before any pair is listed, so an instance too large for
    the budget stops with a ConfigError before it exhausts memory.
    """

    sigma_floor: float = 0.01
    max_neighbors: int = 64
    pair_budget: int = 5_000_000

    def validate(self, alpha_sim: float) -> None:
        if not (0.0 < self.sigma_floor < alpha_sim):
            raise ConfigError(
                f"sigma_floor must lie in (0, alpha_sim={alpha_sim}), got {self.sigma_floor}"
            )
        if self.max_neighbors < 1:
            raise ConfigError(f"max_neighbors must be >= 1, got {self.max_neighbors}")
        if self.pair_budget < 1:
            raise ConfigError(f"pair_budget must be >= 1, got {self.pair_budget}")


@dataclass
class ModelConfig:
    """Architecture and initialization knobs.

    alpha_user/beta_item weigh how much of a node's embedding survives the
    edge-context update (1.0 = update disabled). sep_update chooses whether
    that update runs after every propagation layer or only after the first.
    """

    dim: int = 64
    layers: int = 3
    alpha_user: float = 0.5
    beta_item: float = 0.5
    sep_enabled: bool = True
    sep_update: str = "every_layer"
    init_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        for name, w in (("alpha_user", self.alpha_user), ("beta_item", self.beta_item)):
            if not (0.0 <= w <= 1.0):
                raise ConfigError(f"{name} must lie in [0,1], got {w}")
        if not (math.isfinite(self.init_std) and self.init_std >= 0):
            raise ConfigError(f"init_std must be finite and >= 0, got {self.init_std}")
        if self.sep_update not in ("every_layer", "once"):
            raise ConfigError(f"unknown sep_update mode {self.sep_update!r}")


@dataclass
class TrainConfig:
    lr: float = 0.001
    l2_lambda: float = 1e-5
    epochs_max: int = 100
    batch_size: int = 2048
    neg_per_pos: int = 1
    eval_every: int = 5  # epochs between evaluations; 0 disables them
    early_stop_patience: int = 10  # evaluations without Recall@20 improvement
    optimizer: str = "adam"
    seed: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ConfigError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if self.epochs_max < 0:
            raise ConfigError(f"epochs_max must be >= 0, got {self.epochs_max}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.neg_per_pos < 1:
            raise ConfigError(f"neg_per_pos must be >= 1, got {self.neg_per_pos}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.early_stop_patience < 1:
            raise ConfigError(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


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
        for key, seed in (
            ("seed", self.seed),
            ("split.seed", self.split.seed),
            ("model.seed", self.model.seed),
            ("train.seed", self.train.seed),
            ("similarity.seed", self.median_seed),
        ):
            if seed < 0:
                raise ConfigError(f"{key} must be >= 0, got {seed}")
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


def set_key(cfg: RunConfig, key: str, raw: str) -> None:
    """Set the field a dotted key names to the value its text spells, unvalidated;
    ConfigError for an unknown key or a text the field's type cannot read."""
    if key not in KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    section, attr, coerce = KEYMAP[key]
    try:
        value = coerce(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None
    setattr(cfg if section is None else getattr(cfg, section), attr, value)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read ({exc.strerror})") from None
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
        set_key(cfg, key, raw)
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
