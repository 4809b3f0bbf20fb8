"""Run configuration: every settings section, flat dotted-key files,
overrides, seeds, fingerprints.

Each stage's settings class lives here, so reading a configuration needs
neither numpy nor scipy, and a stage imports only the modules it runs. Each
setting is declared once, on its field, by setting(); KEYMAP and every
section's validate() come from those declarations. One master seed fans out
to the stages (split, model init, training, median sampling) so a single
integer reproduces a whole run, while any stage seed can still be pinned
individually. The fingerprint covers only behavior-relevant fields — never
paths — so two runs of the same experiment in different directories stamp
identical hashes on their reports.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

EARTH_RADIUS_KM = 6371.0
VARIANTS = ("sepgcn", "lightgcn", "sep_temporal_only", "sep_spatial_only")


def setting(key: str, default, check=None, read=None):
    """The field of the setting a user sets by its dotted key.

    check is a (test, wording) pair: validate() raises
    ConfigError("<key> <wording>, got <value!r>") when test(value) is false.
    read turns the setting's text into its value; it defaults to the type of
    the default.
    """
    return field(default=default, metadata={"key": key, "check": check, "read": read or type(default)})


# conditions a setting's value must meet: (test, wording)
AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
IN_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0,1)")
IN_UNIT = (lambda v: 0 <= v <= 1, "must lie in [0,1]")
FINITE_AT_LEAST_0 = (lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0")
FINITE_ABOVE_0 = (lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")


def one_of(*choices):
    return lambda v: v in choices, f"must be one of {', '.join(choices)}"


def _read_ks(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _read_optional_float(raw: str):
    return None if raw.lower() == "none" else float(raw)


def _error(section, name: str, wording: str) -> ConfigError:
    key = section.__dataclass_fields__[name].metadata["key"]
    return ConfigError(f"{key} {wording}, got {getattr(section, name)!r}")


class _Settings:
    def validate(self) -> None:
        """ConfigError naming the key of the first setting whose condition fails."""
        for f in fields(self):
            check = f.metadata.get("check")
            if check and not check[0](getattr(self, f.name)):
                raise _error(self, f.name, check[1])


@dataclass
class SplitConfig(_Settings):
    train_ratio: float = setting("split.train_ratio", 0.70, IN_OPEN_UNIT)
    seed: int = setting("split.seed", 0, AT_LEAST_0)
    min_interactions: int = setting("split.min_interactions", 5, AT_LEAST_0)
    kcore: int = setting("split.kcore", 0, AT_LEAST_0)


@dataclass
class SimilarityParams(_Settings):
    """Parameters of the distance-decay similarity.

    alpha_sim is the similarity assigned to a pair at exactly the median
    distance; median_km is a derived statistic filled in by
    median_distance(). median_mode selects how that statistic is computed.
    """

    alpha_sim: float = setting("similarity.alpha", 0.5, IN_OPEN_UNIT)
    median_mode: str = setting("similarity.median_mode", "global", one_of("global", "per_user"))
    median_km: float | None = setting(
        "similarity.median_km", None,
        (lambda v: v is None or (math.isfinite(v) and v > 0), "must be none, or finite and > 0"),
        _read_optional_float,
    )
    sample_budget: int = setting("similarity.sample_budget", 1_000_000, AT_LEAST_1)
    earth_radius_km: float = EARTH_RADIUS_KM


@dataclass
class PruningParams(_Settings):
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

    sigma_floor: float = setting("pruning.sigma_floor", 0.01, IN_OPEN_UNIT)
    max_neighbors: int = setting("pruning.max_neighbors", 64, AT_LEAST_1)
    pair_budget: int = setting("pruning.pair_budget", 5_000_000, AT_LEAST_1)

    def validate(self, alpha_sim: float) -> None:
        super().validate()
        if not self.sigma_floor < alpha_sim:
            raise _error(self, "sigma_floor", f"must be < similarity.alpha={alpha_sim!r}")


@dataclass
class ModelConfig(_Settings):
    """Architecture and initialization knobs.

    alpha_user/beta_item weigh how much of a node's embedding survives the
    edge-context update (1.0 = update disabled). sep_update chooses whether
    that update runs after every propagation layer or only after the first.
    """

    dim: int = setting("model.dim", 64, AT_LEAST_1)
    layers: int = setting("model.layers", 3, AT_LEAST_1)
    alpha_user: float = setting("model.alpha", 0.5, IN_UNIT)
    beta_item: float = setting("model.beta", 0.5, IN_UNIT)
    sep_enabled: bool = True
    sep_update: str = setting("model.sep_update", "every_layer", one_of("every_layer", "once"))
    init_std: float = setting("model.init_std", 0.1, FINITE_AT_LEAST_0)
    seed: int = setting("model.seed", 0, AT_LEAST_0)


@dataclass
class TrainConfig(_Settings):
    lr: float = setting("train.lr", 0.001, FINITE_ABOVE_0)
    l2_lambda: float = setting("train.l2", 1e-5, FINITE_AT_LEAST_0)
    epochs_max: int = setting("train.epochs_max", 100, AT_LEAST_0)
    batch_size: int = setting("train.batch_size", 2048, AT_LEAST_1)
    neg_per_pos: int = setting("train.neg_per_pos", 1, AT_LEAST_1)
    eval_every: int = setting("train.eval_every", 5, AT_LEAST_0)  # epochs between evaluations; 0: none
    # evaluations without Recall@20 improvement
    early_stop_patience: int = setting("train.patience", 10, AT_LEAST_1)
    optimizer: str = setting("train.optimizer", "adam", one_of("adam", "sgd"))
    seed: int = setting("train.seed", 0, AT_LEAST_0)


@dataclass
class PathsConfig:
    raw: str | None = setting("paths.raw", None, read=str)
    snapshot: str | None = setting("paths.snapshot", None, read=str)
    sep_matrix: str | None = setting("paths.sep", None, read=str)
    checkpoint: str | None = setting("paths.checkpoint", None, read=str)
    report_prefix: str | None = setting("paths.report_prefix", None, read=str)
    train_log: str | None = setting("paths.train_log", None, read=str)


@dataclass
class RunConfig(_Settings):
    paths: PathsConfig = field(default_factory=PathsConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    pruning: PruningParams = field(default_factory=PruningParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ks: tuple[int, ...] = setting(
        "ks", (5, 20),
        (lambda ks: ks and min(ks) >= 1 and len(set(ks)) == len(ks), "must be distinct cutoffs >= 1"),
        _read_ks,
    )
    variant: str = setting("variant", "sepgcn", one_of(*VARIANTS))
    seed: int = setting("seed", 0, AT_LEAST_0)
    median_seed: int = setting("similarity.seed", 3, AT_LEAST_0)

    def validate(self) -> None:
        super().validate()
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


# dotted key -> (section attribute or None for top level, field, reader)
KEYMAP = {
    f.metadata["key"]: (section, f.name, f.metadata["read"])
    for section, cls in [(None, RunConfig)]
    + [(s.name, s.default_factory) for s in fields(RunConfig) if not s.metadata]
    for f in fields(cls)
    if f.metadata
}

# each stage seed's offset from the master seed, which it follows unless set
STAGE_SEED_OFFSETS = {"split.seed": 0, "model.seed": 1, "train.seed": 2, "similarity.seed": 3}


def set_key(cfg: RunConfig, key: str, raw: str) -> None:
    """Set the field a dotted key names to the value its text spells, unvalidated;
    ConfigError for an unknown key or a text the field's type cannot read."""
    if key not in KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    section, attr, read = KEYMAP[key]
    try:
        value = read(raw)
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
    """Assemble a validated RunConfig; overrides beat the file. Each stage
    seed not set is the master seed plus its STAGE_SEED_OFFSETS entry."""
    pairs = {**(file_pairs or {}), **(override_pairs or {})}
    cfg = RunConfig()
    for key, raw in pairs.items():
        set_key(cfg, key, raw)
    for key, offset in STAGE_SEED_OFFSETS.items():
        if key not in pairs:
            set_key(cfg, key, str(cfg.seed + offset))
    cfg.model.sep_enabled = cfg.variant != "lightgcn"
    cfg.validate()
    return cfg
