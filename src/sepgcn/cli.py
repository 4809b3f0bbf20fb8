"""Command-line pipeline: ingest, pair-graph build, training, reports.

Subcommands cover the full artifact chain; each one is restartable and
reads/writes only through the paths in the run configuration:

- ``prepare``      raw check-in log -> split snapshot + summary table
- ``build-sep``    snapshot -> normalized edge-pair similarity matrix
- ``train``        snapshot (+ matrix) -> embedding checkpoint
- ``eval``         checkpoint -> ranking report (TSV and key=value)
- ``sweep``        train/eval across one axis, combined table
- ``synth``        generate a synthetic check-in log

Each subcommand imports the modules it runs, the scipy-backed ones
(evaluate, graph, model, sep_graph, training) included, when it is called,
so ``synth`` and ``prepare`` start without scipy.

Exit codes: 0 success, 2 input data problem (a file that cannot be read or
written included), 3 configuration problem (a setting too large for memory
included), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import logging
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .config import (
    VARIANTS,
    PathsConfig,
    RunConfig,
    SimilarityParams,
    build_run_config,
    load_config_file,
    parse_overrides,
    set_key,
)
from .data import (
    Checkins,
    build_dataset,
    dataset_stats,
    load_snapshot,
    parse_checkins,
    save_snapshot,
)
from .errors import ConfigError, InputDataError, NumericalError, written
from .geo import median_distance, sigma_cutoff_km
from .synthetic import SyntheticConfig, generate_city, write_raw

if TYPE_CHECKING:
    from .sep_graph import EdgeIndex, SepMatrix

logger = logging.getLogger("sepgcn.cli")


# ---------------------------------------------------------------------------
# configuration plumbing


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, --set overrides, and dedicated flags (flags win).

    Each path flag stores under its PathsConfig field's name, so a path
    given as a flag replaces that setting from --set or the file.
    """
    file_pairs = load_config_file(args.config) if args.config else {}
    overrides = parse_overrides(args.set)
    for key in ("variant", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)

    cfg = build_run_config(file_pairs, overrides)
    for field in dataclasses.fields(PathsConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg.paths, field.name, value)
    return cfg


def _require_path(value: str | None, key: str, flag: str) -> str:
    if value is None:
        raise ConfigError(f"no path configured for {key}; set it in the config or pass {flag}")
    return value


def _load_run_snapshot(cfg: RunConfig):
    """The snapshot named by the run's paths.snapshot, made with the run's split settings."""
    ds = load_snapshot(_require_path(cfg.paths.snapshot, "paths.snapshot", "--snapshot"))
    made, run = ({f"split.{k}": v for k, v in dataclasses.asdict(s).items()} for s in (ds.split, cfg.split))
    _check_made_with(made, "snapshot was made", "; rerun prepare", **run)
    return ds


# ---------------------------------------------------------------------------
# variant plumbing for the edge-pair graph


def _sep_params(cfg: RunConfig, ds) -> SimilarityParams:
    """Similarity parameters for the configured variant.

    The temporal-only variant places every edge at one point (see
    _variant_index), so no median is measured; its stand-in median puts the
    cutoff at half the great circle, which the header and the printed
    cutoff_km record.
    """
    params = dataclasses.replace(cfg.similarity)
    if cfg.variant == "sep_temporal_only":
        pi_r = math.pi * params.earth_radius_km
        params.median_km = pi_r * math.log(params.alpha_sim) / math.log(cfg.pruning.sigma_floor)
        return params
    if params.median_km is None:
        params.median_km = median_distance(
            ds, params.median_mode, params.sample_budget, cfg.median_seed
        )
    return params


def _variant_index(cfg: RunConfig, index: EdgeIndex) -> EdgeIndex:
    """The index the pair builder sees: spatial-only runs put every edge in one
    time slot; time-only runs put every edge at one point, so each slot-sharing
    pair weighs sigma(0) = 1.0 and the neighbour cap keeps links by id alone."""
    n = index.n_edges
    if cfg.variant == "sep_spatial_only":
        return dataclasses.replace(index, slot_ptr=np.arange(n + 1), slot_vals=np.zeros(n, np.int64))
    if cfg.variant == "sep_temporal_only":
        return dataclasses.replace(index, lat=np.zeros(n), lon=np.zeros(n))
    return index


def _sep_settings(cfg: RunConfig) -> dict:
    """The settings a .sep file records and a run must match to read it. The
    temporal-only variant takes no median (see _sep_params); the others record
    similarity.median_km as set_median_km, None when measured, and a measured
    median's settings."""
    settings = dict(variant=cfg.variant, seed=cfg.seed, max_neighbors=cfg.pruning.max_neighbors,
                    sigma_floor=cfg.pruning.sigma_floor, alpha_sim=cfg.similarity.alpha_sim)
    if cfg.variant == "sep_temporal_only":
        return settings
    settings.update(set_median_km=cfg.similarity.median_km)
    if cfg.similarity.median_km is None:
        settings.update(median_mode=cfg.similarity.median_mode,
                        sample_budget=cfg.similarity.sample_budget, median_seed=cfg.median_seed)
    return settings


def _build_sep(cfg: RunConfig, ds, index: EdgeIndex) -> SepMatrix:
    from .sep_graph import build_sep_matrix, normalize_sep

    params = _sep_params(cfg, ds)
    raw = build_sep_matrix(_variant_index(cfg, index), params, cfg.pruning)
    raw.meta.update(_sep_settings(cfg), config_hash=cfg.fingerprint(), median_km=params.median_km)
    return normalize_sep(raw)


def _model_inputs(cfg: RunConfig, ds, build: bool = False):
    """Adjacency, edge-pair matrix and edge index of one dataset.

    The matrix is the run's build-sep file, checked against the snapshot and
    the settings, or with build it is built in memory. Nothing here reads the
    model or training settings, so a sweep over those reuses one result for
    every value.
    """
    from .graph import build_adjacency
    from .sep_graph import EdgeIndex, load_sep_matrix

    graph = build_adjacency(ds)
    if not cfg.model.sep_enabled:
        return graph, None, None
    if build:
        index = EdgeIndex.from_dataset(ds)
        return graph, _build_sep(cfg, ds, index), index
    path = _require_path(cfg.paths.sep_matrix, "paths.sep", "--sep")
    sep = load_sep_matrix(path)
    index = EdgeIndex.from_dataset(ds)
    if sep.n_edges != index.n_edges:
        raise ConfigError(
            f"edge-pair matrix covers {sep.n_edges} edges but the snapshot "
            f"yields {index.n_edges}; rebuild it from this snapshot"
        )
    _check_made_with(
        sep.meta, "edge-pair matrix was built", "; rebuild it with build-sep", **_sep_settings(cfg)
    )
    return graph, sep, index


def _check_made_with(meta: dict, made: str, advice: str = "", **settings) -> None:
    """ConfigError at the first of settings that meta records with another
    value; made says how the file was made, and advice ends the message."""
    for key, configured in settings.items():
        if key in meta and meta[key] != configured:
            raise ConfigError(
                f"{made} with {key}={meta[key]!r} but the run "
                f"is configured for {key}={configured!r}{advice}"
            )


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    raw_path = _require_path(cfg.paths.raw, "paths.raw", "--raw")
    out = _require_path(cfg.paths.snapshot, "paths.snapshot", "--out")
    checkins, rejects = parse_checkins(raw_path)
    if rejects:
        logger.warning("rejected %d malformed line(s); first: line %d: %s", len(rejects), *rejects[0])
    ds = build_dataset(checkins, cfg.split)
    save_snapshot(ds, out)
    stats = dataset_stats(ds)
    print("users\titems\tcheckins\tinteractions\tdensity_pct")
    print(
        f"{stats['n_users']}\t{stats['n_items']}\t{stats['n_checkins']}"
        f"\t{stats['n_interactions']}\t{stats['density_pct']:.4f}"
    )
    print(f"snapshot written to {out}")
    return 0


def cmd_build_sep(args: argparse.Namespace) -> int:
    from .sep_graph import EdgeIndex, save_sep_matrix

    cfg = _resolve_config(args)
    out = _require_path(cfg.paths.sep_matrix, "paths.sep", "--out")
    ds = _load_run_snapshot(cfg)
    sep = _build_sep(cfg, ds, EdgeIndex.from_dataset(ds))
    save_sep_matrix(sep, out)

    median_km = float(sep.meta["median_km"])
    cutoff = sigma_cutoff_km(
        SimilarityParams(alpha_sim=sep.meta["alpha_sim"], median_km=median_km),
        sep.meta["sigma_floor"],
    )
    print(f"edges\t{sep.n_edges}")
    print(f"entries\t{sep.nnz}")
    print(f"linked_edges\t{np.count_nonzero(sep.active_edges())}")
    print(f"median_km\t{median_km!r}")
    print(f"cutoff_km\t{float(cutoff)!r}")
    print(f"matrix written to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .evaluate import make_ranking_hook
    from .model import save_checkpoint
    from .training import train

    cfg = _resolve_config(args)
    out = _require_path(cfg.paths.checkpoint, "paths.checkpoint", "--out")
    ds = _load_run_snapshot(cfg)
    graph, sep, index = _model_inputs(cfg, ds)
    if sep is None and cfg.paths.sep_matrix:
        print(
            f"variant={cfg.variant} does not use the edge-pair matrix; "
            f"{cfg.paths.sep_matrix} left unread"
        )

    hook = make_ranking_hook(ds)
    result = train(
        ds, graph, sep, index, cfg.model, cfg.train, hook, log_path=cfg.paths.train_log
    )
    echo = {"config_hash": cfg.fingerprint(), "seed": cfg.seed, **_trained_settings(cfg)}
    save_checkpoint(result.e0, echo, out)
    if math.isfinite(result.best_recall):
        print(
            f"best recall@20 {result.best_recall!r} at epoch {result.best_epoch} "
            f"({result.epochs_run} epochs run)"
        )
    else:
        print(f"{result.epochs_run} epochs run (no ranking evaluation)")
    print(f"checkpoint written to {out}")
    if cfg.paths.train_log:
        print(f"training log written to {cfg.paths.train_log}")
    if result.diverged:
        raise NumericalError(
            f"training diverged ({result.divergence_reason}); "
            f"last usable checkpoint kept at {out}"
        )
    return 0


def _trained_settings(cfg: RunConfig) -> dict:
    """The settings a checkpoint records and a run must match to evaluate it."""
    return dict(variant=cfg.variant, layers=cfg.model.layers, alpha_user=cfg.model.alpha_user,
                beta_item=cfg.model.beta_item, sep_update=cfg.model.sep_update)


def _evaluate_checkpoint(cfg: RunConfig, ds, e0: np.ndarray, meta: dict):
    """Compatibility checks of a checkpoint against the run, then its report."""
    n_nodes = ds.n_users + ds.n_items
    if meta["dim"] != cfg.model.dim:
        raise ConfigError(
            f"checkpoint stores dim={meta['dim']} but the run is configured "
            f"for dim={cfg.model.dim}"
        )
    if meta["n_nodes"] != n_nodes:
        raise ConfigError(
            f"checkpoint covers {meta['n_nodes']} nodes but the snapshot "
            f"yields {n_nodes}; it was trained on different data"
        )
    _check_made_with(meta, "checkpoint was trained", **_trained_settings(cfg))
    return _report(cfg, ds, *_model_inputs(cfg, ds), e0)


def _report(cfg: RunConfig, ds, graph, sep, index, e0: np.ndarray):
    """The evaluation core of eval and sweep: forward pass, then the ranking report."""
    from .evaluate import evaluate_model
    from .graph import interaction_matrix
    from .model import forward

    return evaluate_model(
        forward(cfg.model, graph, sep, index, e0).e_star,
        interaction_matrix(ds, "train"),
        interaction_matrix(ds, "test"),
        ks=cfg.ks,
        seed=cfg.seed,
        config_hash=cfg.fingerprint(),
    )


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import METRIC_NAMES, write_report_kv, write_report_tsv
    from .model import load_checkpoint

    cfg = _resolve_config(args)
    cp = _require_path(cfg.paths.checkpoint, "paths.checkpoint", "--checkpoint")
    prefix = _require_path(cfg.paths.report_prefix, "paths.report_prefix", "--out")
    ds = _load_run_snapshot(cfg)
    e0, meta = load_checkpoint(cp)
    report = _evaluate_checkpoint(cfg, ds, e0, meta)

    tsv_path, kv_path = f"{prefix}.tsv", f"{prefix}.kv"
    write_report_tsv(report, tsv_path)
    write_report_kv(report, kv_path)
    for k in report.ks:
        cells = (f"{name}={getattr(report.blocks[k], name)!r}" for name in METRIC_NAMES)
        print(f"k={k}\t" + "\t".join(cells))
    print(f"evaluated {report.n_evaluated_users} users ({report.n_excluded_users} excluded)")
    print(f"reports written to {tsv_path} and {kv_path}")
    return 0


# each sweep axis and the setting it varies
SWEEP_AXES = {
    "layers": "model.layers", "alpha": "model.alpha", "beta": "model.beta", "kcore": "split.kcore"
}


def _checkins_from_dataset(ds) -> Checkins:
    """The dataset's check-ins as columns, edge by edge, each at its item's coordinates."""
    edges = ds.interactions
    per_edge = np.diff(edges.slot_ptr)
    items = np.repeat(edges.items, per_edge)
    return Checkins(
        users=np.repeat(edges.users, per_edge),
        items=items,
        slots=edges.slot_vals,
        lat=ds.item_lat[items],
        lon=ds.item_lon[items],
        user_ids=ds.user_ids,
        item_ids=ds.item_ids,
    )


def _apply_axis(cfg: RunConfig, axis: str, value: str) -> RunConfig:
    cfg = copy.deepcopy(cfg)
    set_key(cfg, SWEEP_AXES[axis], value)
    cfg.validate()
    return cfg


def cmd_sweep(args: argparse.Namespace) -> int:
    """Train and evaluate in memory for each value of one axis."""
    from .evaluate import METRIC_NAMES, make_ranking_hook, metric_cells
    from .training import train

    cfg = _resolve_config(args)
    ds = _load_run_snapshot(cfg)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value in --values")

    base_checkins = _checkins_from_dataset(ds) if args.axis == "kcore" else None

    lines = [
        f"# axis={args.axis}\tconfig_hash={cfg.fingerprint()}\tseed={cfg.seed}"
        f"\tvariant={cfg.variant}\tn_values={len(values)}",
        "value\tk\t" + "\t".join(METRIC_NAMES),
    ]
    inputs = None
    for value in values:
        run_cfg = _apply_axis(cfg, args.axis, value)
        if args.axis == "kcore":
            ds = build_dataset(base_checkins, run_cfg.split)
        if inputs is None or args.axis == "kcore":
            inputs = _model_inputs(run_cfg, ds, build=True)
        result = train(ds, *inputs, run_cfg.model, run_cfg.train, make_ranking_hook(ds))
        if result.diverged:
            raise NumericalError(
                f"training diverged at {args.axis}={value} ({result.divergence_reason}); no table written"
            )
        report = _report(run_cfg, ds, *inputs, result.e0)
        lines += [f"{value}\t{k}\t{metric_cells(report.blocks[k])}" for k in report.ks]

    table = "\n".join(lines) + "\n"
    print(table, end="")
    out = cfg.paths.report_prefix
    if out:
        out_path = f"{out}.sweep.tsv" if not out.endswith(".tsv") else out
        with written(out_path, "sweep table") as f:
            f.write(table)
        print(f"sweep table written to {out_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        n_users=args.users,
        n_items=args.items,
        n_checkins=args.checkins,
        seed=SyntheticConfig.seed if args.seed is None else args.seed,
    )
    write_raw(generate_city(cfg), args.out)
    print(
        f"wrote {cfg.n_checkins} check-ins "
        f"({cfg.n_users} users, {cfg.n_items} items) to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    """The sepgcn parser. Each path flag stores under the name of the
    PathsConfig field it sets; synth's --out is the one path that is no
    run setting."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="master seed (fans out to split/model/train)")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    g = common.add_argument_group("run configuration")
    g.add_argument("--config", metavar="FILE", help="key = value configuration file")
    g.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable; beats the file)",
    )
    g.add_argument("--variant", choices=VARIANTS, help="model variant")

    parser = argparse.ArgumentParser(
        prog="sepgcn",
        description="Check-in recommendation pipeline with edge-pair propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "prepare", parents=[common], help="ingest a raw check-in log and write a snapshot"
    )
    p.add_argument("--raw", help="raw TSV (user, item, ISO timestamp, lat, lon)")
    p.add_argument("--out", dest="snapshot", help="snapshot path to write")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser(
        "build-sep", parents=[common], help="build the edge-pair similarity matrix"
    )
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--out", dest="sep_matrix", help="matrix path to write")
    p.set_defaults(func=cmd_build_sep)

    p = sub.add_parser("train", parents=[common], help="train and write a checkpoint")
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--sep", dest="sep_matrix", help="edge-pair matrix produced by build-sep")
    p.add_argument("--out", dest="checkpoint", help="checkpoint path to write")
    p.add_argument("--log", dest="train_log", help="per-epoch training log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="rank and write metric reports")
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--sep", dest="sep_matrix", help="edge-pair matrix (needed for edge-update variants)")
    p.add_argument("--checkpoint", help="checkpoint produced by train")
    p.add_argument(
        "--out", dest="report_prefix", help="report prefix; writes <prefix>.tsv and <prefix>.kv"
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep", parents=[common], help="train/eval across one axis and tabulate"
    )
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES, help="what to vary")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", dest="report_prefix", help="combined table path (or prefix)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic check-in log")
    p.add_argument("--out", required=True, help="raw TSV path to write")
    defaults = SyntheticConfig()
    p.add_argument("--users", type=int, default=defaults.n_users, help="number of users")
    p.add_argument("--items", type=int, default=defaults.n_items, help="number of items")
    p.add_argument("--checkins", type=int, default=defaults.n_checkins, help="number of check-ins")
    p.set_defaults(func=cmd_synth)

    return parser


# the exit code of each error a stage may end with; the first match counts
EXIT_CODES = {
    InputDataError: 2,
    ConfigError: 3,
    NumericalError: 4,
    OSError: 2,  # a path that cannot be read or written
    MemoryError: 3,  # a setting too large for this host
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        reason = str(exc)
        if isinstance(exc, MemoryError):
            reason = reason or "a setting asks for more memory than this host can give"
            reason = f"out of memory: {reason}"
        print(f"error: {reason}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
