"""Command-line pipeline: ingest, pair-graph build, training, reports.

Subcommands cover the full artifact chain; each one is restartable and
reads/writes only through the paths in the run configuration:

- ``prepare``      raw check-in log -> split snapshot + summary table
- ``build-sep``    snapshot -> normalized edge-pair similarity matrix
- ``train``        snapshot (+ matrix) -> embedding checkpoint
- ``eval``         checkpoint -> ranking report (TSV and key=value)
- ``sweep``        train/eval across one axis, combined table
- ``oracle-check`` end-to-end self test on a small generated city
- ``synth``        generate a synthetic check-in log

Each subcommand imports the modules it runs, the scipy-backed ones
(evaluate, graph, model, sep_graph, training) included, when it is called,
so ``synth`` and ``prepare`` start without scipy.

Exit codes: 0 success, 2 input data problem, 3 configuration problem,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import logging
import math
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import (
    VARIANTS,
    RunConfig,
    SimilarityParams,
    SplitConfig,
    build_run_config,
    load_config_file,
    parse_overrides,
)
from .data import (
    CheckinRecord,
    build_dataset,
    dataset_stats,
    load_snapshot,
    parse_checkins,
    save_snapshot,
)
from .errors import ConfigError, InputDataError, NumericalError
from .geo import median_distance, sigma_cutoff_km
from .synthetic import SyntheticConfig, generate_city, write_raw

if TYPE_CHECKING:
    from .sep_graph import EdgeIndex, SepMatrix

logger = logging.getLogger("sepgcn.cli")


# ---------------------------------------------------------------------------
# configuration plumbing


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, --set overrides, and dedicated flags (flags win)."""
    file_pairs = load_config_file(args.config) if args.config else {}
    overrides = parse_overrides(args.set)
    for key in ("variant", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)

    cfg = build_run_config(file_pairs, overrides)

    # dedicated path flags outrank --set, which outranks the file
    for attr, field_name in (
        ("raw", "raw"),
        ("snapshot", "snapshot"),
        ("sep", "sep_matrix"),
        ("checkpoint", "checkpoint"),
        ("log", "train_log"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg.paths, field_name, value)
    return cfg


def _require_path(value: str | None, key: str, flag: str) -> str:
    if value is None:
        raise ConfigError(f"no path configured for {key}; set it in the config or pass {flag}")
    return value


def _existing(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"{what} not found: {p}")
    return p


def _load_run_snapshot(cfg: RunConfig):
    """The snapshot named by the run's paths.snapshot."""
    path = _require_path(cfg.paths.snapshot, "paths.snapshot", "--snapshot")
    return load_snapshot(_existing(path, "snapshot"))


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
        med = median_distance(ds, params.median_mode, params.sample_budget, cfg.median_seed)
        if params.median_mode == "per_user":
            global_med, per_user = med
            # collapse to a scalar scale: the median of the user medians
            values = list(per_user.values())
            params.median_km = float(np.median(values)) if values else float(global_med)
        else:
            params.median_km = float(med)
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


def _build_sep(cfg: RunConfig, ds, index: EdgeIndex, brute: bool = False) -> SepMatrix:
    from .sep_graph import build_sep_matrix, build_sep_matrix_bruteforce, normalize_sep

    builder = build_sep_matrix_bruteforce if brute else build_sep_matrix
    raw = builder(_variant_index(cfg, index), _sep_params(cfg, ds), cfg.pruning)
    raw.meta["config_hash"] = cfg.fingerprint()
    raw.meta["seed"] = cfg.seed
    raw.meta["unit_values"] = cfg.variant == "sep_temporal_only"
    raw.meta["variant"] = cfg.variant
    return normalize_sep(raw)


def _load_sep_for_run(cfg: RunConfig, ds) -> tuple[SepMatrix, EdgeIndex]:
    """The build-sep file of this run, checked against the snapshot and the settings."""
    from .sep_graph import EdgeIndex, load_sep_matrix

    path = _require_path(cfg.paths.sep_matrix, "paths.sep", "--sep")
    sep = load_sep_matrix(_existing(path, "edge-pair matrix"))
    index = EdgeIndex.from_dataset(ds)
    if sep.n_edges != index.n_edges:
        raise ConfigError(
            f"edge-pair matrix covers {sep.n_edges} edges but the snapshot "
            f"yields {index.n_edges}; rebuild it from this snapshot"
        )
    for key, configured in (
        ("variant", cfg.variant),
        ("seed", cfg.seed),
        ("max_neighbors", cfg.pruning.max_neighbors),
        ("sigma_floor", cfg.pruning.sigma_floor),
        ("alpha_sim", cfg.similarity.alpha_sim),
    ):
        if key in sep.meta and sep.meta[key] != configured:
            raise ConfigError(
                f"edge-pair matrix was built with {key}={sep.meta[key]!r} but the run "
                f"is configured for {key}={configured!r}; rebuild it with build-sep"
            )
    return sep, index


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    raw_path = _existing(
        _require_path(cfg.paths.raw, "paths.raw", "--raw"), "raw check-in file"
    )
    try:
        with raw_path.open("r", encoding="utf-8") as f:
            records, rejects = parse_checkins(f)
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"{raw_path}: raw check-in file is not UTF-8 text ({exc.reason})"
        ) from None
    if rejects:
        logger.warning("rejected %d malformed line(s)", len(rejects))
    ds = build_dataset(records, cfg.split)
    out = _require_path(getattr(args, "out", None) or cfg.paths.snapshot, "paths.snapshot", "--out")
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
    ds = _load_run_snapshot(cfg)
    index = EdgeIndex.from_dataset(ds)
    sep = _build_sep(cfg, ds, index, brute=args.brute_force)
    out = _require_path(getattr(args, "out", None) or cfg.paths.sep_matrix, "paths.sep", "--out")
    save_sep_matrix(sep, out)

    median_km = sep.meta.get("median_km")
    print(f"edges\t{sep.n_edges}")
    print(f"entries\t{sep.nnz}")
    print(f"linked_edges\t{np.count_nonzero(sep.active_edges())}")
    if median_km is not None:
        cutoff = sigma_cutoff_km(
            SimilarityParams(alpha_sim=sep.meta["alpha_sim"], median_km=float(median_km)),
            sep.meta["sigma_floor"],
        )
        print(f"median_km\t{float(median_km)!r}")
        print(f"cutoff_km\t{float(cutoff)!r}")
    print(f"matrix written to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .evaluate import make_ranking_hook
    from .graph import build_adjacency
    from .model import save_checkpoint
    from .training import train

    cfg = _resolve_config(args)
    ds = _load_run_snapshot(cfg)
    graph = build_adjacency(ds)

    sep = index = None
    if cfg.model.sep_enabled:
        sep, index = _load_sep_for_run(cfg, ds)
    elif cfg.paths.sep_matrix:
        print(
            f"variant={cfg.variant} does not use the edge-pair matrix; "
            f"{cfg.paths.sep_matrix} left unread"
        )

    hook = make_ranking_hook(ds, k=20)
    result = train(
        ds, graph, sep, index, cfg.model, cfg.train, hook, log_path=cfg.paths.train_log
    )

    out = _require_path(
        getattr(args, "out", None) or cfg.paths.checkpoint, "paths.checkpoint", "--out"
    )
    echo = {
        "config_hash": cfg.fingerprint(),
        "variant": cfg.variant,
        "seed": cfg.seed,
        "layers": cfg.model.layers,
        "alpha_user": cfg.model.alpha_user,
        "beta_item": cfg.model.beta_item,
        "sep_update": cfg.model.sep_update,
    }
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


def _evaluate_checkpoint(cfg: RunConfig, ds, e0: np.ndarray, meta: dict):
    """Compatibility checks of a checkpoint against the run, then its report."""
    from .graph import build_adjacency

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
    for key, configured in (
        ("variant", cfg.variant),
        ("layers", cfg.model.layers),
        ("alpha_user", cfg.model.alpha_user),
        ("beta_item", cfg.model.beta_item),
        ("sep_update", cfg.model.sep_update),
    ):
        if key in meta and meta[key] != configured:
            raise ConfigError(
                f"checkpoint was trained with {key}={meta[key]!r} but the run "
                f"is configured for {key}={configured!r}"
            )
    if meta.get("config_hash") not in (None, cfg.fingerprint()):
        logger.warning(
            "checkpoint config hash %s differs from the current run (%s)",
            meta["config_hash"],
            cfg.fingerprint(),
        )

    graph = build_adjacency(ds)
    sep = index = None
    if cfg.model.sep_enabled:
        sep, index = _load_sep_for_run(cfg, ds)
    return _report(cfg, ds, graph, sep, index, e0)


def _report(cfg: RunConfig, ds, graph, sep, index, e0: np.ndarray):
    """The evaluation core of eval and sweep: forward pass, then the ranking report."""
    from .evaluate import evaluate_model
    from .graph import interaction_matrix
    from .model import forward

    state = forward(cfg.model, graph, sep, index, e0)
    return evaluate_model(
        state.e_star,
        interaction_matrix(ds, "train"),
        interaction_matrix(ds, "test"),
        ks=cfg.ks,
        seed=cfg.seed,
        config_hash=cfg.fingerprint(),
    )


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import write_report_kv, write_report_tsv
    from .model import load_checkpoint

    cfg = _resolve_config(args)
    ds = _load_run_snapshot(cfg)
    cp = _require_path(cfg.paths.checkpoint, "paths.checkpoint", "--checkpoint")
    e0, meta = load_checkpoint(cp)
    report = _evaluate_checkpoint(cfg, ds, e0, meta)

    prefix = _require_path(
        getattr(args, "out", None) or cfg.paths.report_prefix,
        "paths.report_prefix",
        "--out",
    )
    tsv_path, kv_path = f"{prefix}.tsv", f"{prefix}.kv"
    write_report_tsv(report, tsv_path)
    write_report_kv(report, kv_path)
    for k in report.ks:
        block = report.blocks[k]
        print(
            f"k={k}\tprecision={block.precision!r}\trecall={block.recall!r}"
            f"\tndcg={block.ndcg!r}\taccuracy={block.accuracy!r}"
        )
    print(f"evaluated {report.n_evaluated_users} users ({report.n_excluded_users} excluded)")
    print(f"reports written to {tsv_path} and {kv_path}")
    return 0


SWEEP_AXES = ("layers", "alpha", "beta", "kcore")


def _records_from_dataset(ds) -> list[CheckinRecord]:
    """Reconstruct a raw-equivalent record list from a snapshot.

    Slots map back to hour-of-week timestamps in the first week of a
    Monday-started calendar; exact original timestamps are not needed
    because downstream consumers only ever look at the weekly slot.
    """
    from datetime import datetime, timedelta

    base = datetime(2024, 1, 1)  # a Monday, so slot k maps to weekday k//24
    edges = ds.interactions
    users, items = (np.repeat(c, np.diff(edges.slot_ptr)).tolist() for c in (edges.users, edges.items))
    lat, lon = ds.item_lat.tolist(), ds.item_lon.tolist()
    return [
        CheckinRecord(ds.user_ids[u], ds.item_ids[i], base + timedelta(hours=s), lat[i], lon[i])
        for u, i, s in zip(users, items, edges.slot_vals.tolist())
    ]


def _apply_axis(cfg: RunConfig, axis: str, value: str) -> RunConfig:
    cfg = copy.deepcopy(cfg)
    try:
        if axis == "layers":
            cfg.model.layers = int(value)
        elif axis == "alpha":
            cfg.model.alpha_user = float(value)
        elif axis == "beta":
            cfg.model.beta_item = float(value)
        elif axis == "kcore":
            cfg.split.kcore = int(value)
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {SWEEP_AXES}")
    except ValueError as exc:
        raise ConfigError(f"bad sweep value {value!r} for axis {axis!r}: {exc}") from exc
    cfg.validate()
    return cfg


def _model_inputs(cfg: RunConfig, ds):
    """Adjacency, edge-pair matrix and edge index of one dataset, built in memory.

    Nothing here reads the model or training settings, so a sweep over those
    reuses one result for every value.
    """
    from .graph import build_adjacency
    from .sep_graph import EdgeIndex

    graph = build_adjacency(ds)
    sep = index = None
    if cfg.model.sep_enabled:
        index = EdgeIndex.from_dataset(ds)
        sep = _build_sep(cfg, ds, index)
    return graph, sep, index


def _run_pipeline(cfg: RunConfig, ds, graph, sep, index):
    """In-memory train-to-eval chain used by the sweep."""
    from .evaluate import make_ranking_hook
    from .training import train

    hook = make_ranking_hook(ds, k=20)
    result = train(ds, graph, sep, index, cfg.model, cfg.train, hook)
    return _report(cfg, ds, graph, sep, index, result.e0)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ds = _load_run_snapshot(cfg)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value in --values")
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; choose one of {SWEEP_AXES}")

    base_records = _records_from_dataset(ds) if args.axis == "kcore" else None

    lines = [
        f"# axis={args.axis}\tconfig_hash={cfg.fingerprint()}\tseed={cfg.seed}"
        f"\tvariant={cfg.variant}\tn_values={len(values)}",
        "value\tk\tprecision\trecall\tndcg\taccuracy",
    ]
    inputs = None
    for value in values:
        run_cfg = _apply_axis(cfg, args.axis, value)
        if args.axis == "kcore":
            ds = build_dataset(base_records, run_cfg.split)
        if inputs is None or args.axis == "kcore":
            inputs = _model_inputs(run_cfg, ds)
        report = _run_pipeline(run_cfg, ds, *inputs)
        for k in report.ks:
            block = report.blocks[k]
            lines.append(
                f"{value}\t{k}\t{block.precision!r}\t{block.recall!r}"
                f"\t{block.ndcg!r}\t{block.accuracy!r}"
            )

    table = "\n".join(lines) + "\n"
    print(table, end="")
    out = getattr(args, "out", None) or cfg.paths.report_prefix
    if out:
        out_path = f"{out}.sweep.tsv" if not out.endswith(".tsv") else out
        Path(out_path).write_text(table, encoding="utf-8")
        print(f"sweep table written to {out_path}")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    """Cross-check the optimized pair builder and every file format."""
    from .graph import build_adjacency
    from .model import forward, load_checkpoint, save_checkpoint
    from .sep_graph import EdgeIndex, load_sep_matrix, save_sep_matrix

    seed = args.seed if args.seed is not None else 0
    failures: list[str] = []

    def verdict(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    city = generate_city(
        SyntheticConfig(
            n_users=40,
            n_items=80,
            n_checkins=700,
            n_districts=3,
            themes_per_district=2,
            seed=seed,
        )
    )
    ds = build_dataset(city.records, SplitConfig(train_ratio=0.7, seed=seed, min_interactions=2))
    index = EdgeIndex.from_dataset(ds)
    cfg = build_run_config({}, {"seed": str(seed), "pruning.max_neighbors": "16"})

    def same_entries(a: SepMatrix, b: SepMatrix) -> bool:
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rows", "cols", "values"))

    fast = _build_sep(cfg, ds, index, brute=False)
    slow = _build_sep(cfg, ds, index, brute=True)
    verdict("pair builder agreement (optimized vs brute force)", same_entries(fast, slow))

    # every weight is 1 here, so the neighbour cap keeps links by id alone
    tied = build_run_config(
        {}, {"seed": str(seed), "pruning.max_neighbors": "16", "variant": "sep_temporal_only"}
    )
    verdict(
        "pair builder agreement on tied weights (temporal only)",
        same_entries(_build_sep(tied, ds, index, brute=False), _build_sep(tied, ds, index, brute=True)),
    )

    workdir = args.workdir or tempfile.mkdtemp(prefix="sepgcn-oracle-")
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)

    save_sep_matrix(fast, work / "fast.sep")
    save_sep_matrix(slow, work / "slow.sep")
    verdict(
        "matrix file determinism (both builders, identical bytes)",
        (work / "fast.sep").read_bytes() == (work / "slow.sep").read_bytes(),
    )

    save_snapshot(ds, work / "snap.txt")
    ds2 = load_snapshot(work / "snap.txt")
    snap_ok = (
        (ds2.user_ids, ds2.item_ids, ds2.split) == (ds.user_ids, ds.item_ids, ds.split)
        and ds2.interactions == ds.interactions
        and np.array_equal(ds2.item_lat, ds.item_lat)
        and np.array_equal(ds2.item_lon, ds.item_lon)
    )
    verdict("snapshot round trip", snap_ok)

    loaded = load_sep_matrix(work / "fast.sep")
    verdict(
        "matrix round trip",
        (loaded.n_edges, loaded.normalization, loaded.meta)
        == (fast.n_edges, fast.normalization, fast.meta)
        and same_entries(loaded, fast),
    )

    rng = np.random.default_rng(seed)
    e0 = rng.normal(0.0, 0.1, size=(ds.n_users + ds.n_items, cfg.model.dim))
    save_checkpoint(e0, {"config_hash": cfg.fingerprint()}, work / "ck.bin")
    e0_back, _ = load_checkpoint(work / "ck.bin")
    verdict("checkpoint round trip", np.array_equal(e0_back, e0))

    state_a = forward(cfg.model, build_adjacency(ds), fast, index, e0)
    state_b = forward(cfg.model, build_adjacency(ds), fast, index, e0)
    verdict("forward determinism", np.array_equal(state_a.e_star, state_b.e_star))

    if failures:
        raise NumericalError(f"oracle check failed: {', '.join(failures)}")
    print(f"all checks passed (work files in {work})")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        n_users=args.users,
        n_items=args.items,
        n_checkins=args.checkins,
        seed=args.seed if args.seed is not None else 0,
    )
    city = generate_city(cfg)
    write_raw(city.records, args.out)
    print(
        f"wrote {len(city.records)} check-ins "
        f"({cfg.n_users} users, {cfg.n_items} items) to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
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
    g.add_argument("--seed", type=int, help="master seed (fans out to split/model/train)")

    parser = argparse.ArgumentParser(
        prog="sepgcn",
        description="Check-in recommendation pipeline with edge-pair propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "prepare", parents=[common], help="ingest a raw check-in log and write a snapshot"
    )
    p.add_argument("--raw", help="raw TSV (user, item, ISO timestamp, lat, lon)")
    p.add_argument("--out", help="snapshot path to write")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser(
        "build-sep", parents=[common], help="build the edge-pair similarity matrix"
    )
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--out", help="matrix path to write")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="use the quadratic reference builder (identical output, slow)",
    )
    p.set_defaults(func=cmd_build_sep)

    p = sub.add_parser("train", parents=[common], help="train and write a checkpoint")
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--sep", help="edge-pair matrix produced by build-sep")
    p.add_argument("--out", help="checkpoint path to write")
    p.add_argument("--log", help="per-epoch training log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="rank and write metric reports")
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--sep", help="edge-pair matrix (needed for edge-update variants)")
    p.add_argument("--checkpoint", help="checkpoint produced by train")
    p.add_argument("--out", help="report prefix; writes <prefix>.tsv and <prefix>.kv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep", parents=[common], help="train/eval across one axis and tabulate"
    )
    p.add_argument("--snapshot", help="snapshot produced by prepare")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES, help="what to vary")
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", help="combined table path (or prefix)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "oracle-check",
        parents=[common],
        help="self test: brute-force cross-checks and file round trips",
    )
    p.add_argument("--workdir", help="directory for the scratch files (default: temp)")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic check-in log")
    p.add_argument("--out", required=True, help="raw TSV path to write")
    p.add_argument("--users", type=int, default=1000, help="number of users")
    p.add_argument("--items", type=int, default=2000, help="number of items")
    p.add_argument("--checkins", type=int, default=30_000, help="number of check-ins")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        return args.func(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
