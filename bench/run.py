"""Pipeline benchmark: the sepgcn CLI stages on generated cities.

    python3 bench/run.py --workload desk --seed 0 --seconds 1 --trace 0

Each stage runs as its own process, the way a user runs it, with the BLAS
thread count fixed in its environment. A run repeats whole rounds of the
workload's stages until --seconds have passed (at least one round), checks
every output apart from the program (see checks.py), and prints the
end-to-end metrics, or with --trace 1 the per-layer metrics of a traced
round, as one JSON object on its last line. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import require

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set in each stage's environment before it starts: a stage sets these
# itself only after numpy has loaded OpenBLAS, too late to take effect.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run ends within 180 s; a stage still running then is killed
KS = (5, 20)
MIN_INTERACTIONS = 5  # SplitConfig default; the workloads do not change it

DESK_SETTINGS = (
    "pruning.max_neighbors=16",
    "model.dim=32",
    "model.layers=3",
    "train.batch_size=8192",
    "train.lr=0.01",
    "train.epochs_max=10",
    "train.eval_every=5",
)


@dataclass(frozen=True)
class Workload:
    """One generated city and the stages run on it.

    model_stages are the stages after prepare that pipeline_s adds to the
    prepare time and whose largest peak is model_peak_mb. With sweep_values
    set the workload runs one `sweep --axis layers` process instead of the
    file chain; with build_fails the city is too large for the pair
    builder's budget and build-sep must exit 3 with the pair-budget error.
    """

    users: int
    items: int
    checkins: int
    variant: str
    settings: tuple[str, ...]
    model_stages: tuple[str, ...]
    sweep_values: str | None = None
    build_fails: bool = False
    repeats: int = 3  # synth and prepare runs per round; their medians are reported

    def setting(self, key: str) -> int:
        return int(dict(s.split("=") for s in self.settings)[key])


WORKLOADS = {
    "desk": Workload(1000, 2000, 30_000, "sepgcn", DESK_SETTINGS, ("build-sep", "train", "eval")),
    "city3x": Workload(
        3000, 6000, 90_000, "lightgcn",
        tuple(s for s in DESK_SETTINGS if not s.startswith("train.e"))
        + ("train.epochs_max=4", "train.eval_every=2"),
        ("train", "eval"), build_fails=True,
    ),
    "sweep": Workload(
        1000, 2000, 30_000, "sepgcn", DESK_SETTINGS, ("sweep",), sweep_values="1,3",
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("prepare_peak_mb", "MB"),
    ("model_peak_mb", "MB"),
    ("recall20", "ratio"),
    ("ndcg20", "ratio"),
)

# per-layer metric -> (span name, "total" or "self"); see tracer.TRACED
LAYER_TIMES = {
    "data.parse_s": ("data.parse", "total"),
    "data.build_dataset_s": ("data.build_dataset", "total"),
    "data.snapshot_save_s": ("data.snapshot_save", "total"),
    "data.snapshot_load_s": ("data.snapshot_load", "total"),
    "geo.median_s": ("geo.median", "total"),
    "sep_graph.index_s": ("sep_graph.index", "total"),
    "sep_graph.candidates_s": ("sep_graph.candidates", "total"),
    "sep_graph.cap_s": ("sep_graph.build", "self"),
    "graph.adjacency_s": ("graph.adjacency", "total"),
    "graph.spmv_s": ("graph.spmv", "total"),
    "model.operator_s": ("model.operator", "total"),
    "model.forward_s": ("model.forward", "self"),
    "training.sample_s": ("training.sample", "total"),
    "training.rank_grad_s": ("training.rank_grad", "total"),
    "training.backward_s": ("training.backward", "self"),
    "training.optimizer_s": ("training.optimizer", "total"),
    "training.hook_s": ("training.hook", "total"),
    "evaluate.rank_all_s": ("evaluate.rank_all", "total"),
    "evaluate.metrics_s": ("evaluate.metrics", "total"),
}
# Layers that run on some workloads only. They are printed with the trace
# table but kept out of the JSON metrics: a time that reads 0 on every run
# of a workload shows nothing there.
PARTIAL_LAYER_TIMES = {
    "sep_graph.normalize_s": ("sep_graph.normalize", "total"),
    "sep_graph.save_s": ("sep_graph.save", "total"),
    "sep_graph.load_s": ("sep_graph.load", "total"),
    "model.edge_embed_s": ("model.edge_embed", "total"),
    "model.edge_update_s": ("model.edge_update", "total"),
    "model.edge_adjoint_s": ("model.edge_adjoint", "total"),
}
LAYER_COUNTS = (
    "data.interactions",
    "sep_graph.builds",
    "sep_graph.candidates",
    "sep_graph.kept_pairs",
    "graph.spmv_calls",
    "model.operator_nnz",
    "training.batches",
    "training.triples",
    "evaluate.users",
)
PER_LAYER_UNITS = {
    **dict.fromkeys(LAYER_TIMES, "s"),
    **dict.fromkeys(LAYER_COUNTS, "count"),
    "sep_graph.kept_per_candidate": "ratio",
    "sep_graph.build_peak_mb": "MB",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Stage:
    name: str
    rc: int
    wall_s: float
    peak_mb: float
    stdout: str
    stderr: str
    ops: int = 1  # a sweep counts one operation per value
    spans: Path | None = None


@dataclass
class Round:
    work: Path
    stages: list[Stage] = field(default_factory=list)

    def first(self, name: str) -> Stage | None:
        return next((s for s in self.stages if s.name == name), None)


class Runner:
    """Starts stage processes and waits for each; kills one that outlives the run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}

    def stage(self, rnd: Round, name: str, args: list[str], traced: bool, ops: int = 1) -> Stage:
        spans = None
        cmd = [sys.executable, "-m", "sepgcn.cli", name, *args]
        if traced:
            spans = rnd.work / f"{name}-{len(rnd.stages)}.spans.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", name, *args]
        out_path, err_path = rnd.work / f"{name}.stdout", rnd.work / f"{name}.stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stage = Stage(
            name, proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
            ops, spans,
        )
        rnd.stages.append(stage)
        return stage


def stage_args(w: Workload, seed: int, work: Path) -> dict[str, list[str]]:
    common = ["--seed", str(seed), "--variant", w.variant]
    for s in w.settings:
        common += ["--set", s]
    sep = [] if w.variant == "lightgcn" else ["--sep", str(work / "pairs.sep")]
    snap = ["--snapshot", str(work / "snap.txt")]
    return {
        "synth": ["--out", str(work / "raw.tsv"), "--seed", str(seed), "--users", str(w.users),
                  "--items", str(w.items), "--checkins", str(w.checkins)],
        "prepare": ["--raw", str(work / "raw.tsv"), "--out", str(work / "snap.txt"), *common],
        "build-sep": [*snap, "--out", str(work / "pairs.sep"), *common],
        "train": [*snap, *sep, "--out", str(work / "ck.bin"), "--log", str(work / "train.log"), *common],
        "eval": [*snap, *sep, "--checkpoint", str(work / "ck.bin"), "--out", str(work / "report"), *common],
        "sweep": [*snap, "--axis", "layers", "--values", w.sweep_values or "",
                  "--out", str(work / "sweep.tsv"), *common],
    }


def run_round(runner: Runner, w: Workload, seed: int, work: Path, traced: bool) -> Round:
    """One round of the workload's stages; stops early only if a stage fails unexpectedly."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rnd = Round(work)
    args = stage_args(w, seed, work)
    # The synth/prepare repeats sit between the later stages, so that their
    # median samples the whole round; this machine's speed drifts over seconds.
    plan = ["synth", "prepare"]
    for i, name in enumerate(["sweep"] if w.sweep_values else ["build-sep", "train", "eval"]):
        plan += [name] + (["synth", "prepare"] if i < w.repeats - 1 else [])
    plan += ["synth", "prepare"] * (w.repeats - plan.count("synth"))
    for name in plan:
        ops = len(w.sweep_values.split(",")) if name == "sweep" else 1
        stage = runner.stage(rnd, name, args[name], traced, ops)
        if stage.rc != 0 and not (name == "build-sep" and w.build_fails):
            break
    return rnd


def check_exits(w: Workload, stages: list[Stage]) -> None:
    """Every stage exits 0, except the known pair-budget failure of build-sep."""
    for s in stages:
        known = w.build_fails and s.name == "build-sep" and s.rc == 3 and "exceeds pair_budget" in s.stderr
        require(s.rc == 0 or known, f"{s.name} exited {s.rc}: {s.stderr.strip()[-300:]}")


def check_round(runner: Runner, w: Workload, seed: int, rnd: Round) -> None:
    """Check every output of a round against the benchmark's own computations."""
    check_exits(w, rnd.stages)
    missing = [n for n in ("prepare", *w.model_stages) if rnd.first(n) is None]
    require(not missing, f"stages never ran: {missing}")
    work = rnd.work
    snap = checks.read_snapshot(work / "snap.txt")
    checks.check_snapshot(work / "raw.tsv", snap, MIN_INTERACTIONS)
    if w.sweep_values:
        # the 3-layer row must equal the file chain run with the same settings
        chain = Round(work / "chain")
        chain.work.mkdir()
        shutil.copy(work / "snap.txt", chain.work / "snap.txt")
        args = stage_args(w, seed, chain.work)
        for name in ("build-sep", "train", "eval"):
            runner.stage(chain, name, args[name], traced=False)
        rnd.stages += chain.stages
        check_file_chain(w, seed, chain, snap)
        layers = str(w.setting("model.layers"))
        checks.check_sweep(work / "sweep.tsv", layers, checks.read_kv(chain.work / "report.kv"), KS)
    else:
        check_file_chain(w, seed, rnd, snap)


def check_file_chain(w: Workload, seed: int, rnd: Round, snap: checks.Snapshot) -> None:
    work = rnd.work
    check_exits(w, rnd.stages)
    build = rnd.first("build-sep")
    if build is not None and build.rc == 0:
        entries = int(re.search(r"^entries\t(\d+)$", build.stdout, re.M).group(1))
        checks.check_sep(work / "pairs.sep", snap, w.setting("pruning.max_neighbors"), entries)
    n_nodes = len(snap.user_ids) + len(snap.item_ids)
    e0 = checks.read_checkpoint(work / "ck.bin", n_nodes, w.setting("model.dim"))
    checks.check_train_log(work / "train.log")
    kv = checks.read_kv(work / "report.kv")
    layers = w.setting("model.layers")
    if w.variant == "lightgcn":
        table = checks.lightgcn_table(snap, e0, layers)
    else:
        table = program_forward(w, seed, work, e0)
        chance = checks.random_recall(snap, 20)
        recall = float(kv["k20.recall"])
        require(recall >= 2 * chance, f"recall@20 {recall} is not well above chance {chance}")
    checks.check_report(kv, checks.loop_metrics(table, snap, KS))


def program_forward(w: Workload, seed: int, work: Path, e0):
    """The embeddings sepgcn's forward pass gives for the checkpoint."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from sepgcn.config import build_run_config
    from sepgcn.data import load_snapshot
    from sepgcn.graph import build_adjacency
    from sepgcn.model import forward
    from sepgcn.sep_graph import EdgeIndex, load_sep_matrix

    overrides = dict(s.split("=") for s in w.settings)
    cfg = build_run_config({}, {**overrides, "seed": str(seed), "variant": w.variant})
    ds = load_snapshot(work / "snap.txt")
    sep = load_sep_matrix(work / "pairs.sep")
    return forward(cfg.model, build_adjacency(ds), sep, EdgeIndex.from_dataset(ds), e0.copy()).e_star


def end_to_end(w: Workload, rnd: Round) -> dict[str, float]:
    prepares = [s for s in rnd.stages if s.name == "prepare"]
    model = [rnd.first(name) for name in w.model_stages]
    if w.sweep_values:
        rows = [ln.split("\t") for ln in (rnd.work / "sweep.tsv").read_text().splitlines()]
        layers = str(w.setting("model.layers"))
        row = next(r for r in rows if r[:2] == [layers, "20"])
        recall, ndcg = float(row[3]), float(row[4])
    else:
        kv = checks.read_kv(rnd.work / "report.kv")
        recall, ndcg = float(kv["k20.recall"]), float(kv["k20.ndcg"])
    return {
        "setup_s": statistics.median(s.wall_s for s in rnd.stages if s.name == "synth"),
        "pipeline_s": statistics.median(s.wall_s for s in prepares) + sum(s.wall_s for s in model),
        "prepare_peak_mb": statistics.median(s.peak_mb for s in prepares),
        "model_peak_mb": max(s.peak_mb for s in model),
        "recall20": recall,
        "ndcg20": ndcg,
    }


def per_layer(plain: Round, traced: Round) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of a traced round, and the layers that run on some workloads only."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    startup = 0.0
    for stage in traced.stages:
        data = json.loads(stage.spans.read_text(encoding="utf-8"))
        spans = data["spans"]
        selfs = checks.self_times(spans, "cli.main")
        for span_id, name, _, start, end in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + selfs[span_id]
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                startup += stage.wall_s - (end - start)
        for key, value in data["counts"].items():
            merge = max if key in ("data.interactions", "sep_graph.build_peak_bytes") else sum
            counts[key] = merge((counts.get(key, 0), value))

    def layer_time(span: str, mode: str) -> float:
        return (own if mode == "self" else total).get(span, 0.0)

    metrics = {metric: layer_time(*spec) for metric, spec in LAYER_TIMES.items()}
    metrics.update({key: counts.get(key, 0) for key in LAYER_COUNTS})
    metrics["sep_graph.builds"] = calls.get("sep_graph.build", 0)
    metrics["graph.spmv_calls"] = calls.get("graph.spmv", 0)
    candidates = counts.get("sep_graph.candidates", 0)
    metrics["sep_graph.kept_per_candidate"] = (
        counts.get("sep_graph.kept_pairs", 0) / candidates if candidates else 0.0
    )
    metrics["sep_graph.build_peak_mb"] = counts.get("sep_graph.build_peak_bytes", 0) / 2**20
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = sum(s.wall_s for s in traced.stages) - sum(
        s.wall_s for s in plain.stages[: len(traced.stages)]
    )
    partial = {metric: layer_time(*spec) for metric, spec in PARTIAL_LAYER_TIMES.items()}
    return metrics, partial


ARTIFACTS = ("raw.tsv", "snap.txt", "pairs.sep", "ck.bin", "report.tsv", "report.kv", "sweep.tsv")


def check_same_artifacts(plain: Path, traced: Path) -> None:
    """Tracing must not change a byte of any artifact (the log's clock column aside)."""
    for name in ARTIFACTS:
        a, b = plain / name, traced / name
        require(a.exists() == b.exists(), f"{name} written in only one of the two rounds")
        if a.exists():
            require(a.read_bytes() == b.read_bytes(), f"tracing changed the bytes of {name}")
    if (plain / "train.log").exists():
        def strip(p: Path) -> list[list[str]]:
            return [ln.split("\t")[:-1] for ln in p.read_text().splitlines()]
        require(strip(plain / "train.log") == strip(traced / "train.log"), "tracing changed train.log")


def print_stages(rnd: Round, label: str) -> None:
    print(f"# {label}: stage, exit code, wall s, peak MB")
    for s in rnd.stages:
        print(f"  {s.name:<10} {s.rc:>3} {s.wall_s:9.3f} {s.peak_mb:9.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sepgcn" / "cli.py").is_file():
        print(f"error: no sepgcn sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    runner = Runner(time.monotonic() + DEADLINE_S)
    base = OUT / args.workload
    started = time.monotonic()
    rounds: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    tables: list[list] = []
    attempted = failed = 0
    correct = True
    while not rounds or time.monotonic() - started < args.seconds:
        plan = [("plain", False)] + ([("traced", True)] if args.trace else [])
        done: dict[str, Round] = {}
        for label, traced in plan:
            rnd = run_round(runner, w, args.seed, base / label, traced)
            done[label] = rnd
            try:
                if traced:
                    check_same_artifacts(done["plain"].work, rnd.work)
                else:
                    check_round(runner, w, args.seed, rnd)
            except Exception:  # a check that cannot even read an output fails too
                correct = False
                print(f"check failed ({label}):", file=sys.stderr)
                traceback.print_exc()
            attempted += sum(s.ops for s in rnd.stages)
            failed += sum(s.ops for s in rnd.stages if s.rc != 0)
            print_stages(rnd, label)
            tables.append([[label, st.name, st.rc, st.wall_s, st.peak_mb] for st in rnd.stages])
        if not correct:
            break
        rounds.append(end_to_end(w, done["plain"]))
        if args.trace:
            try:
                metrics, partial = per_layer(done["plain"], done["traced"])
            except Exception:
                correct = False
                print("check failed (trace):", file=sys.stderr)
                traceback.print_exc()
                break
            layers.append(metrics)
            print("# layers that run on some workloads only (s): " + json.dumps(partial))

    units = PER_LAYER_UNITS if args.trace else dict(END_TO_END)
    source = layers if args.trace else rounds
    metrics = {
        name: {"value": statistics.median(r[name] for r in source) if source else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (base / "result.json").write_text(json.dumps({**result, "stages": tables}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
