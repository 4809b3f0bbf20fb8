"""Tests of the benchmark itself: every workload's code path on a small city,
and every output check against a planted fault.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from checks import CheckError

SMALL = dict(users=300, items=600, checkins=9000, repeats=1)


def small(name: str) -> run.Workload:
    w = dataclasses.replace(run.WORKLOADS[name], **SMALL)
    if w.build_fails:
        # the small city stays under the real budget, so lower it to keep the fault
        w = dataclasses.replace(w, settings=w.settings + ("pruning.pair_budget=1000",))
    return w


def run_main(monkeypatch, tmp_path, name: str, trace: int) -> dict:
    monkeypatch.setitem(run.WORKLOADS, name, small(name))
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_checks_and_reports(monkeypatch, tmp_path, name):
    result = run_main(monkeypatch, tmp_path, name, trace=0)
    assert result["correct"] is True
    assert result["failed"] == (1 if run.WORKLOADS[name].build_fails else 0)
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(monkeypatch, tmp_path):
    result = run_main(monkeypatch, tmp_path, "desk", trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["sep_graph.builds"]["value"] == 1
    assert metrics["sep_graph.kept_pairs"]["value"] > 0
    assert metrics["graph.spmv_calls"]["value"] > 0
    assert metrics["training.batches"]["value"] > 0


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0"]) == 2


# ---------------------------------------------------------------------------
# planted faults: each check must reject a copy of good output with one defect


@pytest.fixture(scope="module")
def desk_round(tmp_path_factory):
    """One checked round of the small desk workload, shared read-only."""
    w = small("desk")
    work = tmp_path_factory.mktemp("desk") / "round"
    runner = run.Runner(time.monotonic() + 120)
    rnd = run.run_round(runner, w, 3, work, traced=False)
    run.check_round(runner, w, 3, rnd)
    return w, rnd


@pytest.fixture
def fresh(desk_round, tmp_path):
    """A private copy of the round's files."""
    _, rnd = desk_round
    work = tmp_path / "round"
    shutil.copytree(rnd.work, work)
    return work


def rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def sep_args(desk_round, work):
    w, rnd = desk_round
    snap = checks.read_snapshot(work / "snap.txt")
    entries = 2 * (len((work / "pairs.sep").read_text().splitlines()) - 1)
    return snap, w.setting("pruning.max_neighbors"), entries


def test_good_sep_passes(desk_round, fresh):
    snap, cap, entries = sep_args(desk_round, fresh)
    assert checks.check_sep(fresh / "pairs.sep", snap, cap, entries) == entries // 2


def test_snapshot_check_catches_a_lost_checkin(fresh):
    snap = checks.read_snapshot(fresh / "snap.txt")
    rewrite(fresh / "raw.tsv", lambda lines: lines[:-1])
    with pytest.raises(CheckError, match="raw recount"):
        checks.check_snapshot(fresh / "raw.tsv", snap, run.MIN_INTERACTIONS)


def test_snapshot_check_catches_a_test_only_item(fresh):
    snap = checks.read_snapshot(fresh / "snap.txt")
    item = int(snap.items[~snap.train][0])

    def to_test(lines):
        return [ln.replace("\ttrain\t", "\ttest\t") if ln.startswith("E\t") and ln.split("\t")[2] == str(item) else ln
                for ln in lines]

    rewrite(fresh / "snap.txt", to_test)
    with pytest.raises(CheckError, match="never occurs in train"):
        checks.check_snapshot(fresh / "raw.tsv", checks.read_snapshot(fresh / "snap.txt"), run.MIN_INTERACTIONS)


def plant_sep(fresh, desk_round, edit, match, cap_delta=0, entry_delta=0):
    snap, cap, entries = sep_args(desk_round, fresh)
    rewrite(fresh / "pairs.sep", edit)
    with pytest.raises(CheckError, match=match):
        checks.check_sep(fresh / "pairs.sep", snap, cap + cap_delta, entries + entry_delta)


def test_sep_check_catches_a_pair_beyond_the_cutoff(fresh, desk_round):
    def shrink(lines):
        meta = json.loads(lines[0].split(" ", 1)[1])
        meta["median_km"] /= 100.0
        return [f"SEPMAT1 {json.dumps(meta, sort_keys=True)}", *lines[1:]]

    plant_sep(fresh, desk_round, shrink, "beyond")


def test_sep_check_catches_a_pair_stored_backwards(fresh, desk_round):
    def swap(lines):
        i, j, v = lines[1].split("\t")
        return [lines[0], f"{j}\t{i}\t{v}", *lines[2:]]

    plant_sep(fresh, desk_round, swap, "i < j")


def test_sep_check_catches_a_duplicate_pair(fresh, desk_round):
    plant_sep(fresh, desk_round, lambda lines: [*lines, lines[1]], "twice", entry_delta=2)


def test_sep_check_catches_a_value_above_one(fresh, desk_round):
    def bump(lines):
        i, j, _ = lines[1].split("\t")
        return [lines[0], f"{i}\t{j}\t1.5", *lines[2:]]

    plant_sep(fresh, desk_round, bump, r"\(0, 1\]")


def test_sep_check_catches_a_pair_without_a_shared_slot(fresh, desk_round):
    snap = checks.read_snapshot(fresh / "snap.txt")
    slots = [set(snap.slots[e]) for e in range(len(snap.slots)) if snap.train[e]]
    a, b = next((a, b) for a in range(len(slots)) for b in range(a + 1, len(slots)) if not slots[a] & slots[b])
    plant_sep(fresh, desk_round, lambda lines: [*lines, f"{a}\t{b}\t0.5"], "weekly slot", entry_delta=2)


def test_sep_check_catches_an_edge_over_the_cap(fresh, desk_round):
    plant_sep(fresh, desk_round, lambda lines: lines, "max_neighbors", cap_delta=-1)


def test_sep_check_catches_a_wrong_entry_count(fresh, desk_round):
    plant_sep(fresh, desk_round, lambda lines: lines, "entries", entry_delta=2)


def test_checkpoint_check_catches_truncation_and_nan(desk_round, fresh):
    w, _ = desk_round
    snap = checks.read_snapshot(fresh / "snap.txt")
    n_nodes, dim = len(snap.user_ids) + len(snap.item_ids), w.setting("model.dim")
    blob = (fresh / "ck.bin").read_bytes()
    (fresh / "ck.bin").write_bytes(blob[:-8])
    with pytest.raises(CheckError, match="n_nodes"):
        checks.read_checkpoint(fresh / "ck.bin", n_nodes, dim)
    nan = bytes.fromhex("000000000000f87f")  # little-endian quiet NaN
    (fresh / "ck.bin").write_bytes(blob[:-8] + nan)
    with pytest.raises(CheckError, match="non-finite"):
        checks.read_checkpoint(fresh / "ck.bin", n_nodes, dim)


def test_train_log_check_catches_a_rising_loss(fresh):
    rewrite(fresh / "train.log", lambda lines: [lines[0], *reversed(lines[1:])])
    with pytest.raises(CheckError, match="loss rose"):
        checks.check_train_log(fresh / "train.log")


def test_report_check_catches_one_extra_hit(desk_round, fresh):
    w, _ = desk_round
    snap = checks.read_snapshot(fresh / "snap.txt")
    kv = checks.read_kv(fresh / "report.kv")
    n_users = int(kv["n_users"])
    kv["k20.precision"] = repr(float(kv["k20.precision"]) + 1 / (20 * n_users))
    e0 = checks.read_checkpoint(fresh / "ck.bin", len(snap.user_ids) + len(snap.item_ids), w.setting("model.dim"))
    table = run.program_forward(w, 3, fresh, e0)
    with pytest.raises(CheckError, match="k20.precision"):
        checks.check_report(kv, checks.loop_metrics(table, snap, run.KS))


def test_chance_check_catches_a_random_ranking(desk_round, fresh):
    w, rnd = desk_round
    snap = checks.read_snapshot(fresh / "snap.txt")
    chance = checks.random_recall(snap, 20)
    rewrite(fresh / "report.kv", lambda lines: [
        f"k20.recall = {chance!r}" if ln.startswith("k20.recall") else ln for ln in lines
    ])
    copy = dataclasses.replace(rnd, work=fresh, stages=[s for s in rnd.stages if s.name != "synth"])
    with pytest.raises(CheckError, match="chance"):
        run.check_file_chain(w, 3, copy, snap)


def test_lightgcn_table_matches_a_dense_reference(fresh):
    snap = checks.read_snapshot(fresh / "snap.txt")
    n, m = len(snap.user_ids), len(snap.item_ids)
    adj = np.zeros((n + m, n + m))
    for u, i in zip(snap.users[snap.train], snap.items[snap.train]):
        adj[u, n + i] = adj[n + i, u] = 1.0
    d = adj.sum(axis=1)
    inv = np.where(d > 0, 1 / np.sqrt(np.where(d > 0, d, 1)), 0.0)
    norm = inv[:, None] * adj * inv[None, :]
    e0 = np.random.default_rng(0).normal(size=(n + m, 4))
    layers, cur = [e0], e0
    for _ in range(2):
        cur = norm @ cur
        layers.append(cur)
    assert np.allclose(checks.lightgcn_table(snap, e0, 2), sum(layers) / 3, atol=1e-12)


def test_sweep_check_catches_a_changed_row_and_a_value_out_of_range(tmp_path):
    kv = {f"k{k}.{name}": repr(0.1 * k / 20) for k in run.KS for name in checks.METRICS}
    rows = ["# axis=layers", "value\tk\t" + "\t".join(checks.METRICS)]
    for value in ("1", "3"):
        for k in run.KS:
            rows.append(f"{value}\t{k}\t" + "\t".join(kv[f"k{k}.{n}"] for n in checks.METRICS))
    table = tmp_path / "sweep.tsv"
    table.write_text("\n".join(rows) + "\n")
    checks.check_sweep(table, "3", kv, run.KS)
    table.write_text("\n".join(rows[:-1] + [rows[-1].replace("0.1", "0.10000000000000002", 1)]) + "\n")
    with pytest.raises(CheckError, match="differs"):
        checks.check_sweep(table, "3", kv, run.KS)
    table.write_text("\n".join(rows[:2] + ["1\t5\t1.5\t0\t0\t0"] + rows[3:]) + "\n")
    with pytest.raises(CheckError, match=r"\[0, 1\]"):
        checks.check_sweep(table, "3", kv, run.KS)


def test_span_check_catches_a_child_outside_its_parent_and_overlaps():
    good = [[0, "cli.main", -1, 0.0, 10.0], [1, "a", 0, 1.0, 4.0], [2, "b", 1, 2.0, 3.0], [3, "c", 0, 5.0, 6.0]]
    selfs = checks.self_times(good, "cli.main")
    assert math.isclose(sum(selfs.values()), 10.0)
    assert math.isclose(selfs[1], 2.0)
    with pytest.raises(CheckError, match="leaves its parent"):
        checks.self_times([*good[:3], [3, "c", 0, 5.0, 11.0]], "cli.main")
    with pytest.raises(CheckError, match="overlaps"):
        checks.self_times([*good[:3], [3, "c", 0, 3.5, 6.0]], "cli.main")


def test_artifact_check_catches_a_changed_byte(fresh, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(fresh, other)
    run.check_same_artifacts(fresh, other)
    blob = bytearray((other / "ck.bin").read_bytes())
    blob[-1] ^= 1
    (other / "ck.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckError, match="ck.bin"):
        run.check_same_artifacts(fresh, other)


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
