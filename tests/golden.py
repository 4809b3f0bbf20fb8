"""The golden manifest: the sha256 of every artifact of a fixed set of runs.

The runs are the default synthetic city (SyntheticConfig(), seed 0) through
synth and prepare, then build-sep (for the variants that read the edge-pair
matrix), train and eval for each case in CASES, and one sweep over
layers 1 and 3. tests/golden.json maps each case to the sha256 of each file
it writes; train.log is hashed without its wall-clock column.
tests/test_golden.py reruns them and names every file whose digest differs.

A change that alters an artifact's bytes on purpose rewrites the manifest
with

    python tests/golden.py --write

and declares each changed digest. The manifest records the numpy and scipy
versions it was written with, because float bits can follow a library's
SIMD dispatch: after a library change, a failing file is rewritten and
declared as well, never skipped.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().with_name("golden.json")

SETTINGS = [
    "--seed", "0",
    "--set", "pruning.max_neighbors=16",
    "--set", "model.dim=32",
    "--set", "model.layers=3",
    "--set", "train.batch_size=8192",
    "--set", "train.lr=0.01",
    "--set", "train.epochs_max=3",
    "--set", "train.eval_every=1",
]
CASES = {
    "sepgcn": ["--variant", "sepgcn"],
    "sep_spatial_only": ["--variant", "sep_spatial_only"],
    "sep_temporal_only": ["--variant", "sep_temporal_only"],
    "lightgcn": ["--variant", "lightgcn"],
    "sep_update_once": ["--variant", "sepgcn", "--set", "model.sep_update=once"],
    "sgd": ["--variant", "sepgcn", "--set", "train.optimizer=sgd"],
}
SWEEP = ["--variant", "sepgcn", "--axis", "layers", "--values", "1,3"]


def digest(path: Path) -> str:
    """sha256 of the file; of train.log without its last (wall-clock) column."""
    data = path.read_bytes()
    if path.name == "train.log":
        data = b"".join(line.rpartition(b"\t")[0] + b"\n" for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def artifacts(work: Path) -> dict[str, dict[str, str]]:
    """Run every stage in process in the directory work; the digest of each
    file, by case ("city" for the raw log and the snapshot)."""
    from sepgcn.cli import main

    def run(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")

    run("synth", "--out", work / "raw.tsv", "--seed", "0")
    run("prepare", "--raw", work / "raw.tsv", "--out", work / "snap.txt", *SETTINGS)
    snap = ["--snapshot", work / "snap.txt"]
    files = {"city": [work / "raw.tsv", work / "snap.txt"]}
    for case, flags in CASES.items():
        out = work / case
        out.mkdir()
        sep = []
        if flags[1] != "lightgcn":
            run("build-sep", *snap, "--out", out / "pairs.sep", *flags, *SETTINGS)
            sep = ["--sep", out / "pairs.sep"]
        run("train", *snap, *sep, "--out", out / "ck.bin", "--log", out / "train.log", *flags, *SETTINGS)
        run("eval", *snap, *sep, "--checkpoint", out / "ck.bin", "--out", out / "report", *flags, *SETTINGS)
        files[case] = sorted(out.iterdir())
    run("sweep", *snap, "--out", work / "layers.tsv", *SWEEP, *SETTINGS)
    files["sweep"] = [work / "layers.tsv"]
    return {case: {path.name: digest(path) for path in paths} for case, paths in files.items()}


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python tests/golden.py --write", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        manifest = {**versions(), "cases": artifacts(Path(work))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
