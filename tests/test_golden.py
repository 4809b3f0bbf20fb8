"""Every artifact of the golden runs has the bytes the manifest pins."""
from __future__ import annotations

import json

import golden


def test_artifacts_match_the_golden_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    found = golden.artifacts(tmp_path)
    expected = manifest["cases"]
    differ = [
        f"{case}/{name}"
        for case in sorted(expected.keys() | found.keys())
        for name in sorted(expected.get(case, {}).keys() | found.get(case, {}).keys())
        if expected.get(case, {}).get(name) != found.get(case, {}).get(name)
    ]
    written_with = {key: manifest[key] for key in ("numpy", "scipy")}
    assert not differ, (
        f"digests differ from tests/golden.json for {', '.join(differ)} "
        f"(manifest written with {written_with}, this run has {golden.versions()}); "
        "a change that means to alter these bytes rewrites the manifest "
        "with `python tests/golden.py --write` and declares each digest"
    )
