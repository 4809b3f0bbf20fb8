"""The head of every pipeline file (magic, JSON header, the fields its reader
needs) is checked by one function, errors.read_head, with one message form."""
from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import sepgcn
from sepgcn.config import SplitConfig
from sepgcn.data import SNAPSHOT_MAGIC, Dataset, load_snapshot, save_snapshot
from sepgcn.errors import InputDataError
from sepgcn.model import CHECKPOINT_FIELDS, CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from sepgcn.sep_graph import SEP_FIELDS, SEPMAT_MAGIC, SepMatrix, load_sep_matrix, save_sep_matrix
from sepgcn.snapshot_columns import SNAPSHOT_FIELDS

from reference import interactions


def _snapshot(path):
    rows = [(0, 0, (3, 7), "train"), (0, 1, (5,), "test"), (1, 1, (9,), "train")]
    ds = Dataset(["a", "b"], ["x", "y"], interactions(rows), np.array([40.0, 41.0]),
                 np.array([-74.0, -75.0]), SplitConfig())
    save_snapshot(ds, path)


def _sep(path):
    one = np.array([0])
    save_sep_matrix(SepMatrix(3, one, one + 1, np.array([0.5])), path)


# file: (writer, reader, magic, what, fields, the key the faults edit)
FILES = {
    "snapshot": (_snapshot, load_snapshot, SNAPSHOT_MAGIC, "snapshot", SNAPSHOT_FIELDS, "n_users"),
    "matrix": (_sep, load_sep_matrix, SEPMAT_MAGIC, "matrix", SEP_FIELDS, "n_pairs"),
    "checkpoint": (
        lambda path: save_checkpoint(np.zeros((3, 2)), {"variant": "sepgcn"}, path),
        load_checkpoint, CHECKPOINT_MAGIC, "checkpoint", CHECKPOINT_FIELDS, "dim",
    ),
}


# fault: (the file's head from its magic, header object and the key to
# edit; the message after "<path>: ")
FAULTS = {
    "wrong magic": (
        lambda magic, meta, key: "X" + magic[1:] + json.dumps(meta),
        "bad {what} magic {wrong!r}, expected {magic!r}",
    ),
    "header not JSON": (lambda magic, meta, key: magic + "not json", "{what} header is not JSON: 'not json'"),
    "missing key": (
        lambda magic, meta, key: magic + json.dumps({k: v for k, v in meta.items() if k != key}),
        "{what} header lacks {key!r}",
    ),
    "mistyped value": (
        lambda magic, meta, key: magic + json.dumps({**meta, key: "1"}),
        "{what} header {key} {wording}, got '1'",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", FILES)
def test_every_reader_reports_a_bad_head_in_one_form(tmp_path, name, fault):
    write, read, magic, what, fields, key = FILES[name]
    head, message = FAULTS[fault]
    path = tmp_path / "file"
    write(path)
    header, _, body = path.read_bytes().removeprefix(magic.encode()).partition(b"\n")
    path.write_bytes(head(magic, json.loads(header), key).encode() + b"\n" + body)
    with pytest.raises(InputDataError) as err:
        read(path)
    expected = message.format(what=what, magic=magic, wrong="X" + magic[1:], key=key, wording=fields[key][1])
    assert str(err.value) == f"{path}: {expected}"


def test_no_module_but_errors_parses_a_header():
    """Every header is read through errors.read_head, so no other module of
    the package calls json_object or json.loads."""
    package = Path(sepgcn.__file__).parent
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "json_object"
            or isinstance(node.func, ast.Attribute) and node.func.attr in ("json_object", "loads")
        )
    ]
    assert callers == []
