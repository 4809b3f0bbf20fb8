"""Exception taxonomy shared across the package, the checks every reader of
a pipeline file shares (the file is there, its text, its head of magic and
JSON header), the one way every writer writes a file, and the array size
check.

The CLI maps these onto exit codes: InputDataError -> 2,
ConfigError -> 3, NumericalError -> 4; and OSError -> 2, MemoryError -> 3.
"""
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path


class SepGcnError(Exception):
    """Base class for all package errors."""


class InputDataError(SepGcnError):
    """Raw data is missing, malformed beyond tolerance, or empty after filtering."""


class ConfigError(SepGcnError):
    """Configuration values are invalid or mutually inconsistent."""


class NumericalError(SepGcnError):
    """A numerical invariant was violated (NaN/Inf, degenerate statistic)."""


def read_input(path: Path, what: str) -> bytes:
    """The bytes of the file (or pipe) at path; an InputDataError naming what
    and the path when there is none or it cannot be read, as a directory."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise InputDataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise InputDataError(f"{what} cannot be read: {path} ({exc.strerror})") from None


@contextmanager
def written(path, what: str, mode: str = "w"):
    """The file to write what into at path, opened in mode "w" (UTF-8 text,
    lines ending in a bare newline) or "wb". It is a sibling temporary file
    that replaces path once it is whole, so path holds the whole file or
    what it held before; on any error the temporary file is removed. An
    OSError becomes an InputDataError naming what and path. A path that
    exists and is not a regular file, as a FIFO or /dev/stdout, is written
    in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        target = part = path
    else:
        target = path.resolve()  # a link keeps pointing at its file
        part = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        try:
            with part.open(mode, **text) as f:
                yield f
            if part != target:
                part.replace(target)
        except BaseException:
            if part != target:
                with suppress(OSError):
                    part.unlink()
            raise
    except OSError as exc:
        raise InputDataError(f"{what} cannot be written: {path} ({exc.strerror or exc})") from None


def json_object(path, text: bytes, what: str) -> dict:
    """The JSON object that text, a UTF-8 header of the file at path, spells;
    an InputDataError otherwise, whose excerpt shows the header as text."""
    try:
        meta = json.loads(text.decode("utf-8"))
    except ValueError:
        excerpt = text.decode("utf-8", "replace")
        raise InputDataError(f"{path}: {what} is not JSON: {excerpt[:60]!r}") from None
    if not isinstance(meta, dict):
        raise InputDataError(f"{path}: {what} must be a JSON object")
    return meta


# conditions a header value must meet: (test, wording), as config.setting's
COUNT = (lambda v: type(v) is int and 0 <= v < 2**63, "must be an integer in [0, 2**63)")
POSITIVE = (lambda v: type(v) is int and v >= 1, "must be a positive integer")
INTEGER = (lambda v: type(v) is int, "must be an integer")
NUMBER = (lambda v: type(v) in (int, float), "must be a number")


def read_head(path, data: bytes, magic: str, what: str, fields: dict) -> tuple[dict, int]:
    """The JSON header of data, the bytes of the file at path, and the offset
    of the body after it. data must start with magic, its separator included,
    and then hold one JSON object up to the next newline. fields maps each
    header key the reader needs to a (test, wording) pair; the first key the
    header lacks or whose value fails its test is an InputDataError."""
    if not data.startswith(magic.encode()):
        found = data[: len(magic)].decode("utf-8", "replace")
        raise InputDataError(f"{path}: bad {what} magic {found!r}, expected {magic!r}")
    line = data[len(magic) :].partition(b"\n")[0]
    meta = json_object(path, line, f"{what} header")
    for key, (test, wording) in fields.items():
        if key not in meta:
            raise InputDataError(f"{path}: {what} header lacks {key!r}")
        if not test(meta[key]):
            raise InputDataError(f"{path}: {what} header {key} {wording}, got {meta[key]!r}")
    return meta, len(magic) + len(line) + 1


def check_text(path, data: bytes, what: str) -> None:
    """InputDataError unless data, the bytes of the file at path, is UTF-8
    text whose every line ends in a newline and holds no carriage return.
    The error names the line of the first bad byte."""
    if data and not data.endswith(b"\n"):
        raise InputDataError(f"{path}: {what} does not end with a newline")
    at, reason = data.find(b"\r"), "holds a carriage return"
    if at < 0 and not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            at, reason = exc.start, f"is not UTF-8 text ({exc.reason})"
    if at >= 0:
        lineno = data.count(b"\n", 0, at) + 1
        raise InputDataError(f"{path}:{lineno}: {what} {reason}")


def is_index(text: str, n: int) -> bool:
    """Whether text spells an index below n in at most 18 plain ASCII digits."""
    return 0 < len(text) <= 18 and text.isascii() and text.isdigit() and int(text) < n


def check_size(shape: tuple[int, ...], what: str) -> None:
    """MemoryError when an array of 8-byte values of this shape would exceed
    the address space. numpy raises ValueError there, not MemoryError."""
    if 8 * math.prod(shape) > sys.maxsize:
        values = " x ".join(map(str, shape))
        raise MemoryError(f"{what} needs {values} values of 8 bytes, more than one array can address")
