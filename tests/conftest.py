"""Shared test helpers."""
from __future__ import annotations

import re

import numpy as np
import pytest

# Values a corrupted field may take: not numbers, non-finite, negative, past
# any index, or empty.
BAD_TOKENS = ("nan", "inf", "-1", "99999999999999999999", "1e400", "", "x")
_FIELD_SEPARATORS = re.compile(r"([\t ,:])")


def mutate_lines(lines: list[str], rng: np.random.Generator) -> list[str]:
    """One seeded corruption of a line-based file.

    Picks a line and truncates it, drops it, repeats it, swaps two of its
    fields, or puts a bad token in place of one field. Fields are split at
    tabs, spaces, commas and colons, so JSON headers and slot lists are
    corrupted too.
    """
    lines = list(lines)
    k = int(rng.integers(len(lines)))
    line = lines[k]
    op = int(rng.integers(5))
    if op == 0:
        lines[k] = line[: int(rng.integers(len(line) + 1))]
    elif op == 1:
        del lines[k]
    elif op == 2:
        lines.insert(k, line)
    else:
        parts = _FIELD_SEPARATORS.split(line)
        a, b = rng.choice(range(0, len(parts), 2), size=2)
        if op == 3:
            parts[a], parts[b] = parts[b], parts[a]
        else:
            parts[a] = BAD_TOKENS[int(rng.integers(len(BAD_TOKENS)))]
        lines[k] = "".join(parts)
    return lines


@pytest.fixture
def mutate():
    """The mutate_lines function, for the reader-contract tests."""
    return mutate_lines
