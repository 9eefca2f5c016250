from __future__ import annotations

import csv
import os
import sys

import pytest

from fieldnorm.corpus import WORLD, ArticleSet, Corpus, FieldYearKey


def make_cell(group: str, field: str, year: int, counts) -> ArticleSet:
    return ArticleSet(group, FieldYearKey(field, year), tuple(counts))


def read_csv_rows(path) -> list[dict]:
    """Parse a written report back into dicts (numeric fields as floats)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {
                **record,
                "n": int(record["n"]),
                "estimate": float(record["estimate"]) if record["estimate"] else None,
                "ci_lower": float(record["ci_lower"]) if record["ci_lower"] else None,
                "ci_upper": float(record["ci_upper"]) if record["ci_upper"] else None,
                "defined": record["defined"] == "true",
            }
            for record in csv.DictReader(fh)
        ]


# Bootstrap rows are drawn in forked processes only on Linux; elsewhere a
# test that asks for several CPUs proves nothing.
FORKS = pytest.mark.skipif(sys.platform != "linux",
                           reason="bootstrap rows are split over processes on Linux only")


def counted_forks(monkeypatch) -> list[int]:
    """The pid of each child this process forks from now on, in order."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


KEY_A = FieldYearKey("A", 2013)
KEY_B = FieldYearKey("B", 2013)

# Two-field worked example: a group of 5 articles per field, the rest of
# the world contributing another 5, so each world cell holds 10 articles.
GROUP_A = (0, 0, 1, 2, 10)
GROUP_B = (0, 1, 1, 2, 2)
WORLD_A = (0, 0, 1, 2, 10, 0, 0, 0, 2, 2)
WORLD_B = (0, 1, 1, 2, 2, 0, 1, 2, 2, 5)


@pytest.fixture
def demo_corpus() -> Corpus:
    return Corpus.from_cells(
        [
            ArticleSet("G", KEY_A, GROUP_A),
            ArticleSet("G", KEY_B, GROUP_B),
            ArticleSet(WORLD, KEY_A, WORLD_A),
            ArticleSet(WORLD, KEY_B, WORLD_B),
        ]
    )
