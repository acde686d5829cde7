"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at laptop
scale: the dataset sizes below are small enough that the full suite runs in a
few minutes, yet large enough that each layout spans multiple pages and
multiple LSM components, so the relative shapes (who wins, by roughly what
factor) are visible.  Absolute numbers are not expected to match the paper;
the measured ones are kept in the ``BENCH_*.json`` files at the repository
root, and ``perfbench/README.md`` describes the repeated, per-layer benchmark.
"""

from __future__ import annotations

import pytest

from repro.bench import load_all_layouts

#: Records per dataset for the benchmark suite (scaled-down Table 1 cardinalities).
BENCH_SIZES = {
    "cell": 6000,
    "sensors": 1500,
    "tweet_1": 800,
    "wos": 500,
    "tweet_2": 2000,
}


@pytest.fixture(scope="session")
def cell_fixtures():
    return load_all_layouts("cell", num_records=BENCH_SIZES["cell"])


@pytest.fixture(scope="session")
def sensors_fixtures():
    return load_all_layouts("sensors", num_records=BENCH_SIZES["sensors"])


@pytest.fixture(scope="session")
def tweet1_fixtures():
    return load_all_layouts("tweet_1", num_records=BENCH_SIZES["tweet_1"])


@pytest.fixture(scope="session")
def wos_fixtures():
    return load_all_layouts("wos", num_records=BENCH_SIZES["wos"])


@pytest.fixture(scope="session")
def tweet2_fixtures():
    return load_all_layouts(
        "tweet_2",
        num_records=BENCH_SIZES["tweet_2"],
        secondary_indexes={"timestamp": "timestamp"},
        primary_key_index=True,
    )
