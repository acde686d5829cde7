"""Plain-text and machine-readable reporting for the benchmark harness.

Each benchmark prints a small table with the same rows/series as the paper's
figure it reproduces, so the shapes (who wins, by roughly what factor) can be
compared at a glance against the paper's figure.  Repeated, per-layer timings
of the engine come from the separate benchmark described in
``perfbench/README.md``.

The executor benchmarks additionally persist their timings as JSON
(``BENCH_<figure>.json``, see :func:`write_bench_json`) so the perf
trajectory across commits is diffable by tooling, not just eyeballs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    columns = [str(header) for header in headers]
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    line = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(value.ljust(width) for value, width in zip(row, widths))
        for row in rendered_rows
    ]
    return "\n".join([line, separator] + body)


def _cell(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.1f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def print_figure(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    text = f"\n=== {title} ===\n" + format_table(headers, rows)
    print(text)
    return text


def speedup_summary(times: Dict[str, float], baseline: str) -> List[List[object]]:
    """Rows of (layout, seconds, speedup vs baseline)."""
    base = times.get(baseline)
    rows = []
    for layout, seconds in times.items():
        speedup = (base / seconds) if (base and seconds) else float("nan")
        rows.append([layout, seconds, round(speedup, 2)])
    return rows


def bench_json_path(figure: str) -> Path:
    """Where ``BENCH_<figure>.json`` lives (``REPRO_BENCH_DIR``, default cwd)."""
    return Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{figure}.json"


def write_bench_json(
    figure: str,
    section: str,
    payload,
    clients: "int | None" = None,
    shards: "int | None" = None,
) -> Path:
    """Merge one section of machine-readable timings into ``BENCH_<figure>.json``.

    Benchmarks run as independent pytest tests, so each test merges its own
    section into the shared per-figure file rather than overwriting it; a
    corrupt or hand-edited file is replaced wholesale.

    ``clients``/``shards`` annotate the section with the concurrency it was
    measured under, so scaling-curve files like ``BENCH_shard_scaling.json``
    are self-describing: a dict payload gains ``clients``/``shards`` keys,
    any other payload is wrapped as ``{"clients": ..., "shards": ...,
    "rows": payload}``.
    """
    if clients is not None or shards is not None:
        if not isinstance(payload, dict):
            payload = {"rows": payload}
        else:
            payload = dict(payload)
        if clients is not None:
            payload["clients"] = clients
        if shards is not None:
            payload["shards"] = shards
    path = bench_json_path(figure)
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except ValueError:
            document = {}
    if not isinstance(document, dict):
        document = {}
    document["figure"] = figure
    document["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    document.setdefault("sections", {})[section] = payload
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def query_result_payload(result) -> Dict[str, object]:
    """JSON-ready summary of one :class:`~repro.bench.harness.QueryResult`."""
    return {
        "executor": result.executor,
        "seconds": result.seconds,
        "pages_read": result.pages_read,
        "rows": len(result.rows),
    }
