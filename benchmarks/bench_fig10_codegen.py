"""Figure 10: interpreted vs. code-generated execution, per layout.

Q1 is ``COUNT(*)``; Q2 is the UNNEST + GROUP BY aggregate of Figure 11.  The
paper's observation is twofold: (i) code generation beats the interpreted
(batch-materializing) executor for *every* layout, including the row-major
ones, and (ii) without code generation the columnar layouts' storage savings
do not translate into query-time savings because CPU (assembly +
interpretation) dominates.
"""

from __future__ import annotations

from repro.bench import run_query
from repro.bench.queries import tweet1_q1
from repro.bench.reporting import print_figure, query_result_payload, write_bench_json
from repro.query import Query, Var

LAYOUT_ORDER = ("open", "vector", "apax", "amax")


def figure11_query(dataset: str) -> Query:
    """SELECT t, COUNT(*) FROM gamers g UNNEST g.games t GROUP BY t (Figure 11)."""
    return (
        Query(dataset, "g")
        .unnest("t", "entities.hashtags[*].text")
        .group_by(key=("t", Var("t")), aggregates=[("cnt", "count", None)])
        .order_by("cnt", descending=True)
    )


def _run(fixtures):
    results = {}
    for label, factory, executor in (
        ("Q1 count(*)", tweet1_q1, "codegen"),
        ("Q2 interpreted", figure11_query, "interpreted"),
        ("Q2 batch", figure11_query, "batch"),
        ("Q2 codegen", figure11_query, "codegen"),
    ):
        per_layout = {}
        for layout in LAYOUT_ORDER:
            run_query(fixtures[layout], factory, executor=executor)  # warm-up
            per_layout[layout] = run_query(
                fixtures[layout], factory, executor=executor, repetitions=3
            )
        results[label] = per_layout
    return results


def _pipeline_only_comparison(num_rows: int = 20_000):
    """Time the pipelining operators alone (no scan) under both executors.

    The paper's Figure 10 isolates the execution model; at the reproduction's
    tiny data scale the scan/decode cost hides it, so this helper feeds the
    same in-memory rows to the fused generated function and to the interpreted
    batch-at-a-time operators.
    """
    import time

    from repro.query.codegen import generate_pipeline
    from repro.query.executor import run_interpreted_pipeline

    plan = figure11_query("tweet_1").build_plan()
    rows = [
        {"g": {"entities": {"hashtags": [{"text": f"tag{i % 7}"}, {"text": "jobs"}]}}}
        for i in range(num_rows)
    ]
    generated = generate_pipeline(plan)
    start = time.perf_counter()
    generated_count = sum(1 for _ in generated(iter(rows)))
    generated_seconds = time.perf_counter() - start
    start = time.perf_counter()
    interpreted_count = sum(1 for _ in run_interpreted_pipeline(iter(rows), plan.pipeline))
    interpreted_seconds = time.perf_counter() - start
    assert generated_count == interpreted_count
    return generated_seconds, interpreted_seconds


def test_fig10_interpreted_vs_codegen(benchmark, tweet1_fixtures):
    results = benchmark.pedantic(lambda: _run(tweet1_fixtures), rounds=1, iterations=1)
    rows = [
        [label] + [round(per_layout[layout].seconds, 4) for layout in LAYOUT_ORDER]
        for label, per_layout in results.items()
    ]
    print_figure(
        "Figure 10 — Execution time with and without code generation (seconds)",
        ["query"] + list(LAYOUT_ORDER),
        rows,
    )
    write_bench_json(
        "fig10",
        "executors",
        {
            label: {
                layout: query_result_payload(per_layout[layout])
                for layout in LAYOUT_ORDER
            }
            for label, per_layout in results.items()
        },
    )
    interpreted = results["Q2 interpreted"]
    batched = results["Q2 batch"]
    generated = results["Q2 codegen"]
    # End-to-end, code generation never loses by more than measurement noise at
    # this scale: the scan/decode cost (identical for both executors) dominates
    # the tiny synthetic datasets, unlike the paper's 200 GB inputs.
    for layout in LAYOUT_ORDER:
        assert generated[layout].seconds <= interpreted[layout].seconds * 1.5, layout
    # All three executors agree on the results.
    for layout in LAYOUT_ORDER:
        assert generated[layout].rows == interpreted[layout].rows
        assert batched[layout].rows == interpreted[layout].rows

    # Isolating the execution model (the quantity Figure 10 is about).  NOTE:
    # this is the one experiment whose *magnitude* does not reproduce in pure
    # Python — generating Python source removes the operator/batch plumbing,
    # but there is no JIT underneath it (Truffle/Graal is what turns the
    # paper's generated ASTs into machine code), and this engine's interpreted
    # executor is already far leaner than Hyracks.  We therefore assert only
    # that the two executors stay within a small factor of each other and that
    # they agree on results; BENCH_fig10.json records the measured times.
    generated_seconds, interpreted_seconds = _pipeline_only_comparison()
    print_figure(
        "Figure 10 (execution model only) — pipeline over 20k in-memory rows",
        ["executor", "seconds"],
        [["interpreted", round(interpreted_seconds, 4)], ["codegen", round(generated_seconds, 4)]],
    )
    write_bench_json(
        "fig10",
        "pipeline_only",
        {"interpreted": interpreted_seconds, "codegen": generated_seconds},
    )
    assert generated_seconds < interpreted_seconds * 3
    assert interpreted_seconds < generated_seconds * 3
