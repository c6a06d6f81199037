"""Benchmark: regenerate Fig. 2 (motivation).

Fig. 2a — cold start, execution latency and image size for a container vs a
Wasm binary; Fig. 2b — normalized transfer vs serialization share at 1, 60
and 100 MB for the container and Wasm runtimes.
"""

from repro.experiments.fig2 import run_fig2a, run_fig2b


def test_fig2a_cold_start_and_execution(benchmark, save_result):
    result = benchmark.pedantic(run_fig2a, rounds=3, iterations=1)
    save_result("fig2a", result)
    # Wasm binaries are far smaller and cold start far faster than containers.
    for function in result.x_values:
        assert result.value("cold_start_s", "Wasm", function) < result.value(
            "cold_start_s", "Cont", function
        )
        assert result.value("image_size_mb", "Wasm", function) < result.value(
            "image_size_mb", "Cont", function
        )


def test_fig2b_normalized_io_breakdown(benchmark, save_result):
    result = benchmark.pedantic(run_fig2b, rounds=3, iterations=1)
    save_result("fig2b", result)
    # Serialization weighs far more on the Wasm runtime than on containers.
    for size in result.x_values:
        assert result.value("normalized_breakdown_pct", "Wasm Serialization", size) > result.value(
            "normalized_breakdown_pct", "Cont Serialization", size
        )
