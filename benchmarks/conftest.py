"""Benchmark configuration.

Each benchmark regenerates one paper figure's data at a reduced scale
(``CLOUDFOG_BENCH_SCALE`` env var overrides, default 0.08), records the
series in ``benchmark.extra_info`` and prints the rows the paper's figure
reports. Shape assertions double as regression gates: a benchmark that
passes means the reproduced figure still shows the paper's qualitative
result.
"""

import os

import pytest

#: Population scale for benchmarks. 0.08 keeps the full suite around a
#: few minutes; raise toward 1.0 for paper-scale numbers.
BENCH_SCALE = float(os.environ.get("CLOUDFOG_BENCH_SCALE", "0.08"))
BENCH_SEED = int(os.environ.get("CLOUDFOG_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_seed():
    return BENCH_SEED


def record_series(benchmark, series, title):
    """Attach series to the benchmark record and print the rows."""
    benchmark.extra_info["figure"] = title
    benchmark.extra_info["series"] = [s.to_dict() for s in series]
    print(f"\n== {title} (scale={BENCH_SCALE}) ==")
    for s in series:
        print(s.format_rows())
