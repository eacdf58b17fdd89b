"""Schema of the performance trajectory in `BENCH_large.json`.

Each performance change appends, per workload, the medians and quartiles of
paired benchmark runs before and after it. These tests check the record's
shape and its consistency with `BENCHMARK.json`, never the timings.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV_KEYS = {"python", "numpy", "blas", "blas_version", "blas_threads",
            "nproc", "seed", "git_commit", "source_sha256", "machine"}
COMMIT = re.compile(r"[0-9a-f]{40}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def history():
    return json.loads((ROOT / "BENCH_large.json").read_text(encoding="utf-8"))


def check_side(side, metric_names):
    assert set(side) == {"commit", "env", "metrics"}
    assert side["commit"] is None or COMMIT.fullmatch(side["commit"])
    assert set(side["env"]) == ENV_KEYS
    assert re.fullmatch(r"[0-9a-f]{64}", side["env"]["source_sha256"])
    assert set(side["metrics"]) == metric_names
    for stats in side["metrics"].values():
        assert set(stats) == {"median", "q1", "q3"}
        assert all(isinstance(v, float) for v in stats.values())
        assert stats["q1"] <= stats["median"] <= stats["q3"]


def test_every_entry_has_the_schema(spec, history):
    assert set(history) == {"about", "entries"}
    assert history["entries"], "the trajectory holds no entry"
    workloads = {w["name"] for w in spec["workloads"]}
    metric_names = {m["name"] for m in spec["end_to_end"]}
    for entry in history["entries"]:
        assert set(entry) == {"change", "workload", "seconds", "seeds",
                              "before", "after"}
        assert isinstance(entry["change"], str) and entry["change"]
        assert entry["workload"] in workloads
        assert entry["seconds"] > 0
        seeds = entry["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds)
        assert len(set(seeds)) == len(seeds)
        check_side(entry["before"], metric_names)
        check_side(entry["after"], metric_names)
        # the before side is a commit; both sides ran the same seeds
        assert entry["before"]["commit"] is not None
        for side in ("before", "after"):
            assert entry[side]["env"]["seed"] in seeds
