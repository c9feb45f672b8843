"""Self-checks of the benchmark: seeded inputs, expected summaries, the
tracer and failure accounting.  Run from the root of the checkout:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses

import pytest

from run import SRC, _child, run_workload
from tracer import ENTRY_POINTS, UNITS
from workloads import WORKLOADS

LAYER_METRICS = [name for name in UNITS if name.endswith(".self_s")]


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    """sample(workload, seed, traced) -> child result, each run once."""
    done = {}

    def get(workload, seed, traced=False):
        key = (workload.name, seed, traced)
        if key not in done:
            path = tmp_path_factory.mktemp(workload.name) / (workload.algebra + ".alg")
            text, argv = workload.inputs(seed, str(path))
            path.write_text(text)
            done[key] = _child([str(SRC), str(path), str(int(traced))] + argv, 170)
        return done[key]

    return get


def _bundled_lines(workload):
    text = (SRC / "torslab" / "data" / (workload.algebra + ".alg")).read_text()
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    return ["field p=%d" % workload.p if line.startswith("field") else line for line in lines if line]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_seed_zero_is_the_bundled_algebra(workload):
    text, argv = workload.inputs(0, "x.alg")
    assert text.splitlines() == _bundled_lines(workload)
    assert argv[argv.index("--bound") + 1] == ",".join(map(str, workload.bound))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_seeds_relabel_the_algebra(workload):
    texts = {workload.inputs(seed, "x.alg")[0] for seed in range(6)}
    assert len(texts) > 1
    assert workload.inputs(4, "x.alg") == workload.inputs(4, "x.alg")
    for seed in range(6):
        text, _ = workload.inputs(seed, "x.alg")
        assert sorted(text.splitlines()[1].split()[1:]) == sorted(workload.quiver[0])
        assert sum(line.startswith("arrow ") for line in text.splitlines()) == len(workload.quiver[1])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_summary_is_the_expected_one(sample, workload, seed):
    got = sample(workload, seed)
    assert got["error"] is None
    assert got["summary"] == workload.expected


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_tracing_changes_no_report_and_layers_cover_the_run(sample, workload):
    plain = sample(workload, 0)
    traced = sample(workload, 0, traced=True)
    assert traced["error"] is None
    assert traced["sha256"] == plain["sha256"]
    layers = traced["layers"]
    assert layers["trace.coverage"] >= 0.9
    assert sum(layers[name] for name in LAYER_METRICS) <= traced["wall_s"]


def test_every_entry_point_is_called_on_some_workload(sample):
    """A name bound by `from .x import f` that the tracer missed shows here."""
    seen = {entry: 0 for _, entry, _, _ in ENTRY_POINTS}
    for workload in WORKLOADS:
        for entry, calls in sample(workload, 0, traced=True)["calls"].items():
            seen[entry] += calls
    assert [entry for entry, calls in seen.items() if not calls] == []


def test_a_raising_command_counts_as_failed():
    """numdis on Kronecker at p=3, bound 2,3 raises BudgetError out of cli.main."""
    census = next(w for w in WORKLOADS if w.name == "census")
    raising = dataclasses.replace(census, name="raising", p=3, bound=(2, 3))
    result, notes = run_workload(raising, seed=0, seconds=0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert any("error=BudgetError" in line for line in notes)
    assert "raising failed_ratio 1.0 1" in notes
