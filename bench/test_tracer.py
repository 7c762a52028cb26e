"""Tests of the benchmark's tracer: self-time arithmetic and transparent wrapping.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import ROOT, TARGETS, Tracer, root_indices, self_times, summarize  # noqa: E402

from marketgen import cli, datagen, evaluate, frames, neuralnet, rbm  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root 0 [0, 10] has children 1 [1, 4] and 2 [3, 6], which overlap, and
    # 3 [8, 12], which overruns the root; span 4 [2, 3] is a child of span 1.
    ids = [4, 1, 2, 3, 0]
    parents = [1, 0, 0, 0, ROOT]
    starts = [2.0, 1.0, 3.0, 8.0, 0.0]
    ends = [3.0, 4.0, 6.0, 12.0, 10.0]
    got = dict(zip(ids, self_times(ids, parents, starts, ends)))
    # children of the root cover [1, 6] and [8, 10]: 7 of its 10 seconds
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})
    roots = root_indices(ids, parents)
    assert [ids[r] for r in roots] == [0, 0, 0, 0, 0]


def test_self_times_of_disjoint_children_sum_to_root():
    ids = [1, 2, 0, 4, 3]
    parents = [0, 0, ROOT, 3, ROOT]
    starts = [0.5, 2.0, 0.0, 5.5, 5.0]
    ends = [1.5, 2.5, 3.0, 6.0, 7.0]
    selfs = self_times(ids, parents, starts, ends)
    roots = root_indices(ids, parents)
    for r in (2, 4):
        tree = sum(s for s, root in zip(selfs, roots) if root == r)
        assert tree == pytest.approx(ends[r] - starts[r])


def _exercise(tmp_path):
    """Calls that reach traced functions directly and through cli's names."""
    spec = datagen.benchmark_copula_spec()
    frame = datagen.sample_copula(spec, 50, datagen.RngStream(3, 0))
    path = tmp_path / "x.csv"
    cli.write_csv(frame, path)
    back = cli.read_csv(path)
    acf = evaluate.acf(back.data[:, 0], 3)
    layer = neuralnet.dense_layer(4, 2, neuralnet.Activation("identity"), np.random.default_rng(0))
    dense = layer.lin(back.data)
    model = rbm.init_rbm("gaussian", 4, 3, rng=datagen.RngStream(1, 1))
    v, h, p = rbm.gibbs_chain(model, back.data[:7], 2, datagen.RngStream(5, 0))
    return frame.data, back.data, acf.estimate, dense, v, h, p


def test_wrapping_leaves_return_values_unchanged(tmp_path):
    plain = _exercise(tmp_path)
    original, lin = frames.read_csv, neuralnet.Dense.lin
    tracer = Tracer()
    with tracer:
        # cli binds read_csv by name: that binding is wrapped too
        assert cli.read_csv is frames.read_csv and cli.read_csv.__wrapped__ is original
        traced = _exercise(tmp_path)
    assert cli.read_csv is original and frames.read_csv is original
    assert neuralnet.Dense.lin is lin
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)

    s = summarize(tracer)
    assert s.calls["datagen.sample_copula"] == 1
    assert s.calls["frames.read_csv"] == 1 and s.calls["frames.write_csv"] == 1
    assert s.calls["neuralnet.Dense.lin"] == 1
    assert s.counts["datagen.sample_copula.rows"] == 50
    assert s.counts["rbm.gibbs_chain.rows"] == 7
    assert all(v == 0 for v in s.errors.values())


def test_errors_are_counted_and_reraised():
    tracer = Tracer()
    with tracer, pytest.raises(Exception):
        evaluate.acf(np.ones(3), 5)
    assert tracer.errors["evaluate"] == 1
    assert summarize(tracer).calls["evaluate.acf"] == 1


def test_stage_spans_add_up(tmp_path):
    tracer = Tracer()
    with tracer:
        with tracer.span("stage.a"):
            _exercise(tmp_path)
        with tracer.span("stage.b"):
            evaluate.acf(np.arange(20.0) % 7, 2)
    roots = summarize(tracer).roots
    assert [r[0] for r in roots] == ["stage.a", "stage.b"]
    for _, duration, own, tree in roots:
        assert tree == pytest.approx(duration, abs=1e-9)
        assert 0.0 <= own <= duration


def test_benchmark_spec_metrics_are_all_computed():
    saved = dict(os.environ)
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer, tracer.span("stage.a"):
        evaluate.acf(np.arange(20.0) % 7, 2)
    passes = [run.Pass(traced=False), run.Pass(traced=True, summary=summarize(tracer))]
    layers = run.per_layer_metrics(passes)
    e2e = run.end_to_end_metrics(passes[:1], [0.1])
    assert set(m["name"] for m in spec["per_layer"]) <= set(layers)
    assert set(m["name"] for m in spec["end_to_end"]) == set(e2e)
    assert {t.module for t in TARGETS} == {m["name"].split(".")[0] for m in spec["per_layer"]
                                           if m["name"].endswith(".errors")}
