"""Tests of the benchmark itself: generators, checker and tracer.

Run from the root of the checkout with ``python3 -m pytest bench/tests``.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import tracer as tracing
import workloads
from torikit import cli

ROOT = Path(__file__).resolve().parents[2]


def _texts(ops):
    return [(op.command, op.args, op.doc.to_json()) for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_documents(workload):
    first = _texts(workloads.generate(workload, 11))
    assert first == _texts(workloads.generate(workload, 11))
    assert first != _texts(workloads.generate(workload, 12))


def _run(op, tmp_path):
    (argv,) = workloads.write_documents([op], tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _first(workload, command):
    return next(op for op in workloads.generate(workload, 3) if op.command == command)


def _corrupt_analyze(rep):
    rep["euler_characteristic"] += 1


def _corrupt_decompose(rep):
    rep["reduced_cones"] = rep["reduced_cones"][1:]


def _corrupt_hilbert(rep):
    rep["generators"] = rep["generators"][1:]


def _corrupt_roots(rep):
    rep["roots"].append([0] * len(rep["ray"]))


def _corrupt_ga(rep):
    rep["root_degree"] = [-x for x in rep["root_degree"]]


@pytest.mark.parametrize(
    "workload, command, corrupt",
    [
        ("complete_fans", "analyze", _corrupt_analyze),
        ("complete_fans", "decompose", _corrupt_decompose),
        ("hilbert_bases", "hilbert-basis", _corrupt_hilbert),
        ("quasi_affine_actions", "analyze", lambda rep: rep.update(quasi_affine=False)),
        ("quasi_affine_actions", "roots", _corrupt_roots),
        ("quasi_affine_actions", "ga-actions", _corrupt_ga),
    ],
)
def test_checker_rejects_a_corrupted_report(workload, command, corrupt, tmp_path):
    op = _first(workload, command)
    code, report = _run(op, tmp_path)
    assert checks.check(op, code, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check(op, code, bad)
    assert checks.check(op, 3, report)
    del bad["name"]
    assert checks.check(op, code, bad)


@pytest.fixture
def installed():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_times_add_up_to_the_root_span(installed, tmp_path):
    op = _first("quasi_affine_actions", "ga-actions")
    (argv,) = workloads.write_documents([op], tmp_path)
    installed.op = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert sys.modules["torikit.cli"].main(argv) == 0
    spans = installed.spans
    rows = list(spans.rows())
    (root,) = [r for r in rows if r[4] == -1]
    assert root[1] == "cli.main"
    assert len(rows) > 100
    assert all(r[4] < r[0] and r[5] == 0 for r in rows if r is not root)
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(root[3] - root[2], rel=1e-9)


def _bindings():
    """Every attribute of every torikit module and traced class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "torikit" or name.startswith("torikit."):
            out[name] = dict(vars(module))
    for layer, classes in tracing.TRACED_CLASSES.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"torikit.{layer}"], cls_name)
            out[cls.__qualname__] = dict(vars(cls))
    return out


def test_uninstall_restores_the_original_functions():
    before = _bindings()
    t = tracing.Tracer()
    t.install()
    try:
        during = _bindings()
        assert during["torikit.cone"]["matrix_rank"] is not before["torikit.cone"]["matrix_rank"]
        assert during["Cone"]["intersect"] is not before["Cone"]["intersect"]
        assert during["HomogeneousDerivation"]["apply"] is during["HomogeneousDerivation"]["__call__"]
        assert during["torikit"]["hilbert_basis"] is during["torikit.semigroup"]["hilbert_basis"]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[owner][attr] is value, (owner, attr)


def test_benchmark_json_lists_every_traced_metric(installed, tmp_path):
    ops = [_first(w, c) for w, c in (("complete_fans", "analyze"), ("hilbert_bases", "hilbert-basis"))]
    for i, argv in enumerate(workloads.write_documents(ops, tmp_path)):
        installed.op = i
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["torikit.cli"].main(argv)
    emitted = set(tracing.layer_metrics(installed.spans, len(ops))) | {"trace.overhead_pct"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == emitted
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]][1]
