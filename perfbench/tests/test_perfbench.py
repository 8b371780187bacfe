"""Tests of the benchmark's own logic: span accounting, wrapping, checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Target  # noqa: E402


def _span(name, start, end, parent, counts=None):
    return [7, name, start, end, parent, counts]


NESTED = [
    _span("cli", 0.0, 10.0, -1),
    _span("fitting.fit", 1.0, 7.0, 0, {"fitting.fits": 1, "fitting.support_max": 4}),
    _span("kdtree.build", 2.0, 4.0, 1, {"kdtree.builds": 1}),
    _span("kdtree.knn", 4.5, 5.0, 1, {"kdtree.knn_queries": 1}),
    _span("io.load", 8.0, 9.0, 0),
    _span("fitting.fit", 9.25, 9.5, 0, {"fitting.fits": 1, "fitting.support_max": 9}),
]


def test_self_time_is_duration_minus_covered_child_time():
    assert tracing.self_times(NESTED) == [10.0 - 6.0 - 1.0 - 0.25, 6.0 - 2.0 - 0.5,
                                          2.0, 0.5, 1.0, 0.25]


def test_layer_self_times_sum_to_the_op():
    installed = ["fitting.fit", "kdtree.build", "kdtree.knn", "io.load"]
    m = tracing.layer_metrics(NESTED, installed)
    assert m["trace.op_s"] == 10.0
    assert m["fitting.self_s"] == 3.5 + 0.25
    assert m["fitting.fits"] == 2 and m["fitting.support_max"] == 9
    assert m["kdtree.builds"] == 1 and m["kdtree.knn_queries"] == 1
    assert m["kdtree.rows_returned"] == 0  # the knn span carried no count for it
    parts = sum(v for k, v in m.items() if k.endswith("_s") and k != "trace.op_s")
    assert parts == pytest.approx(m["trace.op_s"], abs=1e-12)
    # a wrapped name that no longer exists reads as absent, not as zero
    assert "kdtree.radius_queries" not in m and "weights.calls" not in m


def test_cv_fits_count_only_fits_inside_cv():
    spans = [_span("cli", 0, 9, -1), _span("inference.cv", 1, 5, 0),
             _span("fitting.fit", 2, 3, 1, {"fitting.fits": 1}),
             _span("fitting.fit", 3, 4, 1, {"fitting.fits": 1}),
             _span("fitting.fit", 6, 7, 0, {"fitting.fits": 1})]
    m = tracing.layer_metrics(spans, ["inference.cv", "fitting.fit"])
    assert m["inference.cv_fits"] == 2 and m["fitting.fits"] == 3


@pytest.fixture
def fake_package():
    """fakepkg.a defines f, K and its property; fakepkg.b re-binds f by name."""
    a = types.ModuleType("fakepkg.a")
    exec("def f(x):\n    return x + 1\n"
         "class K:\n    def m(self):\n        return 2\n"
         "    @property\n    def p(self):\n        return 3\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.g = a.f
    exec("def call(x):\n    return g(x)\n", b.__dict__)
    mods = {"fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        sys.modules.pop(name)


def test_identity_scan_wraps_a_rebound_name(fake_package):
    a, b = fake_package
    table = [Target("fakepkg.a", "f", "x.f", "x.self_s"),
             Target("fakepkg.a", "K.m", "x.m", "x.self_s"),
             Target("fakepkg.a", "K.p", "x.p", "x.self_s"),
             Target("fakepkg.a", "gone", "x.gone", "x.gone_s")]
    tracer = tracing.Tracer()
    assert tracing.install(tracer, prefix="fakepkg", table=table) == ["x.f", "x.m", "x.p"]
    assert b.call(1) == 2 and a.f(1) == 2
    assert a.K().m() == 2 and a.K().p == 3
    assert [s[1] for s in tracer.spans] == ["x.f", "x.f", "x.m", "x.p"]


def _model_dir(tmp_path, x, y, weight, n):
    knots = [checks.uniform_knots(x[:, k].min(), x[:, k].max(), n, 2).tolist()
             for k in range(x.shape[1])]
    coeffs = checks.reference_means(weight, x, y, checks.site_grid(knots, [2, 2]))
    model = {"degrees": [2, 2], "knots": knots, "weight": weight,
             "coefficients": coeffs.reshape(n, n).tolist()}
    (tmp_path / "model.json").write_text(json.dumps(model))
    report = {"bounds": {"lo": float(y.min()), "hi": float(y.max()), "verified": True}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    return model


@pytest.mark.parametrize("weight", ["knn:k=10", "gaussian:sigma=0.1",
                                    "characteristic:r=0.3"])
def test_check_fails_on_a_perturbed_coefficient(tmp_path, weight):
    x, y = inputs.cloud_2d(500, seed=3)
    model = _model_dir(tmp_path, x, y, weight, 6)
    assert checks.check_fit_dir(tmp_path, x, y, weight, (6, 6), 2) == []
    model["coefficients"][2][3] += 1e-9
    (tmp_path / "model.json").write_text(json.dumps(model))
    problems = checks.check_fit_dir(tmp_path, x, y, weight, (6, 6), 2)
    assert len(problems) == 1 and problems[0].startswith("coefficient 15:")


def test_knn_reference_breaks_ties_by_index():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, size=(60, 2)).astype(float)  # many exact ties
    y = rng.standard_normal(60)
    sites = rng.integers(0, 4, size=(9, 2)) + 0.5 * rng.integers(0, 2, size=(9, 2))
    got = checks.reference_means("knn:k=7", x, y, sites)
    for s, g in zip(sites, got):
        d2 = ((x - s) ** 2).sum(axis=1)
        order = sorted(range(len(x)), key=lambda i: (d2[i], i))[:7]
        assert g == pytest.approx(y[order].mean(), abs=1e-15)


def _grid_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _write_grid_csv(path, header, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(",".join(map(repr, row)) + "\n" for row in data.tolist())


@pytest.mark.parametrize("weight", ["knn:k=10", "characteristic:r=0.4"])
def test_grid_check_holds_the_cli_to_its_references(tmp_path, weight):
    inp = run.Inputs(4, tmp_path)
    inp.x, inp.y = inputs.cloud_2d(400, seed=4)
    inputs.write_cloud(inp.cloud, inp.x, inp.y)
    fit = run.launch(inp, -1, run._fit_argv(7, weight, "{setup}"), False, out=inp.setup)
    ev = run.launch(inp, 1, ("eval", "--model", "{setup}/model.json", "--data", "{cloud}",
                             "--density", "9", "--sigma-eps", "0.2", "--out",
                             "{out}/grid.csv"), False)
    assert fit.problems == [] and ev.problems == []
    grid, model = ev.out / "grid.csv", inp.setup / "model.json"
    assert checks.check_fit_dir(inp.setup, inp.x, inp.y, weight, (7, 7), 2) == []
    assert checks.check_grid(grid, model, inp.x, 0.2, 9) == []
    header, data = _grid_csv(grid)
    flat = data.copy()  # a band of zero width: var = 0, lo = f = hi
    flat[:, 3] = 0.0
    flat[:, 4] = flat[:, 5] = flat[:, 2]
    _write_grid_csv(grid, header, flat)
    assert any(p.startswith("row 0: var") for p in checks.check_grid(grid, model, inp.x, 0.2, 9))
    moved = data.copy()  # a fit that is off by 1e-9 but inside the data range
    moved[40, [2, 4, 5]] += 1e-9
    _write_grid_csv(grid, header, moved)
    problems = checks.check_grid(grid, model, inp.x, 0.2, 9)
    assert len(problems) == 1 and problems[0].startswith(f"row 40: f {float(moved[40, 2])!r} vs")


def test_basis_is_a_partition_of_unity_up_to_the_right_end():
    knots = checks.uniform_knots(-1.0, 2.0, 9, 3)
    b = checks.basis_matrix(knots, 3, np.linspace(-1.0, 2.0, 50))
    assert b.shape == (50, 9) and np.all(b >= 0.0)
    assert np.allclose(b.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert b[-1, -1] == 1.0 and b[0, 0] == 1.0


def test_cloud_round_trips_through_its_text_file(tmp_path):
    x, y = inputs.cloud_2d(100, seed=5)
    inputs.write_cloud(tmp_path / "c.xyz", x, y)
    x2, y2 = inputs.read_cloud(tmp_path / "c.xyz")
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    assert np.array_equal(inputs.cloud_2d(100, seed=5)[1], y)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        k: w.why for k, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = {tracing.ROOT_METRIC, "trace.op_s", "trace.overhead_ratio"}
    for t in tracing.targets():
        names |= {t.self_metric, *t.counts}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_end_to_end_times_are_scaled_by_each_ops_probe():
    # a host twice as slow doubles both the probe and the op: same scaled time
    ops = [run.Op(i, False, Path("."), op_s=t, cmd_s=t + p, setup_s=p, probe_s=p, rss_mb=50.0)
           for i, (t, p) in enumerate([(9.0, 9.0), (1.0, 0.15), (2.0, 0.3), (1.5, 0.15)])]
    metrics, lines = run.summarize(ops, trace=False)  # ops[0] is the warm-up
    assert metrics["op_p50_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(run.PROBE_REF_S)
    assert metrics["peak_rss_mb"] == {"value": 50.0, "unit": "MiB"}
    assert "raw wall 1.500000 s" in lines[0]


@pytest.mark.parametrize("model", [{"weight": "knn:k=10", "degrees": [2, 2]}, [1, 2]])
def test_malformed_output_counts_as_a_failed_op(tmp_path, monkeypatch, model):
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "report.json").write_text("{}")
    x, y = inputs.cloud_2d(50, seed=1)
    wl = run.Workload(why="", argv=(), check=lambda inp, out: checks.check_fit_dir(
        out, x, y, "knn:k=10", (4, 4), 2))
    monkeypatch.setattr(run, "launch", lambda *a, **k: run.Op(0, False, tmp_path))
    ops = run.measure(wl, run.Inputs(1, tmp_path), 0.0, False)  # the warm-up op only
    assert len(ops) == 1 and "malformed output" in ops[0].problems[0]
