"""The smoke run: every CLI command and experiment script, end to end, once.

COMMANDS is the repository's one list of end-to-end CLI runs, and SCRIPTS
its runs of the three experiment scripts at small sizes. The `smoke`
fixture runs both once per session, in a child process with RuntimeWarnings
as errors and under sys.setprofile, and the tests read what that one run
leaves behind:

- every command exits with its listed code, a failing one with its listed
  error, and every script runs through;
- the package's public surface holds only what a command or a guarantee
  uses: each function in wqisa.__all__, and each method, property and
  cached property that an exported class defines (exception types aside),
  is entered, unless UNREACHED names it with the reason it stays. A listed
  name that starts being entered fails too, so the list stays exact;
- the files the run writes pass the end-to-end checks that
  tests/test_io_cli.py does not already make: the ball demo's ring-built
  band evaluates as the band rebuilt from piped data, and a 2-D model's
  stored band as its band with --data; a 20000-row file's BLAKE2b digest
  spans several read buffers; one cloud as csv, as xyz and piped with CRLF
  line ends fits alike; the report of a +-1.5e308 cloud is finite; every
  cv curve is full with a finite best; and the metrics of 1-D and 2-D
  models, of a model with no sigma and of two clouds are finite and in
  range.
"""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import types
from functools import cached_property

import pytest

import wqisa

ACCEPTANCE = "called by the acceptance gate (tests/test_acceptance.py)"
TRACED = "wrapped by the benchmark tracer (perfbench/tracing.py)"
UNREACHED = {
    "estimate_control_point": ACCEPTANCE,
    "local_bounds": ACCEPTANCE,
    "insert_knot": ACCEPTANCE,
    "WeightSpec.characteristic": ACCEPTANCE,
    "WeightSpec.gaussian": ACCEPTANCE,
    "WeightSpec.exponential": ACCEPTANCE,
    "WeightSpec.idw": ACCEPTANCE,
    "variance_at": TRACED,
    "se_band": TRACED,
    "band_coverage": TRACED,
    "CoefficientCovariance.matrix": TRACED,
}

PACKAGE = os.path.dirname(wqisa.__file__)
ROOT = os.path.dirname(os.path.dirname(PACKAGE))

# (how the command ends, its argv) in run order; {d} is the run's directory.
# A command ends with its exit code, or, when that is 1, with a JSON error
# whose "<type>: <message>" starts with the text given. "--data <path" hands
# the command a FIFO that carries path's bytes once, as the shell's
# <(cat path) does, and a trailing "> path" keeps the command's stdout
# there. The child's make() writes the inputs that no command writes before
# the first command that names them.
COMMANDS = [
    (0, "gen --count 400 --seed 3 --out {d}/cloud.xyz"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight gaussian:sigma=0.2 --out {d}/fit"),
    (0, "eval --data {d}/cloud.xyz --model {d}/fit/model.json --sigma-eps 0.3 --out {d}/grid.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight exponential:sigma=0.2 --out {d}/exp"),
    (0, "eval --data {d}/cloud.xyz --model {d}/exp/model.json --sigma-eps 0.3 --out {d}/e.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight idw --out {d}/idw"),
    (0, "eval --data {d}/cloud.xyz --model {d}/idw/model.json --sigma-eps 0.3 --out {d}/i.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/knn"),
    (0, "gen --count 20000 --seed 4 --out {d}/big.xyz"),
    (0, "fit --data {d}/big.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/big"),
    (0, "eval --data {d}/cloud.xyz --model {d}/knn/model.json --sigma-eps 0.3 --out {d}/with.csv"),
    (0, "eval --model {d}/knn/model.json --sigma-eps 0.3 --out {d}/without.csv"),
    (0, "fit --data {d}/tiny.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/tiny"),
    ("ParseError: {d}/dropped.json: dropped_rows",
     "eval --data {d}/cloud.xyz --model {d}/dropped.json --out {d}/dropped.csv"),
    ("ValueError: alpha must be",
     "eval --data {d}/cloud.xyz --model {d}/knn/model.json --alpha 1e-17 --out {d}/a.csv"),
    ("ParseError: {d}/drop_no.json: drop_outside",
     "eval --data {d}/cloud.xyz --model {d}/drop_no.json --sigma-eps 0.3 --out {d}/n.csv"),
    (0, "fit --data <{d}/cloud.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/piped"),
    (0, "eval --data <{d}/cloud.xyz --model {d}/piped/model.json --sigma-eps 0.3 "
        "--out {d}/piped.csv"),
    (0, "metrics --data {d}/cloud.xyz --model {d}/fit/model.json --sigma-eps 0.3 "
        "> {d}/metrics.json"),
    ("ValueError: unknown weight parameter 'r'",
     "fit --data {d}/cloud.xyz --weight knn:k=9,r=3 --out {d}/bad"),
    *[("ValueError: gaussian weights need a sigma > 0",
       f"fit --data {{d}}/cloud.xyz --weight gaussian:sigma={sigma} --out {{d}}/sigma")
      for sigma in ("1e-200", "1e200")],
    (0, "fit --data {d}/limit.xyz --n 8 --weight knn:k=5 --out {d}/limit"),
    (0, "fit --data {d}/limit.xyz --n 8 --weight knn:k=5 --outlier-filter --out {d}/limit_f"),
    (0, "cv --data {d}/huge.xyz --grid 2:6 --weight knn:k=5 --out {d}/cv_huge"),
    ("ParseError: line 3: ", "fit --data {d}/latin.xyz --weight knn:k=9 --out {d}/latin"),
    (2, "eval --data {d}/cloud.xyz --model {d}/fit/model.json --weight knn:k=3 --out {d}/b.csv"),
    ("ValueError: {d}/bad_config.json: outlier_filter",
     "fit --config {d}/bad_config.json --data {d}/cloud.xyz --out {d}/bad_config"),
    (0, "cv --data {d}/cloud.xyz --grid 5:8 --folds 3 --out {d}/cv"),
    (0, "cv --data {d}/cloud.xyz --grid 5:8 --weight knn:k=9 --policy nearest --repeats 2 "
        "--out {d}/cv_knn"),
    *[(0, f"cv --data {{d}}/cloud.xyz --grid 5:8 --weight {w} --out {{d}}/cv_{w[:3]}")
      for w in ("gaussian:sigma=0.2", "exponential:sigma=0.2", "idw")],
    (0, "cv --config {d}/narrow.json --data {d}/cloud.xyz --grid 5:8 --weight knn:k=9 "
        "--out {d}/cv_narrow"),
    (0, "demo --config {d}/grid_config.json --count 200 --folds 3 --out {d}/demo"),
    (0, "demo --config {d}/grid_config.json --count 200 --folds 3 "
        "--weight characteristic:r=0.5 --out {d}/demo_ball > {d}/demo_ball.json"),
    (0, "eval --data <{d}/demo_ball/cloud.xyz --model {d}/demo_ball/model.json "
        "--out {d}/rebuilt.csv > {d}/rebuilt.json"),
    ("ValueError: cv_grid", "cv --data {d}/cloud.xyz --grid 5:4 --out {d}/empty_grid"),
    (0, "gen --kind sine_outliers --count 400 --seed 7 --out {d}/outliers.xyz"),
    (0, "fit --data {d}/outliers.xyz --n 12 --weight characteristic:r=0.3 --outlier-filter "
        "--sigma-eps 0.3 --out {d}/filtered"),
    (0, "eval --data {d}/outliers.xyz --model {d}/filtered/model.json --out {d}/filtered.csv"),
    (0, "metrics --data {d}/outliers.xyz --model {d}/filtered/model.json --sigma-eps 0.3"),
    # one seeded cloud as csv, as xyz and piped with CRLF line ends
    *[(0, f"gen --count 400 --seed 11 --out {{d}}/readers.{ext}") for ext in ("csv", "xyz")],
    *[(0, f"fit --data {data} --degree 2 --n 12 --weight knn:k=9 --out {{d}}/{run}")
      for data, run in (("{d}/readers.csv", "csv"), ("{d}/readers.xyz", "xyz"),
                        ("<{d}/crlf.xyz", "crlf"))],
    # metrics of two clouds, written by --out, and of a model with no sigma
    # stored or given, under each scaling the runs above leave out
    (0, "metrics --data {d}/cloud.xyz --data2 {d}/readers.csv --normalize range "
        "--out {d}/pair_metrics.json"),
    (0, "metrics --data {d}/cloud.xyz --model {d}/knn/model.json --normalize max "
        "> {d}/nosigma_metrics.json"),
    # a 2000-row plane cloud; its knn model evaluated with a 1-D cloud
    *[(0, line.replace("{m}", "{d}/plane_" + w[:3]).replace("{w}", w))
      for w in ("knn:k=10", "gaussian:sigma=0.2") for line in (
          "fit --data {d}/plane.xyz --degree 2 --n 12 --weight {w} --out {m}",
          "eval --data {d}/plane.xyz --model {m}/model.json --sigma-eps 0.2 --out {m}/with.csv",
          "metrics --data {d}/plane.xyz --model {m}/model.json --sigma-eps 0.2 "
          "> {m}/metrics.json")],
    (0, "eval --model {d}/plane_knn/model.json --sigma-eps 0.2 --out {d}/plane_knn/without.csv"),
    ("ValueError: point dimension 2 != expected dimension 1",
     "eval --data {d}/cloud.xyz --model {d}/plane_knn/model.json --out {d}/line.csv"),
]

SCRIPTS = [
    "sine_cv_experiment.py --seeds 1 --count 120 --n-high 12",
    "outlier_filter_experiment.py --seeds 1 --count 120",
    "variable_noise_experiment.py --count 300 --density 32",
]

CHILD = r"""
import contextlib, io, json, os, runpy, sys, threading, traceback
from pathlib import Path
import numpy as np

d, root, package = sys.argv[1:4]
commands, scripts = json.loads(sys.argv[4]), json.loads(sys.argv[5])
entered, runs = set(), []
TEXTS = {"bad_config.json": '{"outlier_filter": "false"}',
         "narrow.json": '{"domain": [[-1.5, 1.5]]}', "grid_config.json": '{"cv_grid": [6, 7]}'}


def save(name, *columns):
    Path(d, name).write_text("".join(" ".join(map(repr, row)) + "\n"
                                     for row in np.column_stack(columns).tolist()))


def edited(source, name, change):
    model = json.loads(Path(d, source).read_text())
    change(model)
    Path(d, name).write_text(json.dumps(model))


def make(name):
    # the inputs no command writes; any other name is a command's output
    if name in TEXTS:
        Path(d, name).write_text(TEXTS[name])
    elif name == "tiny.xyz":
        rows = np.loadtxt(d + "/cloud.xyz", ndmin=2)
        save(name, rows[:, 0], rows[:, 1] * 1e-20)
    elif name == "dropped.json":
        edited("knn/model.json", name, lambda model: model.update(dropped_rows=[-1]))
    elif name == "drop_no.json":
        edited("fit/model.json", name, lambda model: model["policy"].update(drop_outside="no"))
    elif name == "limit.xyz":
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        save(name, x, np.where(rng.random(200) < 0.5, -1.0, 1.0) * 1.5e308 * np.abs(np.sin(5 * x)))
    elif name == "huge.xyz":
        rng = np.random.default_rng(8)
        save(name, rng.uniform(-1, 1, 200), 1e100 * rng.standard_normal(200))
    elif name == "latin.xyz":  # line 3 holds a byte that is not UTF-8
        lines = Path(d, "cloud.xyz").read_bytes().splitlines(keepends=True)
        Path(d, name).write_bytes(b"".join(lines[:2] + [b"0.5 \377\n"] + lines[3:]))
    elif name == "crlf.xyz":
        Path(d, name).write_bytes(Path(d, "readers.xyz").read_bytes().replace(b"\n", b"\r\n"))
    elif name == "plane.xyz":
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2000, 2))
        save(name, x, np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + 0.2 * rng.standard_normal(2000))


def piped(path, fifo):
    # fifo, a new pipe that a thread fills with path's bytes once
    data = open(path, "rb").read()
    os.mkfifo(fifo)

    def fill():
        with open(fifo, "wb") as fh:
            fh.write(data)

    threading.Thread(target=fill, daemon=True).start()
    return fifo


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


from wqisa.cli import main

sys.setprofile(record)
for i, (_, line) in enumerate(commands):
    line, _, saved = line.format(d=d).partition(" > ")
    argv = []
    for arg in line.split():
        path = arg.removeprefix("<")
        if path.startswith(d + "/") and not os.path.exists(path):
            make(path[len(d) + 1:])
        argv.append(piped(path, f"{d}/pipe{i}") if arg.startswith("<") else arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    if saved:
        Path(saved).write_text(out.getvalue())
    runs.append([code, out.getvalue()])
for line in scripts:
    name, *args = line.split()
    sys.argv = [name, *args, "--out", d + "/scripts"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(os.path.join(root, "scripts", name), run_name="__main__")
        runs.append([0, ""])
    except Exception:
        runs.append([1, traceback.format_exc()])
sys.setprofile(None)
print(json.dumps({"runs": runs, "entered": sorted(
    {(c.co_filename, c.co_firstlineno) for c in entered if c.co_filename.startswith(package)})}))
"""


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The one run of COMMANDS and SCRIPTS: its directory d, each run's
    [exit code, stdout or traceback] and the package code it entered."""
    d = tmp_path_factory.mktemp("smoke")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(PACKAGE)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(d), ROOT, PACKAGE,
         json.dumps(COMMANDS), json.dumps(SCRIPTS)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return types.SimpleNamespace(d=d, runs=out["runs"],
                                 entered={tuple(key) for key in out["entered"]})


def read(path):
    return json.loads(path.read_text())


def ended_as_listed(expected, code, out, d) -> bool:
    if isinstance(expected, int):
        return code == expected
    error = json.loads(out)["error"] if code == 1 else {}
    return f"{error.get('type')}: {error.get('message')}".startswith(expected.format(d=d))


def test_every_command_and_script_ends_as_listed(smoke):
    listed = COMMANDS + [(0, "scripts/" + line) for line in SCRIPTS]
    assert len(smoke.runs) == len(listed)
    wrong = [f"exit {code}, not {expected!r}: {line}\n{out}"
             for (expected, line), (code, out) in zip(listed, smoke.runs)
             if not ended_as_listed(expected, code, out, smoke.d)]
    assert not wrong, "\n".join(wrong)


def surface():
    """{qualified name: code} of each function in wqisa.__all__ and each
    method, property and cached property defined in the package by an
    exported class that is not an exception type."""
    out = {}
    for name in wqisa.__all__:
        obj = getattr(wqisa, name)
        if inspect.isfunction(obj):
            out[name] = obj.__code__
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                    continue
                func = (member.fget if isinstance(member, property)
                        else member.func if isinstance(member, cached_property)
                        else getattr(member, "__func__", member))
                code = getattr(func, "__code__", None)
                if code is not None and code.co_filename.startswith(PACKAGE):
                    out[f"{name}.{attr}"] = code
    return out


def test_every_public_name_is_entered_by_a_command_or_listed(smoke):
    never = {name for name, code in surface().items()
             if (code.co_filename, code.co_firstlineno) not in smoke.entered}
    assert never - set(UNREACHED) == set(), "public, and entered by no command or script"
    assert set(UNREACHED) - never == set(), "entered now: take it off UNREACHED"


def test_a_stored_band_evaluates_as_the_band_rebuilt_from_data(smoke):
    d = smoke.d
    # the ball demo's ring-built band, written and read back, against the
    # band rebuilt from piped data; a 2-D knn model with --data and without
    assert read(d / "demo_ball.json")["grid"]["covariance"] == "model"
    assert read(d / "rebuilt.json")["covariance"] == "data"
    for a, b in (("demo_ball/grid.csv", "rebuilt.csv"),
                 ("plane_knn/with.csv", "plane_knn/without.csv")):
        assert (d / a).read_bytes() == (d / b).read_bytes(), (a, b)


def test_a_model_stores_the_blake2b_of_data_read_across_buffers(smoke):
    d = smoke.d
    assert (d / "big.xyz").stat().st_size >= 4 << 16  # past four 64 KiB digest buffers
    raw = read(d / "big" / "model.json")
    assert raw.get("data_blake2b") == hashlib.blake2b((d / "big.xyz").read_bytes()).hexdigest()
    assert "data_sha256" not in raw


def test_both_cloud_readers_and_crlf_line_ends_fit_alike(smoke):
    d = smoke.d
    assert b"\r\n" in (d / "crlf.xyz").read_bytes()[:200]
    want = read(d / "xyz" / "model.json")
    for run in ("csv", "crlf"):
        got = read(d / run / "model.json")
        assert [got[key] == want[key] for key in ("coefficients", "band")] == [True, True], run


def test_the_report_of_a_near_limit_cloud_is_finite(smoke):
    # y = +-1.5e308 |sin 5x|: residuals and their squares pass the float range
    report = read(smoke.d / "limit" / "report.json")["error_report"]
    assert all(math.isfinite(report[key]) for key in ("rmse", "mae", "std")), report


def test_cv_curves_hold_every_candidate_and_a_finite_best(smoke):
    for run, candidates in [("cv", 4), ("cv_knn", 4), ("cv_gau", 4), ("cv_exp", 4),
                            ("cv_idw", 4), ("cv_narrow", 4), ("demo", 2)]:
        rows = (smoke.d / run / "cv.csv").read_text().splitlines()[1:]
        assert len(rows) == candidates, run
        assert math.isfinite(min(float(row.split(",")[1]) for row in rows)), run


def test_metrics_are_finite_and_in_range(smoke):
    # with no sigma, and between two clouds, there is no band to cover the rows
    for name, scale, banded in [("metrics.json", "none", True),
                                ("plane_knn/metrics.json", "none", True),
                                ("plane_gau/metrics.json", "none", True),
                                ("pair_metrics.json", "range", False),
                                ("nosigma_metrics.json", "max", False)]:
        rep = read(smoke.d / name)
        assert rep["normalize"] == scale and ("band_coverage" in rep) == banded, name
        assert math.isfinite(rep["directed_hausdorff"]), name
        assert all(math.isfinite(v) for v in rep["error_report"].values()), name
        assert all(0.0 <= rep[key] <= 1.0 for key in ("jaccard", "band_coverage")
                   if key in rep), name
