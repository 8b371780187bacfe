"""The package's public surface holds only what a command or a guarantee uses.

A child process runs the commands of CI's CLI smoke step on its 400-row
clouds (the piped runs and the 20000-row digest check aside) and the three
experiment scripts at CI's sizes under sys.setprofile, and records every
package function it enters. Each function in wqisa.__all__, and each
method, property and cached property that an exported class defines
(exception types aside), must be entered, unless UNREACHED names it with the
reason it stays. A listed name that starts being entered fails too, so the
list stays exact.
"""

import inspect
import json
import os
import subprocess
import sys
from functools import cached_property

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

# each command's exit code and argv, in CI's order; {d} is the run's
# directory. Files CI makes with shell tools the child writes before the
# command that first reads them.
COMMANDS = [
    (0, "gen --count 400 --seed 3 --out {d}/cloud.xyz"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight gaussian:sigma=0.2 --out {d}/fit"),
    (0, "eval --data {d}/cloud.xyz --model {d}/fit/model.json --sigma-eps 0.3 --out {d}/grid.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight exponential:sigma=0.2 --out {d}/exp"),
    (0, "eval --data {d}/cloud.xyz --model {d}/exp/model.json --sigma-eps 0.3 --out {d}/e.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight idw --out {d}/idw"),
    (0, "eval --data {d}/cloud.xyz --model {d}/idw/model.json --sigma-eps 0.3 --out {d}/i.csv"),
    (0, "fit --data {d}/cloud.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/knn"),
    (0, "eval --data {d}/cloud.xyz --model {d}/knn/model.json --sigma-eps 0.3 --out {d}/with.csv"),
    (0, "eval --model {d}/knn/model.json --sigma-eps 0.3 --out {d}/without.csv"),
    (0, "fit --data {d}/tiny.xyz --degree 2 --n 12 --weight knn:k=9 --out {d}/tiny"),
    (1, "eval --data {d}/cloud.xyz --model {d}/dropped.json --out {d}/dropped.csv"),
    (1, "eval --data {d}/cloud.xyz --model {d}/knn/model.json --alpha 1e-17 --out {d}/a.csv"),
    (1, "eval --data {d}/cloud.xyz --model {d}/drop_no.json --sigma-eps 0.3 --out {d}/n.csv"),
    (0, "metrics --data {d}/cloud.xyz --model {d}/fit/model.json --sigma-eps 0.3"),
    (1, "fit --data {d}/cloud.xyz --weight knn:k=9,r=3 --out {d}/bad"),
    (1, "fit --data {d}/cloud.xyz --weight gaussian:sigma=1e-200 --out {d}/sigma"),
    (1, "fit --data {d}/cloud.xyz --weight gaussian:sigma=1e200 --out {d}/sigma"),
    (0, "fit --data {d}/limit.xyz --n 8 --weight knn:k=5 --out {d}/limit"),
    (0, "fit --data {d}/limit.xyz --n 8 --weight knn:k=5 --outlier-filter --out {d}/limit_f"),
    (0, "cv --data {d}/huge.xyz --grid 2:6 --weight knn:k=5 --out {d}/cv_huge"),
    (1, "fit --data {d}/latin.xyz --weight knn:k=9 --out {d}/latin"),
    (2, "eval --data {d}/cloud.xyz --model {d}/fit/model.json --weight knn:k=3 --out {d}/b.csv"),
    (1, "fit --config {d}/bad_config.json --data {d}/cloud.xyz --out {d}/bad_config"),
    (0, "cv --data {d}/cloud.xyz --grid 5:8 --folds 3 --out {d}/cv"),
    (0, "cv --data {d}/cloud.xyz --grid 5:8 --weight knn:k=9 --policy nearest --repeats 2 "
        "--out {d}/cv_knn"),
    *[(0, f"cv --data {{d}}/cloud.xyz --grid 5:8 --weight {w} --out {{d}}/cv_{w[:3]}")
      for w in ("gaussian:sigma=0.2", "exponential:sigma=0.2", "idw")],
    (0, "cv --config {d}/narrow.json --data {d}/cloud.xyz --grid 5:8 --weight knn:k=9 "
        "--out {d}/cv_narrow"),
    (0, "demo --config {d}/grid_config.json --count 200 --folds 3 --out {d}/demo"),
    (0, "demo --config {d}/grid_config.json --count 200 --folds 3 "
        "--weight characteristic:r=0.5 --out {d}/demo_ball"),
    (0, "eval --data {d}/demo_ball/cloud.xyz --model {d}/demo_ball/model.json "
        "--out {d}/rebuilt.csv"),
    (1, "cv --data {d}/cloud.xyz --grid 5:4 --out {d}/empty_grid"),
    (0, "gen --kind sine_outliers --count 400 --seed 7 --out {d}/outliers.xyz"),
    (0, "fit --data {d}/outliers.xyz --n 12 --weight characteristic:r=0.3 --outlier-filter "
        "--sigma-eps 0.3 --out {d}/filtered"),
    (0, "eval --data {d}/outliers.xyz --model {d}/filtered/model.json --out {d}/filtered.csv"),
    (0, "metrics --data {d}/outliers.xyz --model {d}/filtered/model.json --sigma-eps 0.3"),
    (0, "gen --count 400 --seed 11 --out {d}/cloud.csv"),
    (0, "fit --data {d}/cloud.csv --degree 2 --n 12 --weight knn:k=9 --out {d}/csv"),
]

SCRIPTS = [
    "sine_cv_experiment.py --seeds 1 --count 120 --n-high 12",
    "outlier_filter_experiment.py --seeds 1 --count 120",
    "variable_noise_experiment.py --count 300 --density 32",
]

CHILD = r"""
import contextlib, io, json, os, runpy, sys
import numpy as np

d, root, package = sys.argv[1:4]
commands, scripts = json.loads(sys.argv[4]), json.loads(sys.argv[5])
entered = set()


def save(name, x, y):
    open(d + name, "w").writelines(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def inputs(before):
    # the clouds and files CI's smoke step makes with shell tools
    if before.startswith("fit --data {d}/tiny.xyz"):
        rows = np.loadtxt(d + "/cloud.xyz", ndmin=2)
        save("/tiny.xyz", rows[:, 0], rows[:, 1] * 1e-20)
        model = json.load(open(d + "/knn/model.json"))
        json.dump({**model, "dropped_rows": [-1]}, open(d + "/dropped.json", "w"))
        model = json.load(open(d + "/fit/model.json"))
        model["policy"]["drop_outside"] = "no"
        json.dump(model, open(d + "/drop_no.json", "w"))
    if before.startswith("fit --data {d}/limit.xyz --n 8 --weight knn:k=5 --out"):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0) * 1.5e308 * np.abs(np.sin(5 * x))
        save("/limit.xyz", x, y)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 200)
        save("/huge.xyz", x, 1e100 * rng.standard_normal(200))
        lines = open(d + "/cloud.xyz", "rb").read().splitlines(keepends=True)
        open(d + "/latin.xyz", "wb").write(b"".join(lines[:2] + [b"0.5 \377\n"] + lines[3:]))
        open(d + "/bad_config.json", "w").write('{"outlier_filter": "false"}')
        open(d + "/narrow.json", "w").write('{"domain": [[-1.5, 1.5]]}')
        open(d + "/grid_config.json", "w").write('{"cv_grid": [6, 7]}')


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


from wqisa.cli import main

sys.setprofile(record)
for code, line in commands:
    inputs(line)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            got = main(line.format(d=d).split())
        except SystemExit as exc:  # argparse rejects a flag
            got = exc.code
    if got != code:
        sys.exit(f"exit {got}, not {code}: {line}")
for line in scripts:
    name, *args = line.split()
    sys.argv = [name, *args, "--out", d + "/scripts"]
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(os.path.join(root, "scripts", name), run_name="__main__")
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered
                         if c.co_filename.startswith(package)})))
"""


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


def test_every_public_name_is_entered_by_a_command_or_listed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(PACKAGE)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), ROOT, PACKAGE,
         json.dumps(COMMANDS), json.dumps(SCRIPTS)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    never = {name for name, code in surface().items()
             if (code.co_filename, code.co_firstlineno) not in entered}
    assert never - set(UNREACHED) == set(), "public, and entered by no command or script"
    assert set(UNREACHED) - never == set(), "entered now: take it off UNREACHED"
