"""Benchmark of the wqisa CLI, end to end and layer by layer.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root. Each op is one ``wqisa`` command in a
fresh Python process on the checked-out source (PYTHONPATH=src), which is
what a CLI user pays for and keeps an in-process cache from flattering
repeated ops. The load is a closed loop with one client: this process
launches one op, waits for it, then launches the next, until S seconds
have passed. One untimed warm-up op comes first.

With --trace 0 it reports the end-to-end metrics: medians over the timed
ops of each op's times scaled to a reference host speed (see PROBE_REF_S),
with the raw wall-clock medians printed beside them. With --trace 1 it
alternates untraced and traced ops and reports the per-layer metrics of
the traced op with the median op time, plus the tracing overhead. Inputs are made here from --seed; every op's output is
checked against references computed here, outside the timed region, and
an op whose command fails or whose output is wrong counts as failed.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# the children get the same pins; set before numpy starts its BLAS threads
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Host-speed probe: a child's interpreter start plus `import numpy`, timed
# before any wqisa code runs. On the 2-vCPU host the bounds were set on, CPU
# speed drifts by +-25 % within a minute and the probe tracks it, so the
# end-to-end times are scaled per op by PROBE_REF_S / probe: seconds on a
# host whose probe takes PROBE_REF_S (about its median on that host).
PROBE_REF_S = 0.15

END_TO_END = {  # name -> unit; lower is better for all
    "op_p50_s": "s",
    "cmd_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Op:
    op: int
    traced: bool
    out: Path
    cmd_s: float = 0.0
    setup_s: float = 0.0
    probe_s: float = 0.0
    op_s: float = 0.0
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Inputs:
    """What one run made and what its checks share."""

    seed: int
    workdir: Path
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    cache: dict = field(default_factory=dict)

    @property
    def cloud(self) -> Path:
        return self.workdir / "cloud.xyz"

    @property
    def setup(self) -> Path:
        return self.workdir / "setup"


@dataclass(frozen=True)
class Workload:
    why: str
    argv: tuple            # wqisa arguments; {cloud} {setup} {out} {seed} filled per op
    check: Callable        # (Inputs, op output dir) -> problems
    points: int = 0        # size of the benchmark-made 2-D cloud; 0 makes none
    setup_argv: tuple = ()  # untimed command that makes {setup}/model.json
    setup_check: Callable | None = None


def _fit_check(weight: str, n: int):
    return lambda inp, out: checks.check_fit_dir(out, inp.x, inp.y, weight, (n, n), 2,
                                                 inp.cache)


def _eval_check(inp: Inputs, out: Path):
    return checks.check_grid(out / "grid.csv", inp.setup / "model.json", inp.x,
                             inputs.NOISE_SIGMA, 32, cache=inp.cache)


def _demo_check(inp: Inputs, out: Path):
    try:
        x, y = inputs.read_cloud(out / "cloud.xyz")
    except (OSError, ValueError) as exc:
        return [f"demo cloud unreadable ({exc})"]
    problems, best = checks.check_cv(out, range(5, 51))
    if len(y) != 2000:
        problems.append(f"demo cloud has {len(y)} rows, not 2000")
    if best is None:
        return problems
    return (problems
            + checks.check_fit_dir(out, x, y, "characteristic:r=0.1", (best,), 2)
            + checks.check_grid(out / "grid.csv", out / "model.json", x, 0.3, 256,
                                cache=inp.cache))


def _fit_argv(n: int, weight: str, out: str = "{out}") -> tuple:
    return ("fit", "--data", "{cloud}", "--degree", "2", "--n", str(n),
            "--weight", weight, "--out", out)


WORKLOADS = {
    "fit2d-knn": Workload(
        why="fit --degree 2 --n 50 --weight knn:k=10 on N=1e5: one large k-d tree build, "
            "2500 exact knn queries and a 6 MB parse dominate; weights and inference idle",
        argv=_fit_argv(50, "knn:k=10"), check=_fit_check("knn:k=10", 50),
        points=100_000),
    "fit2d-gauss": Workload(
        why="fit --degree 2 --n 20 --weight gaussian:sigma=0.1 on N=2e4: every coefficient "
            "scores all N rows, no tree; weights kernels and fit bookkeeping dominate",
        argv=_fit_argv(20, "gaussian:sigma=0.1"), check=_fit_check("gaussian:sigma=0.1", 20),
        points=20_000),
    "eval2d-bands": Workload(
        why="eval --density 32 --sigma-eps 0.2 on a knn:k=10 70x70 fit of N=2e4: 4900 "
            "coefficients, over the dense limit; covariance rebuilt, sparse variance twice",
        argv=("eval", "--model", "{setup}/model.json", "--data", "{cloud}",
              "--density", "32", "--sigma-eps", "0.2", "--out", "{out}/grid.csv"),
        check=_eval_check, points=20_000,
        setup_argv=_fit_argv(70, "knn:k=10", "{setup}"),
        setup_check=lambda inp, out: checks.check_fit_dir(
            out, inp.x, inp.y, "knn:k=10", (70, 70), 2)),
    "demo1d-ball": Workload(
        why="demo --count 2000 --grid 5:50 --weight characteristic:r=0.1: 46x5-fold CV, "
            "232 small tree builds, radius queries, the dense covariance branch",
        argv=("demo", "--count", "2000", "--grid", "5:50", "--weight",
              "characteristic:r=0.1", "--sigma", "0.3", "--seed", "{seed}",
              "--out", "{out}"),
        check=_demo_check),
}


def child_env() -> dict:
    """The serial default path: no WQISA_THREADS, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "WQISA_THREADS"}
    env.update(BLAS_PINS, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def launch(inp: Inputs, op: int, argv: tuple, traced: bool, out: Path | None = None) -> Op:
    """Run one command in a fresh process and wait for it."""
    out = out or inp.workdir / f"op{op}"
    out.mkdir(parents=True)
    result = out / "child.json"
    fill = {"cloud": inp.cloud, "setup": inp.setup, "out": out, "seed": inp.seed}
    args = [sys.executable, str(HERE / "child.py"), str(result), str(op),
            "1" if traced else "0", "--", *(a.format(**fill) for a in argv)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out / "stderr.txt"), flags, 0o644)]
    rec = Op(op, traced, out)
    start = mono()
    pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=actions)
    _, status = os.waitpid(pid, 0)
    rec.cmd_s = mono() - start
    code = os.waitstatus_to_exitcode(status)
    try:
        child = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tail = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-300:]
        rec.problems.append(f"op {op}: exit {code}, no timing ({tail.strip()})")
        return rec
    rec.setup_s = child["ready"] - start
    rec.probe_s = child["probe"] - start
    rec.op_s = child["done"] - child["ready"]
    rec.rss_mb = child["peak_rss_kib"] / 1024.0
    if code != 0:
        stdout = (out / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        rec.problems.append(f"op {op}: exit {code}: {stdout.strip()[-300:]}")
    if traced:
        rec.layers = tracing.layer_metrics(child["spans"], child["installed"])
    return rec


def prepare(wl: Workload, inp: Inputs) -> None:
    """Untimed set-up: the cloud file, then any model the op reads."""
    if wl.points:
        inp.x, inp.y = inputs.cloud_2d(wl.points, inp.seed)
        inputs.write_cloud(inp.cloud, inp.x, inp.y)
    if wl.setup_argv:
        rec = launch(inp, -1, wl.setup_argv, False, out=inp.setup)
        problems = rec.problems or wl.setup_check(inp, inp.setup)
        if problems:
            raise BenchError(f"set-up command failed: {problems[0]}")


def measure(wl: Workload, inp: Inputs, seconds: float, trace: bool) -> list[Op]:
    ops = [launch(inp, 0, wl.argv, False)]  # warm-up: bytecode and file cache
    deadline = mono() + seconds
    op = 1
    while mono() < deadline or (trace and len({o.traced for o in ops[1:]}) < 2):
        ops.append(launch(inp, op, wl.argv, trace and op % 2 == 0))
        op += 1
    for rec in ops:
        if not rec.problems:
            try:
                rec.problems = wl.check(inp, rec.out)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                rec.problems = [f"op {rec.op}: malformed output ({exc!r})"]
    return ops


def summarize(ops: list[Op], trace: bool) -> tuple[dict, list[str]]:
    """Metric values and one printable line per metric."""
    timed = [o for o in ops[1:] if not o.problems]
    plain = [o for o in timed if not o.traced]
    if not plain:
        raise BenchError("no timed op succeeded")
    med = statistics.median
    if not trace:
        raw = {"op_p50_s": [o.op_s for o in plain], "cmd_s": [o.cmd_s for o in plain],
               "setup_s": [o.setup_s for o in plain]}
        values = {k: med(t * PROBE_REF_S / o.probe_s for t, o in zip(v, plain))
                  for k, v in raw.items()}
        values["peak_rss_mb"] = med(o.rss_mb for o in plain)
        lines = [f"  {k:<12} {v:10.6f} {END_TO_END[k]:<4} median of {len(plain)} ops"
                 + (f", raw wall {med(raw[k]):.6f} s" if k in raw else "")
                 for k, v in values.items()]
        lines.append(f"  host probe median {med(o.probe_s for o in plain):.6f} s "
                     f"(reference {PROBE_REF_S} s)")
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines
    traced = sorted((o for o in timed if o.traced), key=lambda o: o.layers["trace.op_s"])
    if not traced:
        raise BenchError("no traced op succeeded")
    values = dict(traced[(len(traced) - 1) // 2].layers)
    values["trace.overhead_ratio"] = (med(o.op_s / o.probe_s for o in traced)
                                      / med(o.op_s / o.probe_s for o in plain) - 1.0)
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    lines = [f"  {k:<28} {m['value']:12.6g} {m['unit']:<5} median traced op of "
             f"{len(traced)} ({len(plain)} untraced)" for k, m in metrics.items()]
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("_ratio") else "count"


def environment(seed: int) -> dict:
    """What a result depends on besides the code: machine, versions, seed."""
    info = {"seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(BLAS_PINS["OPENBLAS_NUM_THREADS"])}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    for path, key, out in (("/proc/cpuinfo", "model name", "cpu"),
                           ("/proc/meminfo", "MemTotal", "memory")):
        try:
            with open(path, encoding="utf-8") as fh:
                info[out] = next((ln.split(":", 1)[1].strip() for ln in fh
                                  if ln.startswith(key)), "unknown")
        except OSError:
            info[out] = "unknown"
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        info["git_commit"] = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wqisa").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inp = Inputs(seed, workdir)
        prepare(wl, inp)
        ops = measure(wl, inp, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    failed = [o for o in ops if o.problems]
    for o in failed:
        print(f"FAILED {name} op {o.op}: {'; '.join(o.problems)[:500]}", file=sys.stderr)
    metrics, lines = summarize(ops, trace)
    print(f"{name}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(ops)} ops attempted (1 warm-up), {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(ops):.4f}")
    print("\n".join(lines))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "wqisa" / "cli.py").is_file():
            raise BenchError(f"no wqisa source under {SRC}; run from the repository root")
        print("env " + json.dumps(environment(args.seed)))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
