"""jamsim benchmark: one run of one workload, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jamsim checkout; the program is taken from its
``src`` directory and nothing is installed.  With ``--trace 0`` the run
reports the end-to-end metrics listed in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

import checks
import scenarios

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Fresh interpreters timed per run for setup_s (fastest reported).
SETUP_REPS = 5
#: Fresh interpreters timed per traced run for cli.import_s (fastest reported).
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = "import jamsim; jamsim.build_pipeline(jamsim.default_pipeline_config())"
IMPORT_CODE = ("import time; t = time.perf_counter(); import jamsim; "
               "print(time.perf_counter() - t)")

#: kind "cli": rounds of one `jamsim run` process per truth-table cell.
#: kind "sweep": one worker process calling `run_scenario` in a closed loop.
WORKLOADS = {
    "cli-default": {"kind": "cli"},
    "sweep-small": {"kind": "sweep", "n": 4096, "per_cell": 512, "round": 256},
    "sweep-large": {"kind": "sweep", "n": 1048576, "per_cell": 1, "round": 4},
}


class Child(NamedTuple):
    """Result of one child process, timed from spawn to exit."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(cmd: list[str], env: dict, work: str) -> Child:
    """Run `cmd` to completion; wall time and the child's own peak RSS."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("JAMSIM_SEED", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _must(child: Child, what: str) -> Child:
    if child.code != 0:
        raise SystemExit(f"{what} exited {child.code}:\n{child.stderr[-2000:]}")
    return child


def setup_seconds(env: dict, work: str) -> float:
    """Fastest spawn-to-exit time of `import jamsim` + `build_pipeline`."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    return min(_must(spawn(cmd, env, work), "set-up").wall_s for _ in range(SETUP_REPS))


def run_cli_workload(args, env: dict, work: str) -> dict:
    n = scenarios.DEFAULT_SAMPLES
    files = scenarios.write_cells(work, args.seed)
    setup = setup_seconds(env, work)
    walls, rss, errors = [], [], []
    checker = checks.RunDirChecker()
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for path, gen in files:
            out = os.path.join(work, f"out-{attempted}")
            attempted += 1
            child = spawn([sys.executable, "-m", "jamsim.cli", "run", path, "--out", out,
                           "--reproducible"], env, work)
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            try:
                if child.code != 0:
                    raise checks.CheckError(f"{gen.name}: exit {child.code}: "
                                            f"{child.stderr.strip()[-300:]}")
                checker.check(out, gen, n, child.stdout)
            except checks.CheckError as exc:
                failed += 1
                errors.append(str(exc))
            shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() >= deadline:
            break
    best = min(walls)
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": {
            "setup_s": setup,
            "cli_wall_s": best,
            "sim_msamples_per_s": n / best / 1e6,
            "peak_rss_mb": statistics.median(rss),
        },
    }


def run_worker(spec: dict, env: dict, work: str) -> tuple[dict, Child]:
    spec = dict(spec, root=ROOT, work=work)
    child = _must(spawn([sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
                         json.dumps(spec)], env, work), "worker")
    return json.loads(child.stdout.strip().splitlines()[-1]), child


def run_sweep_workload(wl: dict, args, env: dict, work: str) -> dict:
    setup = setup_seconds(env, work)
    res, child = run_worker({"mode": "sweep", "seed": args.seed, "seconds": args.seconds,
                             "trace": False, **wl}, env, work)
    return {
        "attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
        "metrics": {
            "setup_s": setup,
            "cli_wall_s": res["call_s"],
            "sim_msamples_per_s": res["msamples_per_s"],
            "peak_rss_mb": child.rss_mb,
        },
    }


def import_scipy_seconds(stderr: str) -> float:
    """Cumulative import time of every outermost scipy module, from -X importtime.

    Lines are printed when a module finishes, children before parents, so
    walking them backwards visits each parent before its children.
    """
    total_us = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name_field = fields[2]
        depth = len(name_field) - len(name_field.lstrip(" "))
        name = name_field.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            total_us += int(fields[1])
        stack.append((depth, name))
    return total_us / 1e6


def run_traced(wl: dict, args, env: dict, work: str) -> dict:
    import_s = min(
        float(_must(spawn([sys.executable, "-c", IMPORT_CODE], env, work), "import").stdout)
        for _ in range(IMPORT_REPS))
    importtime = _must(spawn([sys.executable, "-X", "importtime", "-c", "import jamsim"],
                             env, work), "importtime")
    mode = "sweep" if wl["kind"] == "sweep" else "cli"
    res, _ = run_worker({"mode": mode, "seed": args.seed, "seconds": args.seconds,
                         "trace": True, **wl}, env, work)
    metrics = {"cli.import_s": import_s,
               "cli.import_scipy_s": import_scipy_seconds(importtime.stderr),
               "trace.overhead_pct": res["overhead_pct"],
               "trace.spans": res["spans"]}
    layers = res["layers"]
    for name, stat in layers.items():
        metrics[f"{name}_ms"] = stat["ms"]
        metrics[f"{name}.calls"] = stat["calls"]
        metrics[f"{name}.samples"] = stat["samples"]
    for layer, span in (("cli", "cli.run_cli"), ("pipeline", "pipeline.run_scenario"),
                        ("trigger", "trigger.trigger_chain"), ("jammer", "jammer.jam")):
        metrics[f"{layer}.self_ms"] = layers[span]["self_ms"]
    metrics["scenario_io.bytes_written"] = sum(
        stat["bytes"] for name, stat in layers.items() if name.startswith("scenario_io.write"))
    return {"attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "jamsim", "__init__.py")):
        print(f"perfbench: no jamsim source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    env = child_env()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.trace:
            res = run_traced(wl, args, env, work)
        elif wl["kind"] == "cli":
            res = run_cli_workload(args, env, work)
        else:
            res = run_sweep_workload(wl, args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(WORK_ROOT)

    for message in res["errors"]:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        print(f"perfbench: run produced no value for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
