"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the package is
imported from ``src/`` (pure Python, nothing to build).  Workloads:

* ``bulk-reach`` — linear reachability over a 100k-edge graph;
* ``paper-sets`` — the paper's set programs (parts explosion, book
  deals, the social network's grouping and negation);
* ``serve-churn`` — a durable ``repro serve`` under two closed-loop
  connections mixing cached reads, cold reads and writes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (spans are written under
``.bench_out/``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as names  # noqa: E402
import procstat  # noqa: E402

WORKLOADS = ("bulk-reach", "paper-sets", "serve-churn")
#: set-up is measured this many times per run; the median is reported
SETUP_RUNS = 5
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """The environment of every process the benchmark starts.

    The package comes from this checkout's ``src``; ``REPRO_*`` knobs of
    the caller are dropped so the default configuration is measured; the
    hash seed is fixed so set iteration order repeats between runs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A ``batch.py`` child; reads its tagged JSON lines."""

    def __init__(self, argv: list[str]) -> None:
        self.speed = procstat.probe()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "batch.py"), *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def expect(self, tag: str) -> tuple[dict, float]:
        """The payload of the next ``tag`` line and when it arrived."""
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:]), time.perf_counter()
            sys.stdout.write(line)
        raise RuntimeError(f"worker ended without {tag} (exit {self.proc.wait()})")

    def setup(self) -> tuple[dict, float, float]:
        """Wait for READY: ``(payload, set-up seconds, probe seconds)``.

        Input preparation is subtracted; the machine speed is probed just
        before the launch and just after READY."""
        ready, at = self.expect("READY")
        speed = (self.speed + procstat.probe()) / 2
        return ready, at - self.start - ready["prep_s"], speed

    def close(self) -> int:
        self.proc.stdout.close()
        code = self.proc.wait()
        self.watchdog.cancel()
        return code


def run_batch(args, spans: str):
    """Returns ``(values, attempted, failed, correct, notes, setting)``."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, speeds, oks = [], [], []
    for _ in range(SETUP_RUNS - 1):
        worker = Worker(common + ["--setup-only"])
        try:
            ready, setup, speed = worker.setup()
        finally:
            code = worker.close()
        setups.append(setup)
        speeds.append(speed)
        oks.append(ready["ok"] and code == 0)
    worker = Worker(common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--spans", spans])
    try:
        ready, setup, speed = worker.setup()
        setups.append(setup)
        speeds.append(speed)
        result, _ = worker.expect("RESULT")
    finally:
        code = worker.close()
    oks.append(ready["ok"] and code == 0)
    values = result["values"]
    if args.trace:
        values["error_rate"] = result["failed"] / result["attempted"]
    else:
        values["setup_s"] = statistics.median(
            procstat.at_reference_speed(s, p) for s, p in zip(setups, speeds)
        )
    walls = result["walls"]
    notes = [
        f"evaluations={len(walls)} measured wall_s min={min(walls):.4f} "
        f"median={statistics.median(walls):.4f} max={max(walls):.4f}",
        f"measured setup_s: {' '.join(f'{s:.4f}' for s in setups)}",
        procstat.describe_speed(result["speeds"] + speeds),
    ]
    correct = all(oks) and result["failed"] == 0
    # one evaluation at a time, no connections, no durable store
    setting = {"loop": "closed", "connections": 0, "fsync": "none"}
    return values, result["attempted"], result["failed"], correct, notes, setting


def run_serve(args, work: str, spans: str):
    """Returns ``(values, attempted, failed, correct, notes, setting)``."""
    # the load process imports the package too (client, reference model)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    from serve import CONNECTIONS, FSYNC, ServeChurn

    load = ServeChurn(str(ROOT), work, child_env(), args.seed)
    values, attempted, failed, correct, notes = load.run(args.seconds, bool(args.trace), SETUP_RUNS)
    if args.trace:
        load.tracer.write(spans, {"workload": args.workload, "seed": args.seed})
    setting = {"loop": "closed", "connections": CONNECTIONS, "fsync": FSYNC}
    return values, attempted, failed, correct, notes, setting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one workload of the LDL1 benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans = str(out / f"spans-{tag}.json")
    work = str(out / f"work-{tag}")
    try:
        if args.workload == "serve-churn":
            outcome = run_serve(args, work, spans)
        else:
            outcome = run_batch(args, spans)
        values, attempted, failed, correct, notes, setting = outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = names.PER_LAYER if args.trace else names.END_TO_END
    env = procstat.environment(**setting, seed=args.seed, trace=args.trace)
    print(f"# {args.workload}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(f"# {note}")
    print(f"# check: {'PASS' if correct else 'FAIL'} "
          f"({attempted - failed}/{attempted} operations correct, "
          f"error_rate={failed / attempted:.4g})")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": names.render(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
