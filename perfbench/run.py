"""anisoflow benchmark: end-to-end metrics per workload, per-layer on request.

    python3 perfbench/run.py --workload forward2d --seed 1 --seconds 50

A workload is a mix of parts, the four runs the benchmark knows:
``forward2d`` alternates ``relax2d`` and ``cli_simulate``, ``studies``
alternates ``control1d`` and ``lipschitz2d``.  ``--workload`` also takes a
single part, and ``all`` runs both workloads one after another.  Run from
anywhere; the program is imported from ``src/`` next to this directory.
Every repetition of a part runs in a fresh process with the BLAS thread
pools pinned to one thread, repetitions run one at a time, and their
outputs are checked against the correctness gates.  With ``--trace 1``
the benchmark runs each part once untraced and once with every layer
wrapped by the tracer, and reports the per-layer metrics and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch output
(forcing files, CLI output, spans) goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from tracer import PER_LAYER
from worker import CLI_STEPS, cli_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CONFIG = os.path.join("configs", "relaxation.ini")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {"forward2d": ("relax2d", "cli_simulate"),
             "studies": ("control1d", "lipschitz2d")}
PARTS = tuple(p for parts in WORKLOADS.values() for p in parts)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# a run must end within 180 s; no repetition starts that could end later
DEADLINE_S = 165.0
CLI_FINAL_ATOL = 1e-9


class Child:
    """Exit status, output, wall time and peak memory of one process."""

    def __init__(self, cmd, env, timeout):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out.decode(errors="replace")

    def report(self):
        """The worker's JSON result, or an error entry if there is none."""
        lines = self.stdout.strip().splitlines()
        if self.status != 0 or not lines:
            return {"errors": [f"worker exit status {self.status}"]}
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return {"errors": [f"unparseable worker output: {lines[-1][:200]}"]}


class Part:
    """The repetitions and set-up samples of one part in one run."""

    def __init__(self, name, seed, deadline):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.out = os.path.join(OUT_ROOT, name)
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.env = dict(os.environ, **BLAS_THREADS)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.info = {}
        self.reps, self.setups = [], []
        self.last_s = 0.0  # process time of the last repetition

    def child(self, cmd):
        return Child(cmd, self.env, self.deadline - time.perf_counter())

    def worker(self, mode):
        cmd = [sys.executable, WORKER, "--part", self.name,
               "--seed", str(self.seed), "--mode", mode, "--out", self.out,
               "--config", CONFIG]
        proc = self.child(cmd)
        rep = proc.report()
        rep["peak_rss_mb"] = proc.peak_rss_mb
        rep["process_s"] = proc.wall_s
        for key in ("anisoflow", "python", "numpy", "scipy"):
            if key in rep:
                self.info[key] = rep[key]
        return rep

    # -- one repetition ---------------------------------------------------

    def rep(self, mode):
        started = time.perf_counter()
        if self.name != "cli_simulate":
            rep = self.worker(mode)
        else:
            rep = self.cli_rep(mode)
        self.last_s = time.perf_counter() - started
        self.reps.append(rep)
        if "setup_s" in rep:
            self.setups.append(rep["setup_s"])
        return rep

    def cli_rep(self, mode):
        run_dir = os.path.join(self.out, "run")
        if mode == "traced":
            rep = self.worker("cli-traced")
            rep["wall_s"] = rep["process_s"]
        else:
            cmd = [sys.executable, "-m", "anisoflow.cli"] + cli_argv(
                CONFIG, os.path.join(self.out, "forcing"), run_dir)
            proc = self.child(cmd)
            rep = {"errors": [] if proc.status == 0
                   else [f"CLI exit status {proc.status}"],
                   "wall_s": proc.wall_s, "peak_rss_mb": proc.peak_rss_mb}
        rep["errors"] += self.check_cli_output(run_dir, rep)
        shutil.rmtree(run_dir, ignore_errors=True)
        return rep

    def check_cli_output(self, run_dir, rep):
        missing = [name for name in
                   [f"state_{j:04d}.field" for j in range(CLI_STEPS + 1)]
                   + ["diagnostics.csv", "manifest.txt"]
                   if not os.path.isfile(os.path.join(run_dir, name))]
        if missing:
            return [f"CLI output missing {missing[:3]} ({len(missing)} files)"]
        with open(os.path.join(run_dir, "diagnostics.csv")) as f:
            rep["steps"] = sum(1 for _ in f) - 2  # header and j = 0
        final = np.loadtxt(
            os.path.join(run_dir, f"state_{CLI_STEPS:04d}.field"))
        reference = np.load(os.path.join(self.out, "reference_final.npy"))
        err = float(np.max(np.abs(final - reference)))
        if not err <= CLI_FINAL_ATOL:
            return [f"final CLI state differs from the in-process solve "
                    f"by {err:.3e}"]
        return []

    # -- set-up samples ----------------------------------------------------

    def setup_sample(self):
        if self.name == "cli_simulate":
            proc = self.child([sys.executable, "-c", "import anisoflow.cli"])
            return proc.wall_s if proc.status == 0 else None
        return self.worker("setup").get("setup_s")

    def sample_setups(self):
        """Top the repetitions' own set-up times up to SETUP_SAMPLES."""
        while (len(self.setups) < SETUP_SAMPLES
               and time.perf_counter() + 5.0 < self.deadline):
            sample = self.setup_sample()
            if sample is not None:
                self.setups.append(sample)

    def prepare(self):
        """Untimed: compile bytecode once, write the CLI inputs."""
        self.child([sys.executable, "-c", "import anisoflow.cli"])
        if self.name == "cli_simulate":
            rep = self.worker("cli-inputs")
            if rep["errors"]:
                raise RuntimeError(f"cli inputs: {rep['errors']}")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self):
        rates = [r["steps"] / r["wall_s"] for r in self.reps
                 if r.get("steps") and r.get("wall_s")]
        return {
            "wall_s": median_of(self.reps, "wall_s"),
            "setup_s": statistics.median(self.setups) if self.setups else None,
            "steps_per_s": statistics.median(rates) if rates else None,
            "peak_rss_mb": median_of(self.reps, "peak_rss_mb"),
            "steps": median_of(self.reps, "steps"),
        }


def median_of(reps, key):
    values = [r[key] for r in reps if r.get(key) is not None]
    return statistics.median(values) if values else None


def measure(parts, seconds):
    """Alternate the parts' repetitions for ``seconds``.

    Each part runs once; then the part with the fewest repetitions runs
    next, among those whose last repetition, repeated, would still end
    within ``seconds``, so that every part's median spans the whole run.
    No repetition starts that could end after the deadline.
    """
    for part in parts:
        part.prepare()
    end = time.perf_counter() + seconds
    for part in parts:
        part.rep("timed")
    while True:
        now = time.perf_counter()
        fitting = [p for p in parts if now + p.last_s <= min(end, p.deadline)]
        if not fitting:
            break
        min(fitting, key=lambda p: len(p.reps)).rep("timed")
    for part in parts:
        part.sample_setups()


def trace(parts):
    for part in parts:
        part.prepare()
        part.rep("timed")
        part.rep("traced")


def combine(values):
    """End-to-end metrics of one round of the parts: one repetition each.

    Times and steps add up over the parts; memory is the highest peak.
    """
    def total(key):
        vals = [v[key] for v in values]
        return None if None in vals else sum(vals)

    wall, steps = total("wall_s"), total("steps")
    peaks = [v["peak_rss_mb"] for v in values]
    return {
        "wall_s": wall,
        "setup_s": total("setup_s"),
        "steps_per_s": steps / wall if wall and steps else None,
        "peak_rss_mb": None if None in peaks else max(peaks),
    }


def trace_metrics(parts):
    """Per-layer metrics summed over the parts, plus the tracing overhead."""
    metrics = {}
    for part in parts:
        for name, m in part.reps[1].get("layers", {}).items():
            metrics.setdefault(name, {"value": 0, "unit": m["unit"]})
            metrics[name]["value"] += m["value"]
    walls = [(p.reps[0].get("wall_s"), p.reps[1].get("wall_s"))
             for p in parts]
    if metrics and all(a and b for a, b in walls):
        metrics["trace.overhead_s"] = {
            "value": sum(b - a for a, b in walls), "unit": "s"}
    return metrics


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        if m["value"] is not None:
            print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")


def run_workload(workload, seed, seconds, trace_run):
    deadline = time.perf_counter() + DEADLINE_S
    parts = [Part(name, seed, deadline)
             for name in WORKLOADS.get(workload, (workload,))]
    if trace_run:
        trace(parts)
    else:
        measure(parts, seconds)

    env = " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items())
    info = {k: v for p in parts for k, v in p.info.items()}
    print(f"== {workload}  seed={seed}  trace={int(trace_run)}"
          f"  parts={','.join(p.name for p in parts)}")
    print(f"   anisoflow={info.get('anisoflow')}  commit={git_commit()}")
    print(f"   python={info.get('python', platform.python_version())}"
          f"  numpy={info.get('numpy')}  scipy={info.get('scipy')}"
          f"  nproc={os.cpu_count()}  {env}")
    failed = attempted = 0
    for part in parts:
        part_failed = sum(1 for r in part.reps if r["errors"])
        failed += part_failed
        attempted += len(part.reps)
        for r in part.reps:
            for err in r["errors"]:
                print(f"FAILED {part.name}: {err}")
        if trace_run:
            print_metrics(
                f"-- {part.name}  (one untraced and one traced run; "
                f"the layers it calls)",
                {name: m for name, m in part.reps[-1].get("layers", {}).items()
                 if m["value"]})
        else:
            values = part.end_to_end()
            print_metrics(
                f"-- {part.name}  (medians of {len(part.reps)} runs, "
                f"{len(part.setups)} set-up samples)",
                {name: {"value": values[name], "unit": unit}
                 for name, unit in END_TO_END})
        walls = ", ".join(f"{r['wall_s']:.4g}" for r in part.reps
                          if r.get("wall_s"))
        print(f"   wall_s of each run: {walls}")
        frac = part_failed / max(len(part.reps), 1)
        print(f"   {'failed_frac':<48} {frac:>14.6g} 1"
              f"   ({part_failed}/{len(part.reps)})")

    if trace_run:
        metrics = trace_metrics(parts)
    else:
        values = combine([p.end_to_end() for p in parts])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    if len(parts) > 1:
        what = "sums over" if trace_run else "one run of"
        print_metrics(f"-- {workload}  ({what} each part)", metrics)
        print(f"   {'failed_frac':<48} {failed / max(attempted, 1):>14.6g} 1"
              f"   ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + PARTS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join("src", "anisoflow", "__init__.py"), CONFIG):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  f"checkout of the anisoflow repository", file=sys.stderr)
            return 2

    workloads = (tuple(WORKLOADS) if args.workload == "all"
                 else (args.workload,))
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    names = ([m[0] for m in PER_LAYER] if args.trace
             else [m[0] for m in END_TO_END])
    missing = [f"{w}.{n}" for w, r in results.items() for n in names
               if r["metrics"].get(n, {}).get("value") is None]
    if missing:
        print(f"perfbench: not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
