"""liemult benchmark: time to a verified battery, end to end and per layer.

    python3 perfbench/run.py --workload pairwise-mc --seed 0 --seconds 20 --trace 0

Run from any directory; the program is read from ``src/`` next to this
directory, and scratch files go to ``.perfbench_work/`` beside it.

``--trace 0`` (end to end).  One client, closed loop: the workload config is
run through ``liemult run`` in a subprocess at ``--jobs 1`` and then at
``--jobs 2`` (at most two worker processes), repeated while another pair fits
in ``--seconds``.  Reported as medians over the pairs:

* ``setup_s``: a fresh interpreter imports ``liemult.cli`` and runs
  ``load_config`` and ``build_context`` on the config (median of 3);
* ``wall_s`` / ``wall_s_jobs2``: wall time of ``liemult run`` at jobs 1 / 2;
* ``peak_rss_mb``: peak RSS of the jobs-1 process, from ``os.wait4``.

Times are net of hypervisor steal: the steal the kernel reports for all vCPUs
during a child's lifetime, divided by the vCPUs the child keeps busy (1, or 2
at jobs 2), is subtracted from its wall time.  In one series of jobs-1 runs
on a shared 2-vCPU virtual machine, steal took 3-19 % of the wall time while
the CPU time stayed within 2 %.  Raw wall times and steal are recorded in the
details line.

``--trace 1`` (per layer).  One untraced jobs-1 run, then one in-process
traced jobs-1 run (``tracer.py``) whose spans give each layer's self time,
calls and work counts; ``trace.overhead_s`` is the traced minus the untraced
wall time and ``trace.coverage`` the summed self times over the traced wall
time.

Correctness: every run's report bytes must equal those of the first jobs-1
run of the same invocation (jobs 2, repeats and the traced run alike), and its
exit code must be 1 exactly when a status is ``fail``.  At seed 0, the
configured battery, every status must also be ``pass``; at other seeds a
statistical gate may fail without a defect, so non-pass verdicts are printed
and recorded but do not fail the run.  An experiment failing a check counts in
``failed``; ``failed / attempted`` is the fail fraction.  The last stdout line
is the JSON result; the exit code is 1 if a check failed and 2 if the
benchmark could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Without these the OpenBLAS build (MAX_THREADS=64) starts a thread per core
# in every process and oversubscribes the cores at --jobs 2.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_jobs2": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
NPROC = len(os.sched_getaffinity(0))
RUN_BUDGET_S = 170.0  # every invocation must end within 180 s
SETUP_PROBE = ("import sys\n"
               "import liemult.cli\n"
               "from liemult.config import build_context, load_config\n"
               "build_context(load_config(sys.argv[1]))\n")


def stolen_s() -> float:
    """CPU time the hypervisor has so far withheld from this machine's vCPUs.

    On a shared virtual machine a runnable process waits while its vCPU is
    stolen; that wait is the neighbours' doing, not the program's.  Reads the
    steal column of /proc/stat; 0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills the child


@dataclass
class Child:
    code: int
    wall_s: float
    steal_s: float  # summed over all vCPUs during the child's lifetime
    peak_rss_mb: float

    def net_s(self, busy_cpus: int) -> float:
        """Wall time less the steal suffered by each of ``busy_cpus`` vCPUs."""
        return self.wall_s - self.steal_s / busy_cpus


class Bench:
    """One benchmark invocation: its scratch directory, deadline and env."""

    def __init__(self, work: Path, config: Path, n_experiments: int, strict_verdicts: bool):
        self.work = work
        self.config = config
        self.n_experiments = n_experiments
        self.strict_verdicts = strict_verdicts
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)}
        self.reference: dict[str, bytes] | None = None
        self.not_pass: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, argv: list[str], log_name: str) -> Child:
        """Run one child to completion; wall time and its own peak RSS."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / log_name, "wb") as log:
            steal = stolen_s()
            start = time.perf_counter()
            # a session of its own, so that killing it also kills jobs-2 workers
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
                # a running maximum over every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            steal = stolen_s() - steal
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, steal, usage.ru_maxrss / 1024.0)

    def liemult_run(self, jobs: int, tag: str) -> Child:
        out = self.work / tag
        child = self.spawn([sys.executable, "-m", "liemult", "run", str(self.config),
                            "--out", str(out), "--jobs", str(jobs)], f"{tag}.log")
        self.check_reports(child, out, tag)
        return child

    def check_reports(self, child: Child, out: Path, tag: str) -> None:
        """Count the failed experiments of one run of the workload.

        An experiment fails when its report is missing (exit 2 or 3) or its
        bytes differ from the first jobs-1 run of this invocation, and, under
        ``strict_verdicts``, when its status is not ``pass``.  The exit code
        must be 1 exactly when some status is ``fail``.
        """
        reports = {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}
        shutil.rmtree(out, ignore_errors=True)
        if self.reference is None:
            self.reference = reports
        names = sorted(n for n in self.reference if n != "summary.json")
        statuses = {n: json.loads(self.reference[n])["status"] for n in names}
        self.not_pass = {n: s for n, s in statuses.items() if s != "pass"}
        failed = [n for n in names if reports.get(n) != self.reference[n]
                  or (self.strict_verdicts and n in self.not_pass)]
        lost = self.n_experiments - len(names)
        self.attempted += self.n_experiments
        self.failed += len(failed) + lost
        if failed or lost:
            self.errors.append(f"{tag}: {lost} reports missing, failed or differing: {failed}")
        if reports.get("summary.json") != self.reference.get("summary.json"):
            self.errors.append(f"{tag}: summary.json differs from the first jobs-1 run")
        expected = 1 if "fail" in statuses.values() else 0
        if child.code != expected:
            self.errors.append(f"{tag}: exit code {child.code}, expected {expected}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, data in sorted((self.reference or {}).items()):
            h.update(name.encode() + b"\0" + data)
        return h.hexdigest()


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    children = {"setup_s": [], "wall_s": [], "wall_s_jobs2": []}
    for i in range(SETUP_REPEATS):
        child = bench.spawn([sys.executable, "-c", SETUP_PROBE, str(bench.config)],
                            f"setup-{i}.log")
        if child.code != 0:
            bench.errors.append(f"setup-{i}: exit code {child.code}")
        children["setup_s"].append(child)
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        n = len(children["wall_s"])
        for jobs, name in ((1, "wall_s"), (2, "wall_s_jobs2")):
            children[name].append(bench.liemult_run(jobs, f"jobs{jobs}-{n}"))
        now = time.monotonic()
        if bench.errors or now + (now - pair_start) > start + seconds:
            break
    busy = {"setup_s": 1, "wall_s": 1, "wall_s_jobs2": min(2, NPROC)}
    samples = {name: [c.net_s(busy[name]) for c in runs] for name, runs in children.items()}
    samples["peak_rss_mb"] = [c.peak_rss_mb for c in children["wall_s"]]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    for name, runs in children.items():
        samples[f"{name}.raw_wall"] = [c.wall_s for c in runs]
        samples[f"{name}.steal"] = [c.steal_s for c in runs]
    return metrics, samples


def per_layer(bench: Bench) -> tuple[dict, dict]:
    plain = bench.liemult_run(1, "untraced")
    result = bench.work / "trace.json"
    out = bench.work / "traced"
    traced = bench.spawn([sys.executable, str(Path(tracer.__file__)), "--config",
                          str(bench.config), "--out", str(out), "--result", str(result)],
                         "traced.log")
    bench.check_reports(traced, out, "traced")
    if not result.is_file():
        return {}, {}
    trace = json.loads(result.read_text())
    if trace["missing"]:
        bench.errors.append(f"tracer found no binding for {trace['missing']}")
    values = dict(trace["metrics"])
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.overhead_s"] = traced.net_s(1) - plain.net_s(1)
    values["trace.coverage"] = self_total / traced.net_s(1)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracer.metric_units().items()}
    return metrics, {"wall_s": [plain.net_s(1)], "traced_wall_s": [traced.net_s(1)],
                     "steal": [plain.steal_s, traced.steal_s]}


def machine_notes(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_at_start": list(load_at_start),
        "env": PINNED_ENV,
    }


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="liemult benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 keeps the configured experiment seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure jobs-1/jobs-2 pairs while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "liemult" / "cli.py").is_file():
        print(f"benchmark: no liemult sources under {SRC}", file=sys.stderr)
        return 2

    # pin BLAS threads before this process imports numpy through liemult
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from liemult.config import default_config

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    cfg = make_config(args.workload, args.seed, default_config())
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    # only seed 0 has a reference verdict (every status passes); at other
    # seeds a statistical gate may legitimately fail, which is reported
    bench = Bench(work, config, len(cfg["experiments"]), strict_verdicts=args.seed == 0)

    if args.trace:
        metrics, samples = per_layer(bench)
    else:
        metrics, samples = end_to_end(bench, args.seconds)
    correct = not bench.errors and bench.failed == 0 and bool(metrics)

    for err in bench.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, status in bench.not_pass.items():
        print(f"verdict: {name} is {status}", file=sys.stderr)
    for name, m in metrics.items():
        n = len(samples.get(name, [])) or 1
        print(f"{args.workload:14s} {name:42s} {m['value']:>14.6g} {m['unit']:6s} (n={n})")
    fail_fraction = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{args.workload:14s} {'fail_fraction':42s} {fail_fraction:>14.6g} "
          f"{'1':6s} ({bench.failed}/{bench.attempted})")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": samples, "report_sha256": bench.digest(),
                      "not_pass": bench.not_pass,
                      "machine": machine_notes(load_at_start)}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed if bench.attempted else 1,
                      "metrics": metrics}))
    if correct:
        shutil.rmtree(work)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
