#!/usr/bin/env python3
"""sourcefft benchmark: closed-loop workloads, one client, one process each.

    python3 perfbench/run.py --workload mu-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --trace 1       # every workload, traced

Run it from the repository root; it imports sourcefft from ``src/``.  One
workload runs its loop of operations (see workloads.py) for ``--seconds``,
checks every output and prints, one per line, each metric by name with its
unit and sample count.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are the
``end_to_end`` entries of BENCHMARK.json (``--trace 0``) or its
``per_layer`` entries (``--trace 1``).  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the benchmark could not start.

End-to-end times are seconds at a reference host speed: each operation's
wall-clock time is scaled by the host's speed while it ran, sampled by
speed.py, and the report lines give the wall-clock seconds beside them.
The process runs on one CPU (see pin_to_one_cpu).

A traced run spends the first half of its time untraced and the second half
traced, reports per-layer numbers per loop iteration from the traced half,
and the difference of the halves' median iteration times as the tracing
overhead.  Its spans are written to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# numpy and sourcefft are imported inside set_up(), so that their import
# cost counts as set-up time.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mu-sweep", "rule-cells", "large-n")
# Set-up is timed in this process and in fresh child processes; the metric
# is the median over all of them.
SETUP_SAMPLES = 7


def fail_to_start(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(name, seed, workdir):
    """Start the speed sampler, import sourcefft and build the workload's inputs.

    Returns the workload, the running sampler and the set-up time as (wall
    seconds, seconds at the reference speed).
    """
    start = time.perf_counter()
    sampler = speed.Sampler()
    sampler.start()
    try:
        sys.path.insert(0, str(SRC))
        import workloads  # imports numpy and sourcefft

        workload = workloads.WORKLOADS[name](seed, workdir)
        end = time.perf_counter()
        # Sample on for a moment, so the set-up has speed samples on both sides.
        while not sampler.times or sampler.times[-1] < end + speed.MIN_SAMPLES * speed.INTERVAL / 2:
            time.sleep(speed.INTERVAL)
    except BaseException:
        sampler.stop()
        raise
    return workload, sampler, (end - start, (end - start) * sampler.scale(start, end))


def probe_setup(name, seed):
    """Time set-up in fresh interpreters, so import cost is measured cold.

    Returns (wall seconds, seconds at the reference speed) per probe.
    """
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        wall, scaled = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(scaled)))
    return samples


def tail(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 20:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    idx = -(-pct * n // 100) - 1
    return pct, ordered[idx]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sourcefft").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload):
    """Machine, interpreter and code identity, plus computed array sizes."""
    import numpy as np

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size  # one instance, as cpu0 sees it
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    n = workload.n
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src_digest(),
        "computed_array_bytes": {
            "n": n, "real_float64": 8 * n, "complex128": 16 * n,
            "note": "computed from n, not measured",
        },
    }


class Loop:
    """Closed loop over a workload's iterations, with timings and failures.

    Each operation's time is kept as its start and end, so that it can be
    scaled by the host's speed while it ran (speed.py).
    """

    def __init__(self, workload, sampler, tracer=None):
        self.workload = workload
        self.sampler = sampler
        self.tracer = tracer
        self.records = []          # (iteration, op name, start, end) per op run
        self.attempted = 0
        self.failed = 0
        self.next_iteration = 0
        self.first_iteration_rss_mb = None

    def run(self, deadline):
        """Run whole iterations until the deadline, at least one."""
        while True:
            iteration = self.next_iteration
            self.next_iteration += 1
            for op in self.workload.ops(iteration):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # the op failed; count it, keep going
                    result, problem = None, f"raised {exc!r}"
                else:
                    problem = None
                self.records.append((iteration, op.name, t0, time.perf_counter()))
                if self.tracer is not None:
                    self.tracer.end_op()
                if problem is None:
                    try:
                        problem = op.check(result)
                    except Exception as exc:
                        problem = f"check raised {exc!r}"
                if problem is not None:
                    self.failed += 1
                    print(f"FAILED {op.name}: {problem}", file=sys.stderr)
            if self.first_iteration_rss_mb is None:
                kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.first_iteration_rss_mb = kib / 1024.0
            if time.perf_counter() >= deadline:
                return

    def timings(self, scaled=True):
        """Seconds per op run, as {op name: [seconds]}, and per iteration, as
        [{op name: summed seconds}].

        Scaled seconds are at the reference speed: each run's wall-clock
        seconds times the sampler's scale over the run.
        """
        per_op, per_iteration = {}, {}
        for iteration, name, t0, t1 in self.records:
            seconds = t1 - t0
            if scaled:
                seconds *= self.sampler.scale(t0, t1)
            per_op.setdefault(name, []).append(seconds)
            sums = per_iteration.setdefault(iteration, {})
            sums[name] = sums.get(name, 0.0) + seconds
        return per_op, list(per_iteration.values())


def slot_samples(ops, per_op, per_iteration):
    """A slot's samples: every run of its op, or its ops' per-iteration sums."""
    if len(ops) == 1:
        return per_op.get(ops[0], [])
    return [sum(t[o] for o in ops) for t in per_iteration]


def end_to_end(loop, setup_samples):
    """Values of every end-to-end metric, with sample counts, and the report lines.

    Times are at the reference speed (speed.py); each report line gives the
    wall-clock seconds too.
    """
    values, lines = {}, []
    scaled, wall = loop.timings(), loop.timings(scaled=False)
    kernel = loop.sampler.seconds
    lines.append(f"speed_kernel_s {statistics.median(kernel):.6g} s n={len(kernel)} "
                 f"reference={speed.REFERENCE_SECONDS:g}")
    for op, samples in scaled[0].items():
        raw = wall[0][op]
        lines.append(f"{op}_p50_s {statistics.median(samples):.6g} s n={len(samples)} "
                     f"wall={statistics.median(raw):.6g}")
        t, t_raw = tail(samples), tail(raw)
        if t is not None:
            lines.append(f"{op}_tail_s {t[1]:.6g} s n={len(samples)} "
                         f"percentile=p{t[0]} wall={t_raw[1]:.6g}")
    for slot, ops in loop.workload.slots.items():
        samples = slot_samples(ops, *scaled)
        if samples:
            raw = slot_samples(ops, *wall)
            values[f"{slot}_p50_s"] = statistics.median(samples)
            lines.append(f"{slot}_p50_s {values[f'{slot}_p50_s']:.6g} s n={len(samples)} "
                         f"wall={statistics.median(raw):.6g} (= {' + '.join(ops)})")
    values["setup_s"] = statistics.median(scaled for _, scaled in setup_samples)
    raw = statistics.median(wall for wall, _ in setup_samples)
    lines.append(f"setup_s {values['setup_s']:.6g} s n={len(setup_samples)} wall={raw:.6g}")
    # A command line user runs each operation once per process, so the peak
    # is taken through set-up and the first iteration.  Later iterations
    # only add allocator fragmentation, which would tie it to the run length.
    values["peak_rss_mb"] = loop.first_iteration_rss_mb
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB n=1")
    ratio = loop.failed / loop.attempted
    lines.append(f"failed_ratio {ratio:.6g} ratio n={loop.attempted}")
    return values, lines


def iteration_seconds(loop):
    return [sum(t.values()) for t in loop.timings()[1]]


def per_layer(tracer, workload, iterations, bytes_before, overhead_s):
    """Per-layer values per traced loop iteration, and the report lines."""
    from tracing import CLI_SUBCOMMANDS, LAYERS

    times = tracer.self_times()
    values = {}
    seen = set()
    for _, _, span, kind in LAYERS:
        if span in seen or span == "cli":
            continue
        seen.add(span)
        calls, self_s = times.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls / iterations
        values[f"{span}.self_s"] = self_s / iterations
        if kind == "distinct":
            distinct = tracer.distinct.get(span, 0)
            values[f"{span}.distinct_ratio"] = distinct / calls if calls else 0.0
        elif kind is not None:
            values[f"{span}.{kind}"] = tracer.bytes.get(span, 0) / iterations
    cli_total = 0.0
    for sub in CLI_SUBCOMMANDS:
        self_s = times.get(f"cli.{sub}", (0, 0.0))[1]
        values[f"cli.{sub}.self_s"] = self_s / iterations
        cli_total += self_s
    values["cli.self_s"] = cli_total / iterations
    values["cli.bytes_read"] = (workload.bytes_read - bytes_before[0]) / iterations
    values["cli.bytes_written"] = (workload.bytes_written - bytes_before[1]) / iterations
    values["trace.spans"] = sum(c for c, _ in times.values()) / iterations
    values["trace.overhead_s"] = overhead_s
    lines = [f"{k} {v:.6g} {unit_of(k)} n={iterations}"
             for k, v in sorted(values.items())]
    return values, lines


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "B" if "bytes" in name else "count"


def select(values, specs):
    """The metrics BENCHMARK.json lists, in its order, as {name: {value, unit}}."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def pin_to_one_cpu():
    """Run this process, its threads and its children on one CPU.

    The speed samples (speed.py) then measure the CPU every operation runs
    on.  The thread pool of `figures --workers 2` still switches between
    its threads, but no longer waits on a second CPU whose speed, on a shared
    host, is set by other tenants.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_to_one_cpu()
    workdir = TMP / f"{args.workload}-{os.getpid()}"
    sampler = None
    try:
        workload, sampler, setup_sample = set_up(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(*map(repr, setup_sample))
            return 0
        print(f"# workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(environment(workload), sort_keys=True))
        if args.trace:
            import tracing

            untraced = Loop(workload, sampler)
            start = time.perf_counter()
            untraced.run(start + args.seconds / 2)
            tracer = tracing.Tracer()
            traced = Loop(workload, sampler, tracer)
            traced.next_iteration = untraced.next_iteration
            bytes_before = (workload.bytes_read, workload.bytes_written)
            tracer.install()
            try:
                traced.run(start + args.seconds)
            finally:
                tracer.uninstall()
            overhead = (statistics.median(iteration_seconds(traced))
                        - statistics.median(iteration_seconds(untraced)))
            values, lines = per_layer(tracer, workload, len(traced.timings()[1]),
                                      bytes_before, overhead)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}.npz")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            metrics = select(values, spec["per_layer"])
        else:
            setup_samples = [setup_sample] + probe_setup(args.workload, args.seed)
            loop = Loop(workload, sampler)
            loop.run(time.perf_counter() + args.seconds)
            values, lines = end_to_end(loop, setup_samples)
            attempted, failed = loop.attempted, loop.failed
            metrics = select(values, spec["end_to_end"])
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            TMP.rmdir()
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so each has its own peak memory."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        )
        worst = max(worst, proc.returncode)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # used by the benchmark itself
    args = parser.parse_args()
    if not (SRC / "sourcefft" / "__init__.py").is_file():
        fail_to_start(f"no sourcefft package under {SRC}; run from a checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
