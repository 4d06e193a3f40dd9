#!/usr/bin/env python3
"""Benchmark of the HetCore reproduction; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Builds the `perfbench` binary from source (cargo, offline; CARGO_TARGET_DIR
defaults to .bench_build), then runs passes of workload W for S seconds.
Every pass is a fresh process timed from outside, so it starts from cold
process state, as a user's `repro` invocation does. Each pass's simulated
outputs are checked against perfbench/digests.json.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes (alternated with untraced ones for the tracing overhead). The
last stdout line is the JSON result. --selftest checks the benchmark itself;
--record rewrites digests.json from the current simulator.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("cpu-figs", "gpu-figs", "warm-rerender")
# Campaign seeds whose outputs digests.json records; 42 is the `repro`
# default. A workload seed picks one, so every run checks recorded output.
RECORDED_SEEDS = (42, 43, 44, 45)
# One GPU campaign takes ~0.3 s, so a gpu-figs pass runs several.
GPU_SEEDS_PER_PASS = 8
# A timed loop runs at least this many passes, so a run has a middle to
# average even on a slow host.
MIN_PASSES = 3
# warm-rerender sets up (fills its cache) this many times per run.
POPULATES = 3
# A cold pass sets up in milliseconds; this many extra set-up-only
# processes per run steady the median that its few passes would give.
SETUP_PROBES = 40
# Campaign entries `repro all` leaves in a cache directory: 154 CPU + 100 GPU.
CAMPAIGN_ENTRIES = 254
PASS_TIMEOUT_S = 150


def campaign_seed(seed):
    return RECORDED_SEEDS[seed % len(RECORDED_SEEDS)]


def gpu_seeds(seed):
    """The gpu-figs seed list of campaign seed `seed`; lists of distinct
    recorded seeds do not overlap."""
    return [seed + len(RECORDED_SEEDS) * i for i in range(GPU_SEEDS_PER_PASS)]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds perfbench/ and returns the binary's path."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"the simulator sources are missing: no {ROOT / 'crates' / 'core'}")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"


class Proc:
    """One finished process: its stdout JSON record (None if it failed),
    wall seconds, user+sys CPU seconds, peak RSS (MB) and spawn time."""

    def __init__(self, cmd):
        self.spawned_unix_s = time.time()
        start = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        killer = threading.Timer(PASS_TIMEOUT_S, p.kill)
        killer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
            p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.record = None
        lines = out.decode(errors="replace").strip().splitlines()
        if p.returncode == 0 and lines:
            try:
                self.record = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass

    @property
    def setup_s(self):
        return self.record["first_job_unix_s"] - self.spawned_unix_s


class Bench:
    def __init__(self, binary, work):
        self.binary = str(binary)
        self.cache = work / "cache"
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else None

    def run(self, mode, workload, seed, cold=True):
        """One pass (`mode` is pass or traced); a cold pass gets an empty
        cache directory."""
        if cold:
            shutil.rmtree(self.cache, ignore_errors=True)
        cmd = [self.binary, mode, "--workload", workload, "--seed", str(seed),
               "--dir", str(self.cache)]
        if workload == "gpu-figs":
            cmd += ["--gpu-seeds", ",".join(map(str, gpu_seeds(seed)))]
        return Proc(cmd)

    def populate(self, seed):
        """Fills a fresh cache directory as a cold `repro all` does."""
        shutil.rmtree(self.cache, ignore_errors=True)
        p = Proc([self.binary, "populate", "--seed", str(seed), "--dir", str(self.cache)])
        if p.record is None or p.record["entries"] != CAMPAIGN_ENTRIES:
            fail(f"populating the warm-rerender cache failed: {p.record}")
        return p

    def expected(self, workload, seed):
        """Recorded (job digests, report digests, simulated insts) of a pass."""
        d = self.digests
        key = f"{workload}/{seed}"
        if workload == "cpu-figs":
            return d["cpu"][str(seed)], [d["reports"][key]], d["sim_insts"][key]
        if workload == "gpu-figs":
            seeds = gpu_seeds(seed)
            jobs = [j for g in seeds for j in d["gpu"][str(g)]]
            return jobs, [d["reports"][f"gpu/{g}"] for g in seeds], d["sim_insts"][key]
        jobs = d["cpu"][str(seed)] + d["gpu"][str(seed)]
        return jobs, [d["reports"][key]], d["sim_insts"][key]

    def check(self, workload, seed, proc):
        """(attempted, failed, problems) of one pass: one result per job
        and per rendered report batch, failed when its digest differs from
        the recorded one. A pass that crashed, ran on a cache in the wrong
        state, or did other work than recorded fails every result."""
        jobs, reports, sim_insts = self.expected(workload, seed)
        attempted = len(jobs) + len(reports)
        rec = proc.record
        if rec is None:
            return attempted, attempted, ["the pass crashed"]
        problems = []
        if rec["sim_insts"] != sim_insts:
            problems.append(f"simulated {rec['sim_insts']} insts, recorded {sim_insts}")
        if workload == "warm-rerender":
            if rec["jobs_executed"] != 0 or rec["disk_reads"] != len(jobs):
                problems.append(f"warm pass executed {rec['jobs_executed']} jobs and "
                                f"read {rec['disk_reads']} of {len(jobs)} cache entries")
        elif rec["cache_entries_at_start"] != 0:
            problems.append(f"cold pass started with {rec['cache_entries_at_start']} "
                            "cache entries")
        differ = (mismatches(rec["job_digests"], jobs)
                  + mismatches(rec["report_digests"], reports))
        failed = attempted if problems else differ
        if differ:
            problems.append(f"{differ} results differ from the recorded digests")
        return attempted, failed, problems


def mismatches(got, want):
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, result):
        attempted, failed, problems = result
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean of the middle 60% of `values`. The bench host's speed swings by
    up to half within seconds, so pass times spread wide and flat; their
    median jumps between the fast and slow ends from run to run, while a
    mean follows the share of slow time and a trim drops stray passes."""
    if not values:
        return 0.0
    cut = len(values) // 5
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def summary(name, values):
    if not values:
        return f"{name}: no samples"
    return (f"{name}: trimmed mean {trimmed_mean(values):.6g}, median {median(values):.6g} "
            f"over {len(values)} samples (min {min(values):.6g}, max {max(values):.6g})")


def measure(bench, workload, seed, seconds):
    """End-to-end metrics of untraced passes: trimmed means over the run's
    passes, and the median set-up time."""
    tally = Tally()
    samples = {"wall_s": [], "host_cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    cold = workload != "warm-rerender"
    populate_s = 0.0
    if cold:
        for _ in range(SETUP_PROBES):
            p = bench.run("setup", workload, seed)
            if p.record is None:
                fail(f"a {workload} set-up process failed")
            samples["setup_s"].append(p.setup_s)
    else:
        # Set-up fills the cache the passes read; do it several times and
        # keep the median.
        populate_s = median([bench.populate(seed).wall_s for _ in range(POPULATES)])
    deadline = time.perf_counter() + seconds
    # Counting attempts, not successes, ends a run whose passes all crash.
    for passes in itertools.count():
        if passes >= MIN_PASSES and time.perf_counter() >= deadline:
            break
        p = bench.run("pass", workload, seed, cold)
        tally.add(bench.check(workload, seed, p))
        if p.record is None:
            continue
        samples["wall_s"].append(p.wall_s)
        samples["host_cpu_s"].append(p.cpu_s)
        samples["peak_rss_mb"].append(p.rss_mb)
        samples["setup_s"].append(populate_s + p.setup_s)
    for name, values in samples.items():
        print(f"# {workload}: {summary(name, values)}")
    metrics = {name: trimmed_mean(values) for name, values in samples.items()}
    metrics["setup_s"] = median(samples["setup_s"])
    # Every pass simulates the recorded instruction count (check() fails
    # the pass otherwise), so the rate is that count over the typical pass.
    _, _, sim_insts = bench.expected(workload, seed)
    metrics["sim_insts_per_s"] = sim_insts / metrics["wall_s"] if samples["wall_s"] else 0.0
    return tally, metrics


def trace(bench, workload, seed, seconds):
    """Per-layer metrics of traced passes, alternated with untraced passes
    for the tracing overhead."""
    tally = Tally()
    cold = workload != "warm-rerender"
    if not cold:
        bench.populate(seed)
    untraced, traced, layers = [], [], {}
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count():
        if rounds and time.perf_counter() >= deadline:
            break
        for mode, walls in (("pass", untraced), ("traced", traced)):
            p = bench.run(mode, workload, seed, cold)
            tally.add(bench.check(workload, seed, p))
            if p.record is None:
                continue
            walls.append(p.wall_s)
            for name, value in p.record.get("layers", {}).items():
                layers.setdefault(name, []).append(value)
    mem = Proc([bench.binary, "membench", "--seed", str(seed)])
    if mem.record is None:
        tally.add((1, 1, ["the memory-hierarchy replay crashed"]))
    metrics = {name: median(values) for name, values in layers.items()}
    metrics.update(mem.record or {})
    metrics["bench.trace_overhead_s"] = trimmed_mean(traced) - trimmed_mean(untraced)
    print(f"# {workload}: untraced {summary('wall_s', untraced)}")
    print(f"# {workload}: traced {summary('wall_s', traced)}")
    return tally, metrics


def result_line(tally, metrics, declared):
    """The result object over exactly the metrics BENCHMARK.json declares."""
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }


def record(bench):
    """Rewrites digests.json from the simulator as built."""
    data = {"cpu": {}, "gpu": {}, "reports": {}, "sim_insts": {}}
    for seed in RECORDED_SEEDS:
        cpu = bench.run("pass", "cpu-figs", seed).record
        data["cpu"][str(seed)] = cpu["job_digests"]
        data["reports"][f"cpu-figs/{seed}"] = cpu["report_digests"][0]
        data["sim_insts"][f"cpu-figs/{seed}"] = cpu["sim_insts"]
        gpu = bench.run("pass", "gpu-figs", seed).record
        per_seed = len(gpu["job_digests"]) // GPU_SEEDS_PER_PASS
        for i, g in enumerate(gpu_seeds(seed)):
            data["gpu"][str(g)] = gpu["job_digests"][i * per_seed:(i + 1) * per_seed]
            data["reports"][f"gpu/{g}"] = gpu["report_digests"][i]
        data["sim_insts"][f"gpu-figs/{seed}"] = gpu["sim_insts"]
        bench.populate(seed)
        warm = bench.run("pass", "warm-rerender", seed, cold=False).record
        if warm["job_digests"] != data["cpu"][str(seed)] + data["gpu"][str(seed)]:
            fail(f"seed {seed}: cached outcomes differ from freshly simulated ones")
        data["reports"][f"warm-rerender/{seed}"] = warm["report_digests"][0]
        data["sim_insts"][f"warm-rerender/{seed}"] = warm["sim_insts"]
        print(f"recorded campaign seed {seed}", file=sys.stderr)
    # One line per recorded list keeps the file diffable by key.
    sections = []
    for name in sorted(data):
        entries = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                             for key, value in sorted(data[name].items()))
        sections.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    DIGESTS.write_text("{\n" + ",\n".join(sections) + "\n}\n")


def selftest(bench):
    """Checks the benchmark's own guarantees; returns the exit code."""
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    seed = RECORDED_SEEDS[0]
    # Cold-state guard: consecutive passes share no process state. Every
    # pass must generate each trace stream it uses itself; with one thread
    # (warm-rerender's fig14) the generated count repeats exactly, with two
    # workers it also depends on which worker ran which job.
    for workload in ("cpu-figs", "warm-rerender"):
        cold = workload != "warm-rerender"
        if not cold:
            bench.populate(seed)
        runs = [bench.run("traced", workload, seed, cold).record for _ in range(2)]
        gen = [r["layers"]["trace.insts_generated"] for r in runs]
        distinct = [r["layers"]["trace.insts_distinct"] for r in runs]
        expect(distinct[0] == distinct[1] > 0 and gen[0] >= distinct[0] and gen[1] >= distinct[1],
               f"{workload}: each pass generates every stream it replays "
               f"(generated {gen}, distinct {distinct})")
        if cold:
            starts = [r["cache_entries_at_start"] for r in runs]
            expect(starts == [0, 0], f"{workload}: each cold pass starts on an empty "
                                     f"cache dir {starts}")
        else:
            expect(gen[0] == gen[1], f"{workload}: pass 2 generates as many trace insts "
                                     f"as pass 1 {gen}")
    # Traced-run fidelity: same simulated counters as the untraced pass.
    for workload in WORKLOADS:
        cold = workload != "warm-rerender"
        if not cold:
            bench.populate(seed)
        u = bench.run("pass", workload, seed, cold)
        t = bench.run("traced", workload, seed, cold)
        same = all(u.record[k] == t.record[k]
                   for k in ("job_digests", "report_digests", "sim_insts"))
        expect(same, f"{workload}: traced outputs and work equal the untraced pass's")
        checks = [bench.check(workload, seed, p) for p in (u, t)]
        expect(all(c[1] == 0 and not c[2] for c in checks),
               f"{workload}: both passes match the recorded digests {checks[0][2] + checks[1][2]}")
        print(f"  {workload}: trace overhead {t.wall_s - u.wall_s:+.3f} s "
              f"({u.wall_s:.3f} s untraced, {t.wall_s:.3f} s traced)")
    # Seed handling: an unrecorded seed does the same work, deterministically.
    other = 7
    assert other not in RECORDED_SEEDS
    for workload in ("cpu-figs", "gpu-figs"):
        a, b = (bench.run("pass", workload, other).record for _ in range(2))
        _, _, recorded_insts = bench.expected(workload, seed)
        expect(a["sim_insts"] == b["sim_insts"] == recorded_insts,
               f"{workload}: seed {other} simulates the recorded seed's "
               f"{recorded_insts} insts")
        expect(a["job_digests"] == b["job_digests"]
               and a["report_digests"] == b["report_digests"],
               f"{workload}: seed {other} gives the same digests on two runs")
        recorded_jobs, _, _ = bench.expected(workload, seed)
        expect(a["job_digests"] != recorded_jobs,
               f"{workload}: seed {other} simulates other inputs than seed {seed}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.record):
        ap.error("--workload is required")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    work = ROOT / ".bench_build" / f"perfbench-run-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        bench = Bench(binary, work)
        if args.record:
            record(bench)
            return 0
        if bench.digests is None:
            fail(f"no recorded digests at {DIGESTS}; run with --record")
        if args.selftest:
            return selftest(bench)
        seed = campaign_seed(args.seed)
        print(f"# {args.workload}: workload seed {args.seed} -> campaign seed {seed}")
        if args.trace:
            tally, metrics = trace(bench, args.workload, seed, args.seconds)
            result = result_line(tally, metrics, declared["per_layer"])
        else:
            tally, metrics = measure(bench, args.workload, seed, args.seconds)
            result = result_line(tally, metrics, declared["end_to_end"])
        for problem in tally.problems:
            print(f"# problem: {problem}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
