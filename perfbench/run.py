#!/usr/bin/env python3
"""prcost benchmark: one command, three workloads, the real program.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME|all --steady N [--seconds S]
                           [--first-seed F]

Builds prcost and the benchmark's own tools from source into .bench_build/
(first run only), generates the workload's request lines from --seed, runs
them against the real `prcost serve` / `prcost batch` binary, checks every
answer against values computed apart from the program, and prints one JSON
object as the last line of stdout. --trace 0 measures the end-to-end metrics;
--trace 1 replays the same inputs through the layer probe and reports the
per-layer metrics. --steady N runs the workload N times with seeds
F..F+N-1 and prints each metric's median, quartiles and spread against its
bound.
Exit status is 0 only when every check passed. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
PRCOST = os.path.join(BUILD, "prcost", "tools", "prcost")
CLIENT = os.path.join(BUILD, "query_client")
PROBE = os.path.join(BUILD, "layer_probe")

WORKLOADS = ["online-query", "design-sweep", "multitask-sweep"]
# Load comes from one process; the client's 2 connections (fixed in
# query_client.cpp) plus the program's workers stay within the 4 cores the
# figures were taken on (online-query's closed loop runs on one of them).
# design-sweep runs one batch worker: its requests cost 1 ms to 1.8 s each,
# and with two workers which of them overlap - and so the peak RSS -
# changes per run.
WORKERS = {"online-query": 2, "design-sweep": 1, "multitask-sweep": 2}
# setup_s is the median of this many set-ups per run, spread over the run
# (see setups_due).
SETUP_LAUNCHES = 40
ROUND_TIMEOUT_S = 150
# The traced run replays a seeded sample of each section of layers that its
# workload does not run for this long (see layer_sections).
SAMPLE_SECONDS = 2


class BenchError(Exception):
    pass


# ------------------------------------------------------------------- build

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                      "--target", "prcost_cli", "query_client", "layer_probe"])
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=840)
            if done.returncode != 0:
                if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and \
                        step[1] == "-S":
                    os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(step[:3]), log_path))


# --------------------------------------------------------------- processes

def wait_rusage(proc, timeout):
    """Reap `proc`, killing it after `timeout` seconds; returns
    (exit status, CPU seconds, peak RSS in MiB) of that process."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def run_batch(workers, lines_path, out_path, extra=()):
    """One `prcost batch` process over a request file; returns
    (wall seconds, CPU seconds, peak RSS MiB)."""
    with open(out_path + ".log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PRCOST, "batch", lines_path, "--workers", str(workers), "-o",
             out_path] + list(extra), stdout=log, stderr=log, cwd=ROOT)
        code, cpu_s, rss_mb = wait_rusage(proc, ROUND_TIMEOUT_S)
        wall = time.perf_counter() - start
    if code != 0:
        raise BenchError("prcost batch exited %d; see %s.log" % (code, out_path))
    return wall, cpu_s, rss_mb


class Daemon:
    """A `prcost serve` process on a Unix socket in the run directory."""

    def __init__(self, run_dir):
        # Relative to ROOT: keeps the path under the socket-path length limit.
        self.socket = os.path.relpath(
            os.path.join(run_dir, "serve.sock"), ROOT)
        if os.path.exists(os.path.join(ROOT, self.socket)):
            os.remove(os.path.join(ROOT, self.socket))
        self.err = open(os.path.join(run_dir, "serve.err"), "a")
        self.proc = subprocess.Popen(
            [PRCOST, "serve", "--socket", self.socket, "--workers",
             str(WORKERS["online-query"])],
            stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening" not in line:
            self.stop()
            raise BenchError("prcost serve did not start: %r" % line)

    def exchange(self, lines, chunk=32):
        """Send request lines on one connection, a chunk at a time; returns
        the response lines in order."""
        answers = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(60)
            conn.connect(os.path.join(ROOT, self.socket))
            reader = conn.makefile("rb")
            for i in range(0, len(lines), chunk):
                part = lines[i:i + chunk]
                conn.sendall(("\n".join(part) + "\n").encode())
                for _ in part:
                    answers.append(reader.readline().decode())
            reader.close()
        return answers

    def stop(self):
        """SIGTERM drain; returns the peak RSS of the daemon in MiB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        code, _, rss_mb = wait_rusage(self.proc, 30)
        self.proc.stdout.close()
        self.err.close()
        if code != 0:
            raise BenchError("prcost serve exited %d" % code)
        return rss_mb


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_json_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------- workloads

def setup_daemon(run_dir, warm):
    """Launch a daemon and answer the warm-up; returns (daemon, seconds,
    answers)."""
    start = time.perf_counter()
    daemon = Daemon(run_dir)
    try:
        answers = daemon.exchange(warm)
    except Exception:
        daemon.stop()
        raise
    elapsed = time.perf_counter() - start
    if len(answers) != len(warm):
        daemon.stop()
        raise BenchError("warm-up got %d answers for %d requests"
                         % (len(answers), len(warm)))
    return daemon, elapsed, answers


def setups_due(timed_s, seconds):
    """How many set-ups should be done once `timed_s` of the timed phase
    has passed. One set-up takes about 50 ms and swings +-20% with the host,
    which drifts over seconds; set-ups spread evenly over the run give a
    median that follows the host over the whole run, as the timed figures
    do, where a block of them samples one second of it."""
    return min(SETUP_LAUNCHES, 1 + int(SETUP_LAUNCHES * timed_s / seconds))


@contextlib.contextmanager
def one_core():
    """Processes started inside run on one core (they inherit this
    process's affinity, which is restored after)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def online_query(args, run_dir, checker):
    warm = workloads.warm_queries(workloads.WARMUP_SEED)
    requests_path = os.path.join(run_dir, "queries.jsonl")
    write_lines(requests_path, workloads.warm_queries(args.seed))
    setups = []

    def set_up_until(count):
        while len(setups) < count:
            daemon, elapsed, _ = setup_daemon(run_dir, warm)
            setups.append(elapsed)
            daemon.stop()

    # The closed loop must have the host to itself, so the timed set-ups
    # come in two halves, before it and after it. The closed loop's daemon
    # and client share one core: each request hands off between four
    # threads, and across cores every hand-off wakes an idle vCPU through
    # the hypervisor, whose delay follows the host's CPU steal (README).
    if not args.trace:
        set_up_until(SETUP_LAUNCHES // 2)
    with one_core():
        daemon, _, answers = setup_daemon(run_dir, warm)
    try:
        # The daemon's answers against the paper's constants and the Eq. 18
        # identity; the client then holds every timed answer to the
        # caches-off engine's.
        failed = sum(0 if checker.answer(json.loads(q), json.loads(a)) else 1
                     for q, a in zip(warm, answers))
        if args.trace:
            with one_core():
                return online_query_traced(args, run_dir, daemon,
                                           requests_path, failed)
        with one_core():
            done = subprocess.run(
                [CLIENT, "--socket", daemon.socket, "--requests",
                 requests_path, "--seconds", str(args.seconds), "--seed",
                 str(args.seed), "--server-pid", str(daemon.proc.pid)],
                stdout=subprocess.PIPE, cwd=ROOT, timeout=args.seconds + 120)
        if done.returncode != 0:
            raise BenchError("query_client exited %d" % done.returncode)
        last = done.stdout.decode().strip().splitlines()[-1]
        with open(os.path.join(run_dir, "client.json"), "w") as f:
            f.write(last + "\n")
        result = json.loads(last)
        rss_mb = daemon.stop()
    finally:
        daemon.stop()
    set_up_until(SETUP_LAUNCHES)
    checker.expect(result["mismatched"] == 0,
                   "%d daemon answers differ from the caches-off engine: %s"
                   % (result["mismatched"], result["first_bad"][:200]))
    n = result["requests"]
    return n, result["failed"], {
        "setup_s": statistics.median(setups),
        "throughput_rps": result["rps"],
        "latency_p50_ms": result["p50_us"] / 1e3,
        "latency_p90_ms": result["p90_us"] / 1e3,
        "cpu_ms_per_request": result["server_cpu_s"] * 1e3 / n,
        "rss_peak_mb": rss_mb,
    }


def openmetrics_counter(text, name):
    for line in text.splitlines():
        if line.startswith("prcost_%s_total " % name):
            return float(line.split()[1])
    return 0.0


def daemon_counters(daemon):
    """The daemon's own counters, through its `metrics` op."""
    scrape = json.loads(daemon.exchange(['{"op":"metrics"}'])[0])
    text = scrape["result"]["openmetrics"]
    return lambda name: openmetrics_counter(text, name.replace(".", "_"))


def online_query_traced(args, run_dir, daemon, requests_path, failed):
    metrics = layer_sections(args, run_dir, daemon, requests_path)
    counter = daemon_counters(daemon)
    metrics["serve.shed"] = counter("serve.shed")
    metrics["par.calls"] = counter("par.runs")
    metrics.update(cache_ratios(counter))
    requests = int(counter("serve.requests"))
    return requests, failed + int(metrics["serve.shed"]), metrics


def cache_ratios(counter):
    out = {}
    for metric, prefix in [("cost.plan_cache_hit_ratio", "plan_cache"),
                           ("bitstream.cache_hit_ratio", "bitstream_cache")]:
        hits = counter(prefix + ".hits")
        misses = counter(prefix + ".misses")
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    return out


def batch_workload(args, run_dir, checker, round_lines):
    """design-sweep / multitask-sweep: whole rounds, each one `prcost batch`
    process over the same request file, as many as come nearest to
    --seconds. Every round starts cold, as a batch job does, so its figures
    include the program's lazy set-up; setup_s times that set-up apart, by
    warm-up launches made between the rounds and kept out of their time."""
    workers = WORKERS[args.workload]
    warm_path = os.path.join(run_dir, "warmup.jsonl")
    warm_out = os.path.join(run_dir, "warmup.out")
    write_lines(warm_path, workloads.warm_queries(workloads.WARMUP_SEED))
    setups = []

    def set_up_until(count):
        while len(setups) < count:
            setups.append(run_batch(workers, warm_path, warm_out)[0])

    set_up_until(1)
    for answer in read_json_lines(warm_out):
        if "error" in answer:
            raise BenchError("warm-up failed: %s" % answer)

    round_path = os.path.join(run_dir, "round.jsonl")
    write_lines(round_path, round_lines)
    requests = [json.loads(line) for line in round_lines]
    if args.trace:
        return batch_traced(args, run_dir, checker, round_path, requests)

    rounds = 0
    wall = 0.0
    cpu_s = 0.0
    rss_mb = 0.0
    answers = []
    # Whole rounds, as many as bring the timed phase nearest to --seconds:
    # design-sweep's rounds take about 15 s each.
    while rounds == 0 or wall + wall / rounds / 2 < args.seconds:
        out_path = os.path.join(run_dir, "round-%d.out" % rounds)
        # --stats: each answer carries the program's own wall time for it.
        round_wall, cpu, rss = run_batch(workers, round_path, out_path,
                                         ["--stats"])
        wall += round_wall
        cpu_s += cpu
        rss_mb = max(rss_mb, rss)
        answers.append(out_path)
        rounds += 1
        set_up_until(setups_due(wall, args.seconds))
    set_up_until(SETUP_LAUNCHES)

    failed = 0
    latencies_ms = []
    for out_path in answers:
        responses = read_json_lines(out_path)
        if len(responses) != len(requests):
            raise BenchError("%s: %d answers for %d requests"
                             % (out_path, len(responses), len(requests)))
        for request, response in zip(requests, responses):
            if checker.answer(request, response):
                latencies_ms.append(response["result"]["stats"]["wall_ms"])
            else:
                failed += 1
        if args.workload == "multitask-sweep":
            checker.reruns(responses)
    n = rounds * len(requests)
    return n, failed, {
        "setup_s": statistics.median(setups),
        "throughput_rps": n / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "cpu_ms_per_request": cpu_s * 1e3 / n,
        "rss_peak_mb": rss_mb,
    }


def batch_traced(args, run_dir, checker, round_path, requests):
    """One real round with the program's counters, then the layer probe on
    the same lines (design-sweep: one pass of them) and on the samples of
    the other sections, the wire path through a daemon warmed as the
    workload's warm-up is."""
    counters_path = os.path.join(run_dir, "counters.json")
    out_path = os.path.join(run_dir, "round-traced.out")
    run_batch(WORKERS[args.workload], round_path, out_path,
              ["--metrics-out", counters_path])
    responses = read_json_lines(out_path)
    failed = sum(0 if checker.answer(q, r) else 1
                 for q, r in zip(requests, responses))
    with open(counters_path) as f:
        counters = json.load(f)["counters"]
    metrics = cache_ratios(lambda name: float(counters.get(name, 0)))
    metrics["par.calls"] = float(counters.get("par.runs", 0))
    probe_path = round_path
    if args.workload == "design-sweep":
        probe_path = os.path.join(run_dir, "pass.jsonl")
        per_pass = len(requests) // workloads.DESIGN_PASSES
        with open(round_path) as f:
            write_lines(probe_path, f.read().splitlines()[:per_pass])
    daemon, _, _ = setup_daemon(
        run_dir, workloads.warm_queries(workloads.WARMUP_SEED))
    try:
        metrics.update(layer_sections(args, run_dir, daemon, probe_path))
        metrics["serve.shed"] = daemon_counters(daemon)("serve.shed")
    finally:
        daemon.stop()
    return len(requests), failed, metrics


SAMPLES = {
    # The wire path's sample is every workload's warm-up, in its fixed order.
    "online-query": lambda seed: workloads.warm_queries(workloads.WARMUP_SEED),
    "design-sweep": workloads.design_sample,
    "multitask-sweep": workloads.multitask_sample,
}


def layer_sections(args, run_dir, daemon, own_path):
    """The layer probe over every section of layers, so that every traced
    run reports every per-layer metric: first the workload's own section on
    its own lines for the run's seconds, then each other section on its
    seeded sample for SAMPLE_SECONDS. A metric two sections report (the
    bitstream generator's) comes from the first."""
    metrics = {}
    for section in [args.workload] + [w for w in WORKLOADS
                                      if w != args.workload]:
        path, seconds = own_path, args.seconds
        if section != args.workload:
            path = os.path.join(run_dir, "sample-%s.jsonl" % section)
            write_lines(path, SAMPLES[section](args.seed))
            seconds = SAMPLE_SECONDS
        extra = ["--socket", daemon.socket] if section == "online-query" else []
        probe = run_probe(section, seconds, run_dir, path, extra)
        for name, value in probe["metrics"].items():
            metrics.setdefault(name, value)
    return metrics


def run_probe(section, seconds, run_dir, requests_path, extra):
    trace_path = os.path.join(run_dir, "spans-%s.json" % section)
    done = subprocess.run(
        [PROBE, "--workload", section, "--requests", requests_path,
         "--seconds", str(seconds), "--trace-out", trace_path] + extra,
        stdout=subprocess.PIPE, cwd=ROOT, timeout=seconds * 3 + 120)
    if done.returncode != 0:
        raise BenchError("layer_probe exited %d" % done.returncode)
    probe = json.loads(done.stdout.decode().strip().splitlines()[-1])
    overhead = probe["traced_s"] / probe["untraced_s"] - 1
    print("trace %s: %d passes, %d spans in %s; replay untraced %.3f s, "
          "traced %.3f s (tracing overhead %+.1f%%)"
          % (section, probe["passes"], probe["spans"],
             os.path.relpath(trace_path, ROOT), probe["untraced_s"],
             probe["traced_s"], overhead * 100))
    for kind in ["op", "layer"]:
        shares = sorted(probe[kind + "_share"].items(), key=lambda kv: -kv[1])
        print("trace %s: share of replay time by %s: %s" % (
            section, kind, ", ".join("%s %.1f%%" % (name, share * 100)
                                     for name, share in shares)))
    return probe


# ------------------------------------------------------------------ runs

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Compilers and tools keep their temporary files inside the checkout too.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    build()
    # One directory per workload and mode, whatever the seed: an
    # online-query span log is about 350 MB, and each run replaces the last.
    run_dir = os.path.join(BUILD, "run", "%s-trace%d"
                           % (args.workload, args.trace))
    os.makedirs(run_dir, exist_ok=True)
    checker = workloads.Checker()
    if args.workload == "online-query":
        attempted, failed, metrics = online_query(args, run_dir, checker)
    elif args.workload == "design-sweep":
        attempted, failed, metrics = batch_workload(
            args, run_dir, checker, workloads.design_round(args.seed))
    else:
        attempted, failed, metrics = batch_workload(
            args, run_dir, checker, workloads.multitask_round(args.seed))
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise BenchError("metrics %s, the manifest names %s"
                         % (sorted(metrics), sorted(wanted)))
    for problem in checker.problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    correct = not checker.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def steady(args):
    """Run each workload N times with seeds first..first+N-1 and report
    every metric's median, quartiles and spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.steady):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
            last = done.stdout.decode().strip().splitlines()[-1]
            result = json.loads(last)
            if done.returncode != 0 or not result["correct"]:
                raise BenchError("%s seed %d failed" % (workload, seed))
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, last), flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else float("inf"),
                          "bound": bounds.get(name), "values": values}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        summary[workload] = {"metrics": rows, "failed_shares": shares,
                             "seeds": [args.first_seed,
                                       args.first_seed + args.steady - 1]}
        print("\n%s: %d runs, seeds %d..%d, failed share %s" % (
            workload, len(runs), args.first_seed,
            args.first_seed + args.steady - 1, shares))
        print("  %-22s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, row in rows.items():
            print("  %-22s %12.6g %12.6g %12.6g %7.1f%% %6s" % (
                name, row["q1"], row["median"], row["q3"],
                row["spread"] * 100,
                "" if row["bound"] is None else "%.0f%%" % (row["bound"] * 100)))
    out = os.path.join(BUILD, "steady-%s-trace%d-seed%d.json"
                       % (args.workload, args.trace, args.first_seed))
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nwrote " + os.path.relpath(out, ROOT))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N times on seeds first..first+N-1")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.steady:
            return steady(args)
        if args.workload == "all":
            parser.error("--workload all needs --steady")
        return run_once(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
