"""Request generation and output checks for the three benchmark workloads.

Every request line comes from the run's --seed; the program only ever sees
these lines. The checks compare the program's answers with values computed
apart from it: the paper's Table V and Table IV constants (data/), the
Eq. 18 word-size identity, and accounting identities of the responses.
"""

import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# The device catalog and the built-in PRMs, in catalog order.
DEVICES = ["xc5vlx110t", "xc6vlx75t", "xc4vlx60", "xc5vlx50t",
           "xc6vlx240t", "xc7k325t", "xc6slx45"]
PRMS = ["fir", "mips", "sdram", "aes", "crc32", "uart", "matmul", "sobel",
        "fft"]
VIRTEX5 = {"xc5vlx110t", "xc5vlx50t"}
# Spartan-6 configuration words are 16 bits wide; every other family's are
# 32 bits.
BYTES_PER_WORD = {d: (2 if d == "xc6slx45" else 4) for d in DEVICES}

# The 10 of 63 (device, PRM) pairs on which no PRR fits: the DSP or BRAM
# demand of matmul/fft exceeds the device's columns. They are left out so
# that no operation fails on a healthy build.
INFEASIBLE = {
    ("xc5vlx110t", "matmul"), ("xc5vlx110t", "fft"),
    ("xc4vlx60", "matmul"), ("xc4vlx60", "fft"),
    ("xc5vlx50t", "matmul"), ("xc5vlx50t", "fft"),
    ("xc6vlx240t", "matmul"), ("xc6vlx240t", "fft"),
    ("xc7k325t", "fft"),
    ("xc6slx45", "matmul"),
}
FEASIBLE = [(d, p) for d in DEVICES for p in PRMS if (d, p) not in INFEASIBLE]
OBJECTIVES = ["area", "height", "bitstream"]
# The warm-up's order is fixed: with two workers the order of the cold
# queries moved a daemon's set-up time by up to 20% between seeds.
WARMUP_SEED = 0

# design-sweep: passes over the same request set inside one batch process.
DESIGN_PASSES = 2
RANK_SETS = [["fir", "sdram", "uart"], ["aes", "crc32", "sobel"],
             ["fir", "mips", "fft"]]

# multitask-sweep sizing (README, "Workloads").
SIM_DEVICES = ["xc7k325t", "xc6vlx240t"]
SIM_PRMS = ["fir", "sdram", "uart", "aes", "crc32", "sobel", "mips"]
FAULT_PRMS = ["fir", "sdram", "uart", "aes", "mips"]
# Each op costs about 40-50 ms here, so that no latency percentile lands on
# a boundary between request classes (optimize's fleets still range 17-81
# ms).
SCHED_TASKS = 120000
FAULT_TASKS = 20000
OPT_FLEET = 200
OPT_REQUESTS = 12


def load_expected():
    with open(os.path.join(BENCH_DIR, "data", "paper_expected.json")) as f:
        return json.load(f)


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def warm_queries(seed):
    """The 212 distinct warm queries: plan without cross-check under each
    objective, and bitstream, on every feasible pair, in an order drawn
    from `seed`. They are online-query's timed requests, and in the order
    of WARMUP_SEED every workload's untimed warm-up: the device catalog,
    fabric interning, the built-in PRM synthesis memo, the worker pool,
    and the plan and bitstream caches for every feasible pair."""
    rng = random.Random(seed)
    lines = []
    for device, prm in FEASIBLE:
        for objective in OBJECTIVES:
            lines.append({"op": "plan", "device": device, "prm": prm,
                          "objective": objective, "cross_check": False})
        lines.append({"op": "bitstream", "device": device, "prm": prm})
    rng.shuffle(lines)
    for i, line in enumerate(lines):
        line["id"] = "q%d-%d" % (seed, i)
    return [_dumps(line) for line in lines]


def design_pass(seed):
    """One designer pass, in a seeded order: default plan (synthesis + PAR +
    generated bitstream) on every feasible pair, the six Table V report
    plans, explore with the bitstream cross-check on every device, and rank
    under seeded workload seeds."""
    rng = random.Random(seed * 7919 + 1)
    requests = [{"op": "plan", "device": device, "prm": prm}
                for device, prm in FEASIBLE]
    for row in load_expected()["table5"]["rows"]:
        requests.append({"op": "plan", "device": row["device"],
                         "report": report_path(row)})
    # Explore a fixed set of 5 PRMs per device (not mips or matmul) under the
    # default workload seed: the Pareto-front bitstreams it generates stay in
    # the bitstream cache, so a seeded explore would make the peak RSS a
    # property of the seed.
    for device in DEVICES:
        usable = [p for p in PRMS if (device, p) not in INFEASIBLE
                  and p not in ("mips", "matmul")]
        requests.append({"op": "explore", "device": device,
                         "prms": usable[:5], "cross_check": True})
    # Rank fixed PRM sets too: rank synthesizes any PRM it has not seen for
    # Virtex-5, and a seeded choice (with matmul or not) moved the peak RSS.
    for prms in RANK_SETS:
        requests.append({"op": "rank", "prms": prms,
                         "seed": rng.randrange(1 << 30)})
    rng.shuffle(requests)
    return requests


def report_path(row):
    return "perfbench/data/%s_%s.srp" % (row["prm"], row["device"])


def design_round(seed):
    lines = []
    for p in range(DESIGN_PASSES):
        for i, request in enumerate(design_pass(seed)):
            lines.append(_dumps(dict(request, id="d%d-p%d-%d" % (seed, p, i))))
    return lines


def multitask_round(seed):
    """schedule (3 policies x 2 arrival shapes x 2 devices, with prefetch),
    faults (drop and reschedule x 2 devices x 2 seeds) and
    optimize on fixed synthetic fleets, in a seeded order, plus a same-seed
    rerun of one schedule and one faults request."""
    rng = random.Random(seed * 104729 + 3)
    requests = []
    for device in SIM_DEVICES:
        for policy in ["fcfs", "priority", "edf"]:
            for arrivals in ["poisson", "bursty"]:
                requests.append({
                    "op": "schedule", "device": device, "prms": SIM_PRMS,
                    "slots": 3, "policy": policy, "workload": arrivals,
                    "tasks": SCHED_TASKS, "seed": rng.randrange(1 << 30),
                    "deadline_factor": 4.0, "prefetch_rate_hz": 50.0})
        for _ in range(2):
            for recovery in ["drop", "reschedule"]:
                requests.append({
                    "op": "faults", "device": device, "prms": FAULT_PRMS,
                    "prr_count": 2, "tasks": FAULT_TASKS,
                    "seed": rng.randrange(1 << 30), "fault_rate": 0.2,
                    "fault_seed": rng.randrange(1 << 30), "max_retries": 1,
                    "recovery": recovery})
    # The fleets are fixed: one fleet's optimize cost varies 7x with its
    # seed, which would make the run's figures a property of the seed.
    for k in range(OPT_REQUESTS):
        requests.append({"op": "optimize", "device": SIM_DEVICES[k % 2],
                         "prm_count": OPT_FLEET, "seed": k + 1})
    rng.shuffle(requests)
    first = {}
    for request in requests:
        first.setdefault(request["op"], request)
    requests.append(dict(first["schedule"], id="rerun-schedule"))
    requests.append(dict(first["faults"], id="rerun-faults"))
    first["schedule"]["id"] = "first-schedule"
    first["faults"]["id"] = "first-faults"
    for i, request in enumerate(requests):
        request.setdefault("id", "m%d-%d" % (seed, i))
    return [_dumps(r) for r in requests]


def design_sample(seed):
    """The design layers' sample for the traced runs of the workloads that
    do not run them: default plans on 3 seeded feasible pairs (not mips or
    matmul, whose PAR takes 0.4-1.8 s), one explore with the bitstream
    cross-check and one rank."""
    rng = random.Random(seed * 6007 + 5)
    cheap = [(d, p) for d, p in FEASIBLE if p not in ("mips", "matmul")]
    requests = [{"op": "plan", "device": device, "prm": prm}
                for device, prm in rng.sample(cheap, 3)]
    device = rng.choice(DEVICES)
    usable = [p for p in PRMS if (device, p) not in INFEASIBLE
              and p not in ("mips", "matmul")]
    requests.append({"op": "explore", "device": device, "prms": usable[:3],
                     "cross_check": True})
    requests.append({"op": "rank", "prms": rng.choice(RANK_SETS),
                     "seed": rng.randrange(1 << 30)})
    return [_dumps(dict(r, id="ds%d-%d" % (seed, i)))
            for i, r in enumerate(requests)]


def multitask_sample(seed):
    """The simulation layers' sample for the traced runs of the workloads
    that do not run them: 2 schedule and 2 faults requests of 5 000 tasks on
    a seeded device, and one optimize on a fixed 50-PRM fleet."""
    rng = random.Random(seed * 7013 + 7)
    device = rng.choice(SIM_DEVICES)
    requests = []
    for policy, arrivals in [("fcfs", "poisson"), ("edf", "bursty")]:
        requests.append({
            "op": "schedule", "device": device, "prms": SIM_PRMS, "slots": 3,
            "policy": policy, "workload": arrivals, "tasks": 5000,
            "seed": rng.randrange(1 << 30), "deadline_factor": 4.0,
            "prefetch_rate_hz": 50.0})
    for recovery in ["drop", "reschedule"]:
        requests.append({
            "op": "faults", "device": device, "prms": FAULT_PRMS,
            "prr_count": 2, "tasks": 5000, "seed": rng.randrange(1 << 30),
            "fault_rate": 0.2, "fault_seed": rng.randrange(1 << 30),
            "max_retries": 1, "recovery": recovery})
    requests.append({"op": "optimize", "device": device, "prm_count": 50,
                     "seed": 1})
    return [_dumps(dict(r, id="ms%d-%d" % (seed, i)))
            for i, r in enumerate(requests)]


# ------------------------------------------------------------------ checks

class Checker:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self):
        self.expected = load_expected()
        self.problems = []

    def expect(self, ok, what):
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        return ok

    def frames(self, device, plan, what):
        """Eqs. 19-22 with the Table IV Virtex-5 constants."""
        if device not in VIRTEX5:
            return
        t4 = self.expected["table4_virtex5"]
        org = plan["organization"]
        want = (t4["cf_clb"] * org["clb_cols"] + t4["cf_dsp"] * org["dsp_cols"]
                + t4["cf_bram"] * org["bram_cols"] + t4["pad_frames"])
        got = plan["bitstream"]["config_frames_per_row"]
        self.expect(got == want, "%s: config_frames_per_row %s != %s"
                    % (what, got, want))

    def plan_answer(self, request, result):
        what = "plan %s/%s" % (request["device"],
                               request.get("prm") or request.get("report"))
        self.frames(request["device"], result["plan"], what)
        if request.get("cross_check", True):
            self.expect(result.get("model_match") is True,
                        what + ": generated bitstream != Eq. 18 model")
        if "prm" in request and request.get("cross_check", True):
            self.expect(result.get("par", {}).get("routed") is True,
                        what + ": PAR did not route")
        if "report" in request:
            row = next(r for r in self.expected["table5"]["rows"]
                       if report_path(r) == request["report"])
            org = result["plan"]["organization"]
            got = (org["h"], org["clb_cols"], org["dsp_cols"], org["bram_cols"])
            want = (row["h"], row["w_clb"], row["w_dsp"], row["w_bram"])
            self.expect(got == want, "%s: Table V %s != %s" % (what, got, want))

    def bitstream_answer(self, request, result):
        what = "bitstream %s/%s" % (request["device"], request["prm"])
        plan = result["plan"]
        self.frames(request["device"], plan, what)
        words = result["words"]
        self.expect(words * BYTES_PER_WORD[request["device"]]
                    == plan["bitstream"]["total_bytes"] == result["total_bytes"],
                    what + ": words x word size != Eq. 18 total_bytes")
        self.expect(words == plan["bitstream"]["total_words"],
                    what + ": words != Eq. 18 total_words")

    def schedule_answer(self, request, result):
        what = "schedule %s" % request["id"]
        n = result["task_count"]
        self.expect(n == request["tasks"], what + ": task_count")
        self.expect(result["reuse_hits"] + result["reconfig_count"]
                    + result["cpu_fallbacks"] == n,
                    what + ": reuse + reconfig + cpu_fallback != task_count")
        self.expect(result["throughput_per_s"] == n / result["makespan_s"],
                    what + ": throughput_per_s != task_count / makespan_s")

    def optimize_answer(self, request, result):
        what = "optimize %s" % request["id"]
        self.expect(result["cost_verified"] is True, what + ": cost_verified")
        self.expect(result["bitstream_verified"] is True,
                    what + ": bitstream_verified")
        self.expect(result["anneal_rejected_prms"]
                    <= result["greedy_rejected_prms"],
                    what + ": anneal rejects more PRMs than greedy")

    def answer(self, request, response):
        """Check one response; returns False when it is an error envelope
        (a failed operation)."""
        if "error" in response or "result" not in response:
            self.expect(False, "%s %s failed: %s" % (
                request["op"], request.get("id"), response.get("error")))
            return False
        result = response["result"]
        op = request["op"]
        if op == "plan":
            self.plan_answer(request, result)
        elif op == "bitstream":
            self.bitstream_answer(request, result)
        elif op == "explore":
            self.expect(result.get("bitstream_check", {}).get("all_match")
                        is True, "explore %s: cross-check mismatch"
                        % request["device"])
        elif op == "rank":
            self.expect(len(result["choices"]) > 0, "rank: no choices")
        elif op == "schedule":
            self.schedule_answer(request, result)
        elif op == "optimize":
            self.optimize_answer(request, result)
        return True

    def reruns(self, responses):
        """Same-seed reruns inside one round must answer identically."""
        # The per-request "stats" block (wall time) differs between reruns.
        by_id = {r.get("id"): {k: v for k, v in r.get("result", {}).items()
                               if k != "stats"}
                 for r in responses}
        for op in ["schedule", "faults"]:
            first = by_id.get("first-" + op)
            again = by_id.get("rerun-" + op)
            self.expect(first and first == again,
                        "same-seed %s rerun differs" % op)
