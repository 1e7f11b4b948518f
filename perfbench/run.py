#!/usr/bin/env python3
"""The iejoin benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

The first run builds the server and the benchmark driver from source into
.bench_build (perfbench/CMakeLists.txt). Every run generates its inputs from
--seed, checks every timed output against a reference computed outside the
timed window, and prints one JSON object as its last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The run
environment is written next to the metrics in .bench_work/runs/. See
perfbench/README.md for the workloads and every metric's definition.
"""

import json
import os
import random
import re
import selectors
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BUILD_TYPE = "Release"

NPROC = os.cpu_count() or 1
# The relay's worker processes: one core stays for the supervisor.
WORKERS = max(1, NPROC - 1)
SCENARIO_SEED = 20090331  # ScenarioSpec::PaperLike()'s own seed

MAX_RPS = 2000  # stream length bound: requests per second of any phase

# The supervised relay, run by traced serve_inproc runs. Its open-loop rate
# is a constant, about a third of its closed-loop throughput when the
# benchmark was written (3 workers, 4 vCPUs); it is never re-derived.
OPEN_LOOP_RPS = 75.0
# Untimed warm-up, in decks: enough for every worker to have served most
# templates, so its extraction cache is warm before the open loop.
RELAY_WARMUP_DECKS = 6

WORKLOADS = ("serve_inproc", "batch_adaptive", "batch_scan")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_rps": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "docs_per_s": "docs/s",
    "ok_frac": "ratio",
    "slo_met_frac": "ratio",
    "rss_mb": "MiB",
}

PER_LAYER = {  # name -> unit
    "harness.load_scenario_s": "s",
    "harness.generate_corpora_s": "s",
    "harness.train_classifiers_s": "s",
    "harness.characterize_knobs_s": "s",
    "harness.learn_queries_s": "s",
    "service.parse_us": "us",
    "service.frame_us": "us",
    "service.relay_overhead_ms": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.supervisor_cpu_frac": "ratio",
    "service.shed": "count",
    "service.replays": "count",
    "service.plan_cache.hit_ratio": "ratio",
    "service.plan_cache.lookup_us": "us",
    "optimizer.inputs_ms": "ms",
    "optimizer.choose_ms": "ms",
    "optimizer.plans_evaluated": "count",
    "optimizer.adaptive.phases_per_job": "count",
    "optimizer.adaptive.switches_per_job": "count",
    "estimation.mle_ms": "ms",
    "estimation.mle_calls": "count",
    "estimation.mle_share": "ratio",
    "retrieval.next_us.sc": "us",
    "retrieval.next_us.fs": "us",
    "retrieval.next_us.aqg": "us",
    "retrieval.useful_ratio": "ratio",
    "classifier.score_us": "us",
    "classifier.calls_per_op": "count",
    "classifier.accept_ratio": "ratio",
    "querygen.queries_per_op": "count",
    "querygen.docs_per_query": "count",
    "extraction.process_us": "us",
    "extraction.process_calls": "count",
    "extraction.cache.hit_ratio": "ratio",
    "extraction.cache.lookup_us": "us",
    "extraction.cache.insert_us": "us",
    "extraction.cache.evictions": "count",
    "extraction.cache.bytes": "bytes",
    "join.run_ms": "ms",
    "join.driver_self_ms": "ms",
    "join.tuples_per_doc": "count",
    "join.pipeline.pool_busy_frac": "ratio",
    "join.pipeline.wall_over_cpu": "ratio",
    "fault.ops_retried": "count",
    "fault.ops_failed": "count",
    "fault.docs_dropped": "count",
    "obs.tracing_overhead_frac": "ratio",
    "loadgen.late_ms_max": "ms",
    "loadgen.cpu_frac": "ratio",
    "host.steal_frac": "ratio",
}

USAGE = ("usage: python3 perfbench/run.py --workload {%s|all} --seed N "
         "--seconds S --trace {0|1}" % "|".join(WORKLOADS))


class BenchError(Exception):
    """A run that cannot produce a valid result (no result line is printed)."""


# ---------------------------------------------------------------------------
# Command line: every flag is required, unknown flags are usage errors.
# ---------------------------------------------------------------------------

def parse_args(argv):
    flags = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in ("--workload", "--seed", "--seconds", "--trace") or \
                key in flags or i + 1 >= len(argv):
            raise ValueError("unexpected argument: %s" % key)
        flags[key] = argv[i + 1]
        i += 2
    if len(flags) != 4:
        raise ValueError("missing arguments")
    workload = flags["--workload"]
    if workload not in WORKLOADS + ("all",):
        raise ValueError("unknown workload: %s" % workload)
    seed = int(flags["--seed"])
    seconds = float(flags["--seconds"])
    if seed < 0 or not 0 < seconds <= 600:
        raise ValueError("seed must be >= 0 and seconds in (0, 600]")
    if flags["--trace"] not in ("0", "1"):
        raise ValueError("--trace takes 0 or 1")
    return workload, seed, seconds, flags["--trace"] == "1"


# ---------------------------------------------------------------------------
# Build and environment.
# ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds the server and the driver."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("iejoin sources not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench_build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(NPROC),
                      "--target", "iejoin_server", "perfbench_driver"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed, see %s" % log_path)
    return (os.path.join(BUILD_DIR, "iejoin_server"),
            os.path.join(BUILD_DIR, "perfbench_driver"))


def cpu_times_total():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a checkout without git metadata
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def proc_cpu_seconds(pid):
    """utime + stime of one live process, in seconds (0 once it is gone)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def run_driver(driver, args, timeout=170):
    out = subprocess.run([driver] + args, capture_output=True, text=True,
                         timeout=timeout)
    if out.returncode != 0:
        raise BenchError("driver %s failed (%d): %s" %
                         (args[0], out.returncode, out.stderr.strip()[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def paper_scenario(driver):
    """The paper-size scenario (12k + 12k docs), generated once per checkout.

    Its seed is fixed: the workload seed draws the operation stream, not the
    corpora, so runs with different seeds do the same kind of work and their
    spread measures the program and the host rather than the data."""
    path = os.path.join(WORK_DIR, "paper-%d.iejoin" % SCENARIO_SEED)
    if not os.path.isfile(path):
        tmp = path + ".tmp%d" % os.getpid()
        run_driver(driver, ["generate", "--seed", str(SCENARIO_SEED), "--out", tmp])
        os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# serve_inproc (single-worker JoinService in the driver) and the supervised
# relay (iejoin_server --supervise over its stdin/stdout pipe) share one
# request stream.
# ---------------------------------------------------------------------------

ALGORITHMS = ("idjn", "oijn", "zgjn")
STRATEGIES = ("sc", "fs", "aqg")
THETAS = (0.4, 0.8)
SLO_SIZES = ((100, 1000000), (300, 1000000))
OPTIMIZE_SLOS = ((5, 100000), (5, 6400), (10, 100000), (10, 6400),
                 (20, 100000), (20, 6400), (40, 100000), (40, 6400))
FAULT_SPECS = ("retrieve.error=0.05", "query.error=0.1", "extract.error=0.05",
               "retrieve.error=0.02,query.error=0.05,extract.error=0.02")


def serve_templates(seed):
    """Distinct requests of the serve stream (dicts without ids): the plan
    space, the optimize SLOs, and one fault-injected request per (fault spec,
    algorithm) whose fault RNG seed comes from the workload seed."""
    rng = random.Random(seed)
    plans = []
    for algorithm in ALGORITHMS:
        for x1 in STRATEGIES:
            for x2 in STRATEGIES:
                for theta1 in THETAS:
                    for theta2 in THETAS:
                        for tau_good, tau_bad in SLO_SIZES:
                            plans.append({"algorithm": algorithm, "x1": x1, "x2": x2,
                                          "theta1": theta1, "theta2": theta2,
                                          "tau_good": tau_good, "tau_bad": tau_bad})
    optimize = [{"optimize": True, "tau_good": g, "tau_bad": b}
                for g, b in OPTIMIZE_SLOS]
    faults = [{"algorithm": algorithm, "tau_good": SLO_SIZES[0][0],
               "tau_bad": SLO_SIZES[0][1], "faults": spec,
               "seed": rng.randrange(1, 1 << 30)}
              for spec in FAULT_SPECS for algorithm in ALGORITHMS]
    return plans, optimize, faults


def serve_decks(seed, groups, decks):
    """Template indices, `decks` shuffled decks long. A deck holds every plan
    template once, every optimize template 3 times and every fault template
    twice (264 requests: 82% plan space, 9% optimize, 9% faults), so any
    whole number of decks has the same mix whatever the seed."""
    plans, optimize, faults = groups
    deck = (list(range(len(plans))) +
            [len(plans) + i for i in range(len(optimize))] * 3 +
            [len(plans) + len(optimize) + i for i in range(len(faults))] * 2)
    rng = random.Random(seed * 7919 + 1)
    stream = []
    for _ in range(decks):
        rng.shuffle(deck)
        stream.extend(deck)
    return stream, len(deck)


def request_line(template, rid):
    request = {"id": rid}
    request.update(template)
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


ID_RE = re.compile(rb'^\{"id":"([^"]*)",')


def normalized(response):
    """Response bytes with the request id removed (ids differ per send)."""
    return ID_RE.sub(b"{", response, count=1)


class Server:
    """One iejoin_server process on a stdin/stdout pipe; responses by id."""

    def __init__(self, binary, scenario, supervised, log_path):
        args = [binary, "--scenario", scenario, "--max-queue", "4096"]
        if supervised:
            args += ["--supervise", "--workers", str(WORKERS)]
        else:
            args += ["--workers", "1"]
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     cwd=WORK_DIR)
        self.out_fd = self.proc.stdout.fileno()
        os.set_blocking(self.out_fd, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.out_fd, selectors.EVENT_READ)
        self.buffer = b""
        self.seq = 0

    def send(self, line):
        self.proc.stdin.write(line)
        self.proc.stdin.flush()

    def poll(self, timeout):
        """Complete response lines that arrive within `timeout` seconds."""
        lines = []
        if self.sel.select(max(0.0, timeout)):
            chunk = os.read(self.out_fd, 1 << 20)
            if not chunk:
                raise BenchError("server exited (see %s)" % self.log.name)
            self.buffer += chunk
            *lines, self.buffer = self.buffer.split(b"\n")
        return lines

    def call(self, template, timeout=60.0):
        """One request, nothing else in flight; returns the response bytes."""
        self.seq += 1
        rid = "c%d" % self.seq
        self.send(request_line(template, rid))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.poll(deadline - time.monotonic()):
                m = ID_RE.match(line)
                if m and m.group(1).decode() == rid:
                    return line
        raise BenchError("no response to %s" % rid)

    def stats(self):
        return json.loads(self.call({"stats": True}))

    def wait_idle(self, timeout=120.0):
        """Waits until every worker reports "idle" in stats (the ready banner
        comes before the workers have built their workbenches)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            workers = self.stats().get("workers", [])
            if workers and all(w["state"] == "idle" for w in workers):
                return workers
            time.sleep(0.001)
        raise BenchError("workers never became idle")

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.sel.close()
        self.proc.stdout.close()
        self.log.close()


def drive(server, lines, due, outstanding, on_response):
    """Sends every one of `lines`, either at `due` times (open loop) or
    keeping `outstanding` in flight (closed loop). Calls
    on_response(index, response_bytes, receive_time) per response and returns
    the largest lateness of a send behind its due time, in seconds."""
    sent = 0
    in_flight = 0
    late_max = 0.0
    index_of = {}
    while True:
        now = time.monotonic()
        wait = 1.0
        if due is not None:
            while sent < len(lines) and now >= due[sent]:
                late_max = max(late_max, now - due[sent])
                server.send(lines[sent][1])
                index_of[lines[sent][0]] = sent
                sent += 1
                in_flight += 1
            if sent < len(lines):
                wait = due[sent] - now
        else:
            while in_flight < outstanding and sent < len(lines):
                server.send(lines[sent][1])
                index_of[lines[sent][0]] = sent
                sent += 1
                in_flight += 1
        if sent == len(lines) and in_flight == 0:
            break
        for response in server.poll(wait):
            received = time.monotonic()
            m = ID_RE.match(response)
            if not m or m.group(1) not in index_of:
                raise BenchError("unmatched response: %r" % response[:200])
            in_flight -= 1
            on_response(index_of.pop(m.group(1)), response, received)
    return late_max


def reference_responses(server_bin, scenario, templates, log_path):
    """Every template once through a single-worker, in-process iejoin_server,
    one request at a time, outside any timed window (normalized bytes)."""
    server = Server(server_bin, scenario, False, log_path)
    try:
        reference = [normalized(server.call(t)) for t in templates]
    finally:
        server.close()
    for i, ref in enumerate(reference):
        status = json.loads(ref).get("status")
        if status not in ("ok", "degraded"):
            raise BenchError("reference for template %d is %s: %s" %
                             (i, status, ref[:200]))
    return reference


def serve_inproc(binaries, seed, seconds, trace, env):
    server_bin, driver = binaries
    scenario = paper_scenario(driver)
    groups = serve_templates(seed)
    templates = groups[0] + groups[1] + groups[2]
    tag = "%d-%d" % (os.getpid(), seed)
    log_path = os.path.join(WORK_DIR, "server-%s.log" % tag)
    req_path = os.path.join(WORK_DIR, "templates-%s.jsonl" % tag)
    stream_path = os.path.join(WORK_DIR, "stream-%s.txt" % tag)
    out_path = os.path.join(WORK_DIR, "responses-%s.jsonl" % tag)
    reference = reference_responses(server_bin, scenario, templates, log_path)

    _, deck = serve_decks(seed, groups, 0)
    # One more deck than any timed phase needs: the driver's untimed warm-up.
    stream, _ = serve_decks(seed, groups, -(-int(MAX_RPS * seconds) // deck) + 2)
    with open(req_path, "wb") as f:
        for n, t in enumerate(templates):
            f.write(request_line(t, "t%d" % n))
    with open(stream_path, "w") as f:
        f.write("\n".join(str(t) for t in stream) + "\n")
    try:
        result = run_driver(driver, [
            "serve", "--scenario", scenario, "--requests", req_path,
            "--stream", stream_path, "--deck", str(deck),
            "--seconds", repr(seconds), "--out", out_path])
        warmup = int(result["warmup"])
        with open(out_path, "rb") as f:
            responses = f.read().split(b"\n")[:-1]
        if len(responses) != len(result["latency_ms"]):
            raise BenchError("driver wrote %d responses for %d requests" %
                             (len(responses), len(result["latency_ms"])))
        failed = 0
        docs = slo_ops = slo_met = 0
        for k, response in enumerate(responses):
            if normalized(response) != reference[stream[warmup + k]]:
                failed += 1
                if failed <= 5:
                    print("serve_inproc: response %d mismatch: %r" % (k, response[:300]),
                          file=sys.stderr)
            body = json.loads(response)
            docs += body.get("docs_processed1", 0) + body.get("docs_processed2", 0)
            if "requirement_met" in body:
                slo_ops += 1
                slo_met += body["requirement_met"] is True
        attempted = len(responses)
        decks = len(result["deck_s"])
        deck_s = statistics.median(result["deck_s"])
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "throughput_rps": deck / deck_s,
            "latency_p50_ms": percentile(result["latency_ms"], 50),
            "latency_p99_ms": percentile(result["latency_ms"], 99),
            "cpu_ms_per_op": result["cpu_s"] * 1e3 / attempted,
            "docs_per_s": docs / decks / deck_s,
            "ok_frac": 1.0 - failed / attempted,
            "slo_met_frac": slo_met / slo_ops,
            "rss_mb": result["rss_mb"],
        }
        env["latency_samples"] = attempted
        env["decks"] = decks
        env["loadgen.late_ms_max"] = 0.0  # closed loop: no send schedule

        layers = None
        if trace:
            probe = run_driver(driver, ["serve-probe", "--scenario", scenario,
                                        "--requests", req_path])
            layers = dict(probe["layers"])
            # The probe prices one plan-cache miss; charge it at the timed
            # phase's miss rate.
            hits, misses = result["plan_cache_hits"], result["plan_cache_misses"]
            layers["service.plan_cache.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
            for key in ("optimizer.inputs_ms", "optimizer.choose_ms",
                        "optimizer.plans_evaluated"):
                layers[key] *= misses / attempted
            layers["join.pipeline.pool_busy_frac"] = 0.0
            layers["join.pipeline.wall_over_cpu"] = result["elapsed_s"] / result["cpu_s"]
            for key in ("optimizer.adaptive.phases_per_job",
                        "optimizer.adaptive.switches_per_job", "estimation.mle_ms",
                        "estimation.mle_calls", "estimation.mle_share"):
                layers[key] = 0.0
            relay_attempted, relay_failed, relay = relay_run(
                server_bin, scenario, seed, seconds, groups, templates, reference,
                probe["inproc_ms"], log_path, env)
            layers.update(relay)
            attempted += relay_attempted
            failed += relay_failed
    finally:
        for path in (req_path, stream_path, out_path):
            if os.path.exists(path):
                os.remove(path)
    return attempted, failed, metrics, layers


def relay_run(server_bin, scenario, seed, seconds, groups, templates, reference,
              inproc_ms, log_path, env):
    """The supervised relay under load, for per-layer numbers: an untimed
    closed-loop warm-up with one request per worker in flight, an open loop
    at OPEN_LOOP_RPS for about `seconds` (whole decks), then each template
    once with nothing else in flight. Every response is checked against the
    reference. Returns (attempted, failed, layers)."""
    _, deck = serve_decks(seed, groups, 0)
    open_count = max(1, round(OPEN_LOOP_RPS * seconds / deck)) * deck
    warm_count = RELAY_WARMUP_DECKS * deck
    stream, _ = serve_decks(seed, groups, (warm_count + open_count) // deck)
    warm, open_idx = stream[:warm_count], stream[warm_count:]

    server = Server(server_bin, scenario, True, log_path)
    failures = []
    received = {}

    def lines_for(tag, indices):
        return [(("%s%d" % (tag, n)).encode(), request_line(templates[t], "%s%d" % (tag, n)))
                for n, t in enumerate(indices)]

    def check(tag, indices):
        def on_response(n, response, at):
            if normalized(response) != reference[indices[n]]:
                failures.append((tag, n, response[:300]))
            received[(tag, n)] = at
        return on_response

    try:
        workers = server.wait_idle()
        pids = [server.proc.pid] + [w["pid"] for w in workers]
        drive(server, lines_for("w", warm), None, WORKERS, check("w", warm))
        stats0 = server.stats()

        # Open loop: constant arrival rate, latency from each due time.
        open_lines = lines_for("o", open_idx)
        cpu0 = {pid: proc_cpu_seconds(pid) for pid in pids}
        gen0 = os.times()
        t0 = time.monotonic() + 0.05
        due = [t0 + n / OPEN_LOOP_RPS for n in range(open_count)]
        late_max = drive(server, open_lines, due, 0, check("o", open_idx))
        t1 = time.monotonic()
        gen1 = os.times()
        cpu1 = {pid: proc_cpu_seconds(pid) for pid in pids}
        stats1 = server.stats()
        open_lat = [(received[("o", n)] - due[n]) * 1e3 for n in range(open_count)]

        # One-in-flight relay latency per template (warm, otherwise idle).
        relay_ms = []
        for t in templates:
            start = time.monotonic()
            response = server.call(t)
            relay_ms.append((time.monotonic() - start) * 1e3)
            if normalized(response) != reference[len(relay_ms) - 1]:
                failures.append(("t", len(relay_ms) - 1, response[:300]))
    finally:
        server.close()

    counters0 = stats0["metrics"]["counters"]
    counters1 = stats1["metrics"]["counters"]
    replays = counters1.get("supervisor.replays", 0) - counters0.get("supervisor.replays", 0)
    shed = counters1.get("supervisor.shed", 0) - counters0.get("supervisor.shed", 0)
    if replays or shed:
        failures.append(("stats", 0, b"replays=%d shed=%d" % (replays, shed)))
    for tag, n, response in failures[:5]:
        print("relay: %s%d mismatch: %r" % (tag, n, response), file=sys.stderr)

    cpu_total = sum(cpu1[p] - cpu0[p] for p in pids)
    env["loadgen.late_ms_max"] = late_max * 1e3
    waits = [lat - relay_ms[t] for lat, t in zip(open_lat, open_idx)]
    layers = {
        "service.relay_overhead_ms": statistics.median(
            r - i for r, i in zip(relay_ms, inproc_ms)),
        "service.queue_wait_ms.p50": percentile(waits, 50),
        "service.queue_wait_ms.p99": percentile(waits, 99),
        "service.supervisor_cpu_frac": (cpu1[pids[0]] - cpu0[pids[0]]) / cpu_total,
        "service.shed": shed,
        "service.replays": replays,
        "loadgen.late_ms_max": late_max * 1e3,
        "loadgen.cpu_frac": ((gen1.user + gen1.system) -
                             (gen0.user + gen0.system)) / (t1 - (t0 - 0.05)),
    }
    attempted = len(warm) + open_count + len(templates)
    return attempted, len(failures), layers


# ---------------------------------------------------------------------------
# batch_adaptive and batch_scan: the in-process driver.
# ---------------------------------------------------------------------------

# (τ_g, τ_b) requirements: small τ_g with a loose τ_b is usually met, a
# tight τ_b usually is not, so the list prices both outcomes.
ADAPTIVE_SLOS = ((5, 6400), (10, 100000), (20, 6400), (10, 400),
                 (20, 1600), (40, 1600), (40, 100000), (80, 1600))
SCAN_THETAS = ((0.4, 0.4), (0.4, 0.8), (0.8, 0.4), (0.8, 0.8))
SCAN_SLOS = ((50, 1000000), (200, 1000000), (100, 500))


def batch(binaries, seed, seconds, trace, env, adaptive):
    _, driver = binaries
    rng = random.Random(seed)
    if adaptive:
        jobs = ["%d:%d" % slo for slo in ADAPTIVE_SLOS]
    else:
        plans = [(a,) + thetas for a in ALGORITHMS for thetas in SCAN_THETAS]
        jobs = ["%s:%g:%g:%d:%d" % (plan + SCAN_SLOS[i % len(SCAN_SLOS)])
                for i, plan in enumerate(plans)]
    rng.shuffle(jobs)
    args = ["batch", "--workload", "adaptive" if adaptive else "scan",
            "--seconds", repr(seconds),
            "--trace", "1" if trace else "0", "--jobs", ",".join(jobs)]
    if adaptive:
        args += ["--scenario", paper_scenario(driver)]
    result = run_driver(driver, args)
    walls_ms = [w * 1e3 for w in result["walls_s"]]
    ops = len(walls_ms)
    cycles = len(result["cycle_s"])
    per_cycle = len(jobs)
    cycle_s = statistics.median(result["cycle_s"])
    # Every cycle runs the same jobs, so rates are per-cycle medians and
    # latencies are taken over each job's median wall time. A cycle holds
    # 8-12 distinct jobs whose walls form clusters: a raw p50 can flip
    # between two clusters, and a raw p99 over a few hundred samples would
    # be set by a single stall rather than by the slowest job.
    job_medians = [statistics.median(walls_ms[i::per_cycle]) for i in range(per_cycle)]
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "throughput_rps": per_cycle / cycle_s,
        "latency_p50_ms": statistics.median(job_medians),
        "latency_p99_ms": percentile(job_medians, 99),
        "cpu_ms_per_op": statistics.median(result["cycle_cpu_s"]) * 1e3 / per_cycle,
        "docs_per_s": result["docs"] / cycles / cycle_s,
        "ok_frac": 1.0 - result["failed"] / ops,
        "slo_met_frac": result["slo_met"] / ops,  # every job has a requirement
        "rss_mb": result["rss_mb"],
    }
    env["jobs"] = jobs
    env["cycles"] = cycles
    env["loadgen.late_ms_max"] = 0.0  # closed loop: no send schedule
    layers = None
    if trace:
        layers = dict(result["layers"])
        for key in ("service.parse_us", "service.frame_us",
                    "service.relay_overhead_ms", "service.queue_wait_ms.p50",
                    "service.queue_wait_ms.p99", "service.supervisor_cpu_frac",
                    "service.shed", "service.replays",
                    "service.plan_cache.hit_ratio", "service.plan_cache.lookup_us",
                    "loadgen.late_ms_max", "loadgen.cpu_frac"):
            layers[key] = 0.0
    return ops, int(result["failed"]), metrics, layers


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------

def run_workload(binaries, workload, seed, seconds, trace):
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": NPROC,
        "build_type": BUILD_TYPE,
        "git_commit": source_commit(),
    }
    steal0, total0 = cpu_times_total()
    if workload == "serve_inproc":
        attempted, failed, metrics, layers = serve_inproc(binaries, seed, seconds,
                                                         trace, env)
    else:
        attempted, failed, metrics, layers = batch(
            binaries, seed, seconds, trace, env, workload == "batch_adaptive")
    steal1, total1 = cpu_times_total()
    env["host.steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    env["loadavg"] = list(os.getloadavg())
    if layers is not None:
        if layers.get("trace.dropped_spans"):
            raise BenchError("the tracer dropped spans; per-layer sums are short")
        layers["host.steal_frac"] = env["host.steal_frac"]
        missing = sorted(set(PER_LAYER) - set(layers))
        if missing:
            raise BenchError("per-layer metrics missing: %s" % ", ".join(missing))
        shown = {k: {"value": float(layers[k]), "unit": u} for k, u in PER_LAYER.items()}
    else:
        shown = {k: {"value": float(metrics[k]), "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": shown}
    os.makedirs(os.path.join(WORK_DIR, "runs"), exist_ok=True)
    record = os.path.join(WORK_DIR, "runs", "%s-seed%d-trace%d-%d.json" %
                          (workload, seed, int(trace), int(time.time())))
    with open(record, "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1, sort_keys=True)
    print("env %s" % json.dumps(env, sort_keys=True))
    return result


def main(argv):
    try:
        workload, seed, seconds, trace = parse_args(argv)
    except ValueError as err:
        print("%s\n%s" % (err, USAGE), file=sys.stderr)
        return 2
    try:
        os.makedirs(WORK_DIR, exist_ok=True)
        binaries = build()
        if workload != "all":
            result = run_workload(binaries, workload, seed, seconds, trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                one = run_workload(binaries, name, seed, seconds, trace)
                for key in ("attempted", "failed"):
                    result[key] += one[key]
                result["correct"] = result["correct"] and one["correct"]
                for metric, value in one["metrics"].items():
                    print("%-15s %-36s %14.6g %s" % (name, metric, value["value"],
                                                    value["unit"]))
                    result["metrics"]["%s/%s" % (name, metric)] = value
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
