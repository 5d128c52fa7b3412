#!/usr/bin/env python3
"""Serving benchmark for kosr: socket-to-socket query, update, recovery and
set-up metrics, plus a traced per-layer run.

    python3 servebench/run.py --workload road_cold --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --selftest

Run from the repository root. Each run configures and builds this
directory's CMake package (the library, `kosr_cli` and `servebench`) into
.bench_build/servebench, a no-op once built. It writes the workload's graph
and categories (fixed per workload, see workloads.json), makes the query pool
and operation plans from --seed, starts the production server (`kosr_cli
serve --listen 127.0.0.1:0`) as a child process, drives it open-loop over
TCP with `servebench load`, checks the answers against an in-process oracle,
and prints one JSON object as its last line. --trace 1 reports the
per-layer metrics instead: after the generator self-test it runs the
nominal window once more (for the loop-side figures) and then replays the
same operation stream in-process with `servebench trace`. README.md
explains the metrics.
"""
import argparse
import bisect
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "servebench"
WORK_ROOT = ROOT / ".bench_work"
CLI = BUILD_DIR / "kosr_tools" / "kosr_cli"
TOOL = BUILD_DIR / "servebench"
READY_TIMEOUT_S = 120

# Load-generator connections: nproc of the recording host.
CONNECTIONS = 4
# Server starts from scratch for setup_s, and SIGKILL restarts over the
# journal for recovery_s; each metric is the median.
SETUPS = 7
RECOVERIES = 7
# On a journaled workload the recoveries replay a fixed tail: every
# congested arc is restored, then a CHECKPOINT, then RECOVERY_TAIL SET_EDGE
# records congesting the first traffic arcs, all at TAIL_RATE a second.
# (Replaying what the last window left after its CHECKPOINT, 51-58 records
# of whichever arcs were due, took 0.30-0.42 s. Recovery applies the
# replayed records as one batch, so a congestion and its restore cancel.)
RECOVERY_TAIL = 50
TAIL_RATE = 50
# The nominal window is measured in the workload's `windows` windows, one
# after another on the same server, and every reported latency is the
# median of the windows' whole-window percentiles: a host stall (the
# recording host, a shared virtual machine, now and then stops a vCPU for
# tens of milliseconds) that sets the tail of a few windows does not move
# it, while a stall the program makes (a CHECKPOINT, a repair) lands in
# every window. The windows follow SETTLE_S of the mix, untimed: the host
# withholds CPU time for some seconds after the set-ups' parallel builds.
SETTLE_S = 3.0
# qps_at_slo ladder: geometric steps of LADDER_STEP above the nominal rate
# (at most LADDER_MAX_STEPS), then the workload's `ladder_bisections`.
LADDER_STEP = 1.5
LADDER_MAX_STEPS = 6
# Workloads without writes in their mix get their update figures from
# ADD_CAT / REMOVE_CAT pairs at this rate, in one window. (Split into
# windows, the later ones ran slower than the first on every run, so their
# median moved with the number of windows re-measured before them.)
PROBE_UPDATES = 2400
PROBE_RATE = 200
# Generator self-test: a stub answering after STUB_DELAY_MS, at each
# connection count and rate, for STUB_SECONDS each.
STUB_DELAY_MS = 2.0
STUB_CONNECTIONS = (1, 4)
STUB_RATES = (100, 4000)
STUB_SECONDS = 0.5

# Latencies are charged from the due send, so a generator that sends late
# adds its lateness to every figure. A cell is invalid when the generator was
# more than MAX_GEN_CPU_FRAC busy or sent too late:
# - in a reported cell (the nominal window, the update probe), when at any
#   reported percentile of a kind (query p50, p99; update p50, p90) the send
#   lateness of that kind's requests exceeds LATE_SHARE of the reported
#   latency. Such a cell is measured again on the same server, up to
#   CELL_ATTEMPTS times in all, until one is valid; the run fails if none
#   is;
# - in a ladder rung, which only decides pass or miss against the latency
#   limit, when its lateness p99 exceeds RUNG_LATE_FRAC of that limit.
LATE_SHARE = 0.2
MAX_GEN_CPU_FRAC = 0.9
CELL_ATTEMPTS = 3
RUNG_LATE_FRAC = 0.1
# A reported window during which the hypervisor withheld (as steal time)
# more than MAX_STEAL_FRAC of the CPU time this machine asked for measures
# the host more than the server: its tail on the recording host rose by a
# third or more. It is measured again while attempts remain and the run's
# retry time lasts (STEAL_RETRY_SHARE of its planned reported windows, so a
# noisy host cannot stretch a run without end); of a window's valid
# attempts the least stolen-from is reported.
MAX_STEAL_FRAC = 0.02
STEAL_RETRY_SHARE = 0.3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def tool(*args):
    out = subprocess.run([str(TOOL), *map(str, args)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


# --- Workload inputs -------------------------------------------------------

class Inputs:
    """The generated files plus what plan generation needs to know of them."""

    def __init__(self, spec, work):
        g = spec["graph"]
        self.graph = work / "graph.gr"
        self.cats = work / "cats.txt"
        args = ["inputs", "--kind", g["kind"], "--seed", g["seed"], "--dir", work,
                "--category-size", g["category_size"]]
        if g["kind"] == "grid":
            args += ["--side", g["side"]]
        else:
            args += ["--vertices", g["vertices"], "--chords", g["chords"]]
        meta = tool(*args)
        self.vertices = int(meta["vertices"])
        self.num_categories = int(meta["categories"])
        self.rows = self.cols = g.get("side", 0)
        self.arcs = []
        with open(self.graph) as f:
            for line in f:
                if line.startswith("a "):
                    _, u, v, w = line.split()
                    self.arcs.append((int(u) - 1, int(v) - 1, int(w)))
        self.members = [set() for _ in range(self.num_categories)]
        with open(self.cats) as f:
            for line in f:
                v, c = map(int, line.split())
                self.members[c].add(v)

    def engine_flags(self, threads):
        flags = ["--graph", self.graph, "--categories", self.cats,
                 "--num-categories", self.num_categories, "--threads", threads]
        if self.rows:
            flags += ["--rows", self.rows, "--cols", self.cols]
        return flags

    def serve_flags(self):
        flags = ["--graph", self.graph, "--categories", self.cats,
                 "--num-categories", self.num_categories]
        if self.rows:
            flags += ["--order", "dissection", "--rows", self.rows,
                      "--cols", self.cols]
        return flags


def make_pool(spec, inputs, rng):
    q = spec["queries"]
    nonempty = [c for c in range(inputs.num_categories) if inputs.members[c]]
    pool = []
    for _ in range(q["pool"]):
        length = rng.randint(*q["seq_len"])
        seq = ",".join(str(rng.choice(nonempty)) for _ in range(length))
        s, t = rng.randrange(inputs.vertices), rng.randrange(inputs.vertices)
        pool.append(f"QUERY {s} {t} {seq} {rng.randint(*q['k'])}")
    return pool


class OpSource:
    """Draws operations from a workload's mix table. The kinds follow the
    table exactly, interleaved by smooth weighted round robin, so every run
    of a workload carries the same number of each kind per operation sent.
    SET_EDGE is traffic on the graph's fixed set of congestion arcs,
    in a fixed order: it congests the next arc (weight times a factor) until
    `congested_max` arcs are congested, then restores the longest-congested
    one, and so on. CATEGORY adds a vertex to a category it lacks or removes
    one it gained earlier."""

    def __init__(self, spec, inputs, pool_size, rng):
        self.spec, self.inputs, self.rng = spec, inputs, rng
        self.mix = spec["mix"]
        self.credit = [0.0] * len(self.mix)
        self.pool_size = pool_size
        q = spec["queries"]
        self.cycle = 0
        if q["pick"] == "zipf":
            weights = [1.0 / (i + 1) ** q["zipf_s"] for i in range(pool_size)]
            total = sum(weights)
            self.cdf, acc = [], 0.0
            for w in weights:
                acc += w / total
                self.cdf.append(acc)
        else:
            self.cdf = None
        # The arcs traffic congests: a fixed set and order per graph, so
        # every seed replays the same repair work at its own times.
        self.arcs = random.Random(spec["graph"]["seed"]).sample(
            inputs.arcs, spec["congestion_arcs"]) if "congestion_arcs" in spec \
            else []
        self.next_arc = 0
        self.congested = []  # (u, v, original weight), oldest first
        self.added = []  # (v, c) gained through ADD_CAT

    def query(self):
        if self.cdf is None:
            idx = self.cycle % self.pool_size
            self.cycle += 1
            return idx
        return min(bisect.bisect_left(self.cdf, self.rng.random()),
                   self.pool_size - 1)

    def next(self):
        for i, entry in enumerate(self.mix):
            self.credit[i] += entry["freq"]
        pick = max(range(len(self.mix)), key=lambda i: self.credit[i])
        self.credit[pick] -= 1.0
        op = self.mix[pick]["op"]
        if op == "QUERY":
            return "Q", self.query(), None
        if op == "SET_EDGE":
            if len(self.congested) >= self.spec["congested_max"]:
                u, v, w = self.congested.pop(0)
            else:
                u, v, w0 = self.arcs[self.next_arc % len(self.arcs)]
                self.next_arc += 1
                self.congested.append((u, v, w0))
                w = w0 * self.spec["congestion_factor"]
            return "U", -1, f"SET_EDGE {u} {v} {w}"
        return "U", -1, self.category_line()

    def category_line(self):
        if self.added and self.rng.random() < 0.5:
            v, c = self.added.pop(0)
            return f"REMOVE_CAT {v} {c}"
        v, c = self.fresh_pair()
        self.added.append((v, c))
        return f"ADD_CAT {v} {c}"

    def fresh_pair(self):
        """A (vertex, category) pair the vertex does not carry yet."""
        while True:
            v = self.rng.randrange(self.inputs.vertices)
            c = self.rng.randrange(self.inputs.num_categories)
            if v not in self.inputs.members[c] and (v, c) not in self.added:
                return v, c


# Connection layout: queries round-robin over the query connections, every
# write-path operation on one update connection (so the server applies them
# in the order they were sent), PING on its own connection.
def layout(conns):
    return {"query": list(range(conns - 2)), "update": conns - 2,
            "ping": conns - 1}


def write_plan(path, conns, ops):
    ops.sort(key=lambda op: op[0])
    with open(path, "w") as f:
        f.write(f"# conns={conns}\n")
        for due, conn, kind, idx, line in ops:
            f.write(f"{int(due * 1e6)} {conn} {kind} {idx} {line}\n")
    return path


def mixed_plan(path, spec, source, pool, lay, conns, rate, seconds, rng,
               ping_hz=20, checkpoint_at=None):
    """Poisson arrivals at `rate` ops/s for `seconds`, drawn from the mix.
    A CHECKPOINT goes in after the operation at `checkpoint_at` of the
    expected count, so it splits every run's update stream the same way."""
    ops, t, qi = [], 0.0, 0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        kind, idx, line = source.next()
        if kind == "Q":
            conn = lay["query"][qi % len(lay["query"])]
            qi += 1
            ops.append((t, conn, "Q", idx, pool[idx]))
        else:
            ops.append((t, lay["update"], "U", -1, line))
    if checkpoint_at is not None:
        after = ops[min(int(rate * seconds * checkpoint_at), len(ops)) - 1]
        ops.append((after[0], lay["update"], "C", -1, "CHECKPOINT"))
    for i in range(int(seconds * ping_hz)):
        ops.append(((i + 0.5) / ping_hz, lay["ping"], "P", -1, "PING"))
    return write_plan(path, conns, ops)


# --- Server process -----------------------------------------------------------

class Server:
    def __init__(self, inputs, spec, journal, log_path):
        flags = [str(f).replace("{journal}", str(journal))
                 for f in spec["server_flags"]]
        cmd = [str(CLI), "serve", *map(str, inputs.serve_flags()), *flags,
               "--listen", "127.0.0.1:0"]
        self.log = open(log_path, "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        self.ready_line = ""
        for line in self.proc.stdout:
            if line.startswith("ready "):
                self.ready_line = line.strip()
                break
        self.setup_s = time.perf_counter() - start
        watchdog.cancel()
        if not self.ready_line:
            self.kill()
            raise RuntimeError("server never became ready")
        self.port = int(self.ready_line.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def cpu_ticks():
    """(steal, demanded) jiffies of all CPUs from /proc/stat: CPU time the
    hypervisor gave to others while this machine wanted it, and all CPU time
    this machine wanted (busy time plus steal)."""
    user, nice, system, _, _, irq, softirq, steal = (
        int(x) for x in Path("/proc/stat").read_text().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def percentile(sorted_ms, pct):
    """Nearest-rank percentile of an ascending list (failures are inf)."""
    if not sorted_ms:
        return math.nan
    rank = min(max(math.ceil(pct / 100 * len(sorted_ms)), 1), len(sorted_ms))
    return sorted_ms[rank - 1]


def beyond(sorted_ms, pct):
    """Samples strictly beyond the nearest-rank percentile."""
    return len(sorted_ms) - bisect.bisect_right(sorted_ms,
                                                percentile(sorted_ms, pct))


class Result:
    """One generator run: its summary plus every operation's latency from
    its due send time (inf for a refused, failed, missing or wrong
    response)."""

    def __init__(self, summary_path, latencies_path):
        self.summary = json.loads(Path(summary_path).read_text())
        self.ops = {}  # kind -> [(due_s, ms)] in due order
        self.late = {}  # kind -> [ms each send left after its due time]
        with open(latencies_path) as f:
            for line in f:
                due_us, kind, ms, late = line.split()
                ms = float(ms)
                self.ops.setdefault(kind, []).append(
                    (int(due_us) / 1e6, math.inf if ms < 0 else ms))
                self.late.setdefault(kind, []).append(float(late))

    def latencies(self, kind):
        return sorted(ms for _, ms in self.ops.get(kind, []))

    def attempted(self):
        return sum(len(v) for v in self.ops.values())

    def failed(self):
        return sum(1 for v in self.ops.values() for _, ms in v
                   if ms == math.inf) + self.summary["mismatches"]

    def percentile(self, kind, pct):
        """Nearest-rank percentile over the whole window."""
        return percentile(self.latencies(kind), pct)

    def achieved_rate(self):
        """Operations answered per second (pings excluded), from the first
        due time to the last answer."""
        ops = sorted(op for kind, v in self.ops.items() if kind != "P"
                     for op in v)
        done = [due + ms / 1e3 for due, ms in ops if ms != math.inf]
        if not done:
            return 0.0
        return len(done) / max(max(done) - ops[0][0], 1e-9)


class Windows:
    """The windows of one reported cell: each figure is the median over the
    windows of that window's whole-window figure."""

    def __init__(self, results):
        self.results = results

    def percentile(self, kind, pct):
        return statistics.median(r.percentile(kind, pct) for r in self.results)

    def failed(self):
        return sum(r.failed() for r in self.results)


def load(port, plan, out, pool_size=0, consistent=False, observed=None,
         acked=None, metrics=None):
    latencies = Path(out).with_suffix(".lat")
    args = ["load", "--port", port, "--plan", plan, "--out", out,
            "--latencies", latencies,
            "--pool-size", pool_size, "--consistent", int(consistent)]
    if observed:
        args += ["--observed", observed]
    if acked:
        args += ["--acked", acked]
    if metrics:
        args += ["--metrics-out", metrics]
    tool(*args)
    return Result(out, latencies)


def merge_observed(paths, out):
    """Union of per-phase observed answers; a pool entry answered differently
    in two phases counts as a mismatch."""
    seen, conflicts = {}, 0
    for path in paths:
        with open(path) as f:
            for line in f:
                idx, costs = line.split()
                if seen.setdefault(idx, costs) != costs:
                    conflicts += 1
    with open(out, "w") as f:
        for idx, costs in seen.items():
            f.write(f"{idx} {costs}\n")
    return conflicts


# --- The run --------------------------------------------------------------------

class GeneratorBehind(Exception):
    """A ladder rung whose generator could not hold the offered rate."""


class Run:
    """One benchmark run: the workload's inputs, plans, server and tallies."""

    def __init__(self, args, spec):
        self.args, self.spec = args, spec
        self.work = WORK_ROOT / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = Inputs(spec, self.work)
        # The query pool is fixed per workload, like its graph; --seed
        # orders it and makes the schedule. The tail of a few thousand random
        # KOSR queries differs too much between pools to compare runs by it.
        self.pool = make_pool(spec, self.inputs,
                              random.Random(f"{args.workload}:pool"))
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.rng.shuffle(self.pool)
        (self.work / "pool.txt").write_text("\n".join(self.pool) + "\n")
        self.conns = CONNECTIONS
        self.lay = layout(self.conns)
        self.source = OpSource(spec, self.inputs, len(self.pool), self.rng)
        self.writes = any(e["op"] != "QUERY" for e in spec["mix"])
        self.limit_ms = spec["latency_limit_ms"]
        self.journal = self.work / "journal"
        self.attempted, self.failed, self.valid = 0, 0, True
        self.retry_s = 0.0
        self.observed, self.acked, self.oracle_acked = [], [], []
        self.server = None

    def start_server(self, fresh_journal):
        if self.server:
            self.server.kill()
        if fresh_journal:
            shutil.rmtree(self.journal, ignore_errors=True)
        self.server = Server(self.inputs, self.spec, self.journal,
                             self.work / "server.log")
        return self.server.setup_s

    def warm(self):
        """Every pool entry once, untimed, for workloads whose pool fits the
        cache."""
        if "warm_rate" not in self.spec:
            return
        rate = self.spec["warm_rate"]
        ops = [((i + 1) / rate, self.lay["query"][i % len(self.lay["query"])],
                "Q", i, q) for i, q in enumerate(self.pool)]
        self.phase("warm", write_plan(self.work / "warm.plan", self.conns,
                                      ops))

    def phase(self, name, plan, must_pass=True):
        """Replays `plan` against the server. Failures count against the run
        unless the phase is a ladder rung allowed to miss."""
        steal0, total0 = cpu_ticks()
        res = load(self.server.port, plan, self.work / f"{name}.json",
                   len(self.pool), not self.writes,
                   observed=self.work / f"{name}.obs",
                   acked=self.work / f"{name}.acked",
                   metrics=self.work / f"{name}.metrics")
        self.attempted += res.attempted()
        if must_pass:
            self.failed += res.failed()
        self.observed.append(self.work / f"{name}.obs")
        self.acked.append(self.work / f"{name}.acked")
        res.name = name
        steal1, total1 = cpu_ticks()
        res.steal_frac = (steal1 - steal0) / max(total1 - total0, 1)
        return res

    def health(self, name, res, offered_rate, rung=False):
        """One line of cell health: offered vs achieved rate, samples beyond
        each reported percentile, generator lateness and CPU share. A cell
        whose generator could not hold its schedule is marked invalid."""
        g = res.summary
        valid = g["cpu_frac"] <= MAX_GEN_CPU_FRAC
        if rung:
            valid &= g["late_p99_ms"] <= RUNG_LATE_FRAC * self.limit_ms
        parts = []
        for kind, label, pcts in (("Q", "queries", (50, 99)),
                                  ("U", "updates", (50, 90))):
            ms = res.latencies(kind)
            if not ms:
                continue
            late = sorted(res.late[kind])
            parts.append(f"{label} {len(ms)}")
            for p in pcts:
                figure, lag = percentile(ms, p), percentile(late, p)
                if not rung:
                    valid &= lag <= LATE_SHARE * figure
                parts.append(f"p{p} {figure:.4f} ms (beyond {beyond(ms, p)}, "
                             f"late {lag:.4f})")
        print(f"cell {name}: offered {offered_rate:.1f}/s achieved "
              f"{res.achieved_rate():.1f}/s {' '.join(parts)} "
              f"failed {res.failed()} gen.late_p99_ms {g['late_p99_ms']:.4f} "
              f"gen.cpu_frac {g['cpu_frac']:.3f} "
              f"host.steal_frac {res.steal_frac:.4f} "
              f"{'VALID' if valid else 'INVALID'}")
        return valid

    def reported(self, name, make_plan, offered_rate, windows, seconds):
        """A cell whose figures are reported, measured in `windows` windows of
        fresh `seconds`-long plans. An invalid window, or one the host stole
        from (MAX_STEAL_FRAC), is measured again, up to CELL_ATTEMPTS times;
        every attempt's failures count, and so do its updates, which the
        server acknowledged. The run is invalid when no attempt at a window
        is valid."""
        windows = 1 if self.args.trace else windows
        self.retry_s += STEAL_RETRY_SHARE * windows * seconds
        results = []
        for w in range(windows):
            valid = []
            for attempt in range(CELL_ATTEMPTS):
                plan = make_plan(f"{name}{w}_{attempt}")
                res = self.phase(f"{name}{w}_{attempt}", plan)
                res.plan = plan
                if self.health(res.name, res, offered_rate):
                    valid.append(res)
                    if res.steal_frac <= MAX_STEAL_FRAC:
                        break
                    if self.retry_s < seconds:
                        break
                    self.retry_s -= seconds
            if not valid:
                self.valid = False
                valid = [res]
            results.append(min(valid, key=lambda r: r.steal_frac))
            if len(valid) > 1:
                print(f"window {name}{w}: reported {results[-1].name}")
        return Windows(results)

    def mixed(self, name, rate, seconds, checkpoint_at=None):
        return mixed_plan(self.work / f"{name}.plan", self.spec, self.source,
                          self.pool, self.lay, self.conns, rate, seconds,
                          self.rng, checkpoint_at=checkpoint_at)

    def category_probe(self, name):
        """ADD_CAT / REMOVE_CAT pairs on the update connection, each pair
        leaving the categories as they were."""
        ops = []
        for i in range(0, PROBE_UPDATES, 2):
            v, c = self.source.fresh_pair()
            ops += [((i + 1) / PROBE_RATE, self.lay["update"], "U", -1,
                     f"ADD_CAT {v} {c}"),
                    ((i + 2) / PROBE_RATE, self.lay["update"], "U", -1,
                     f"REMOVE_CAT {v} {c}")]
        return write_plan(self.work / f"{name}.plan", self.conns, ops)

    def recovery_tail(self):
        """The fixed journal tail every recovery replays (RECOVERY_TAIL)."""
        factor = self.spec["congestion_factor"]
        lines = [f"SET_EDGE {u} {v} {w}" for u, v, w in self.source.congested]
        self.source.congested.clear()
        lines.append("CHECKPOINT")
        for u, v, w in self.source.arcs[:RECOVERY_TAIL]:
            lines.append(f"SET_EDGE {u} {v} {w * factor}")
            self.source.congested.append((u, v, w))
        self.source.next_arc = RECOVERY_TAIL
        ops = [((i + 1) / TAIL_RATE, self.lay["update"],
                "C" if line == "CHECKPOINT" else "U", -1, line)
               for i, line in enumerate(lines)]
        self.phase("recovery_tail", write_plan(
            self.work / "recovery_tail.plan", self.conns, ops))

    def probes(self):
        """The fixed probe set answered after recovery; the oracle replays
        exactly the updates acknowledged before it."""
        self.oracle_acked = list(self.acked)
        ops = [((i + 1) * 0.01, self.lay["query"][0], "Q", i, self.pool[i])
               for i in range(self.spec["probes"])]
        self.phase("probes", write_plan(self.work / "probes.plan", self.conns,
                                        ops))

    def rung(self, rate):
        """One ladder rung: True when no request failed, the query p99 (as
        reported for the nominal window) meets the limit and the backlog did
        not grow. A rung that misses, or whose generator fell behind its
        schedule, is run once more, so one burst of host noise does not end
        the ladder; two generator failures end it (GeneratorBehind), since
        that cell would measure the generator."""
        generator_ok = False
        for attempt in range(2):
            name = f"rung_{rate:.0f}_{attempt}"
            res = self.phase(name, self.mixed(
                name, rate, self.args.seconds * self.spec["rung_fraction"]),
                must_pass=False)
            if not self.health(name, res, rate, rung=True):
                continue
            generator_ok = True
            backlog_ok = res.summary["backlog_at_last_send"] <= \
                rate * self.limit_ms / 1e3 + self.conns
            if (res.failed() == 0 and backlog_ok
                    and res.percentile("Q", 99) <= self.limit_ms):
                return True
        if not generator_ok:
            raise GeneratorBehind(f"generator could not hold {rate:.0f}/s")
        return False

    def ladder(self):
        """Highest rate of the workload's mix meeting the limit: geometric
        steps of LADDER_STEP from the nominal rate until a rung misses, then
        `ladder_bisections` geometric bisections between the last rung that
        passed and the first that missed."""
        low, high, note = float(self.spec["rate"]), None, ""
        try:
            for _ in range(LADDER_MAX_STEPS):
                rate = low * LADDER_STEP
                if not self.rung(rate):
                    high = rate
                    break
                low = rate
            else:
                return low, "every coarse rung passed"
            for _ in range(self.spec["ladder_bisections"]):
                rate = math.sqrt(low * high)
                if self.rung(rate):
                    low = rate
                else:
                    high = rate
            note = f"first miss at {high:.0f}/s"
        except GeneratorBehind as stop:
            note = str(stop)
        return low, note

    def check_answers(self):
        """Oracle, outside every timed window."""
        engine = self.inputs.engine_flags(threads=0)
        if self.writes:
            if not (self.work / "probes.obs").exists():
                return {"checked": 0, "mismatches": 0, "first_mismatch": ""}
            with open(self.work / "acked.txt", "w") as out:
                for path in self.oracle_acked:
                    if path.exists():
                        out.write(path.read_text())
            return tool("check", *engine, "--pool", self.work / "pool.txt",
                        "--observed", self.work / "probes.obs",
                        "--acked", self.work / "acked.txt")
        conflicts = merge_observed([p for p in self.observed if p.exists()],
                                   self.work / "observed.txt")
        check = tool("check", *engine, "--pool", self.work / "pool.txt",
                     "--observed", self.work / "observed.txt")
        check["mismatches"] += conflicts
        return check


def run(args):
    spec = json.loads((BENCH_DIR / "workloads.json").read_text())[
        "workloads"].get(args.workload)
    if spec is None:
        log(f"unknown workload {args.workload}")
        return 2
    build()
    generator_ok = selftest() if args.trace else True
    r = Run(args, spec)
    metrics, layer = {}, {}
    try:
        # Set-up: several starts from scratch, the last one serves.
        setups = [r.start_server(fresh_journal=True)
                  for _ in range(1 if args.trace else SETUPS)]
        r.warm()
        window_s = args.seconds * spec.get("duration_factor", 1.0)
        r.phase("settle", r.mixed("settle", spec["rate"], SETTLE_S))
        nominal = r.reported("nominal", lambda name: r.mixed(
            name, spec["rate"], window_s,
            checkpoint_at=spec.get("checkpoint_at")), spec["rate"],
            spec["windows"], window_s)
        if args.trace:
            window = nominal.results[0]
            nominal_plan = window.plan
            probe_plan = None if r.writes else r.category_probe("category_probe")
            server_metrics = json.loads(
                (r.work / f"{window.name}.metrics").read_text().split(" ", 2)[2])
            layer["service.queue_wait_p99_ms"] = \
                server_metrics["stages"]["queue_wait"]["p99_ms"]
            layer["net.ping_p99_ms"] = window.percentile("P", 99)
            layer["gen.late_p99_ms"] = window.summary["late_p99_ms"]
            layer["gen.cpu_frac"] = window.summary["cpu_frac"]
        else:
            updates = nominal if r.writes else r.reported(
                "category_probe", r.category_probe, PROBE_RATE, 1,
                PROBE_UPDATES / PROBE_RATE)
            metrics["update_p50_ms"] = (updates.percentile("U", 50), "ms")
            metrics["update_p90_ms"] = (updates.percentile("U", 90), "ms")
            metrics["rss_mb"] = (r.server.peak_rss_mb(), "MB")
            # Recovery: SIGKILL, restart over the same journal directory (a
            # plain restart without one).
            if r.writes:
                r.recovery_tail()
            recoveries = [r.start_server(fresh_journal=False)
                          for _ in range(RECOVERIES)]
            print(f"recovery: {r.server.ready_line}")
            metrics["recovery_s"] = (statistics.median(recoveries), "s")
            if "probes" in spec:
                r.probes()
            # The ladder runs last, on the restarted server, so it cannot
            # change what the nominal window, the recovery or the probes saw.
            r.warm()
            if nominal.failed() == 0 and \
                    nominal.percentile("Q", 99) <= r.limit_ms:
                best, note = r.ladder()
            else:
                best, note = 0.0, "the nominal rate missed the limit"
            print(f"ladder: qps_at_slo {best:.1f} ({note}; limit "
                  f"{r.limit_ms} ms)")
            metrics["qps_at_slo"] = (best, "req/s")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["query_p50_ms"] = (nominal.percentile("Q", 50), "ms")
            metrics["query_p99_ms"] = (nominal.percentile("Q", 99), "ms")
    finally:
        if r.server:
            r.server.kill()

    check = r.check_answers()
    print(f"oracle: {check['checked']:.0f} answers checked, "
          f"{check['mismatches']:.0f} mismatches {check['first_mismatch']}")
    r.failed += int(check["mismatches"])
    attempted = max(r.attempted, 1)
    print(f"failed_frac {r.failed / attempted:.6f} ratio "
          f"({r.failed} of {attempted})")

    if args.trace:
        plans = [r.work / "warm.plan"] if "warm_rate" in spec else []
        plans += [p for p in (nominal_plan, probe_plan) if p]
        tool("trace", *r.inputs.engine_flags(threads=0),
             "--plans", ",".join(map(str, plans)),
             "--journal-dir", r.work / "trace_journal",
             "--out", r.work / "trace.json", "--spans-out", r.work / "spans.csv")
        trace = json.loads((r.work / "trace.json").read_text())
        layer.update(trace["metrics"])
        query_p50 = nominal.percentile("Q", 50)
        layer["trace.unexplained_ms"] = query_p50 - trace["traced_request_p50_ms"]
        selfs = " ".join(f"{k}={v:.4f}" for k, v in
                         trace["query_self_ms_per_request"].items())
        print(f"trace self ms per query request: {selfs}")
        print(f"trace.unexplained_ms {layer['trace.unexplained_ms']:.4f} ms "
              f"(end-to-end p50 {query_p50:.4f} ms, traced layers p50 "
              f"{trace['traced_request_p50_ms']:.4f} ms)")
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        out = {name: {"value": layer[name], "unit": unit}
               for name, unit in units.items()}
    else:
        # query_p99_ms and update_p90_ms are printed but not in
        # BENCHMARK.json: host stalls set them (README.md, "Gated metrics").
        gated = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        for name, (value, unit) in metrics.items():
            if name not in gated:
                print(f"metric {name} {value} {unit} (not gated)")
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items() if name in gated}
    for name, m in out.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    correct = generator_ok and r.valid and r.failed == 0 and all(
        math.isfinite(m["value"]) for m in out.values())
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(r.failed), "metrics": out}))
    return 0 if correct else 1


def selftest():
    """The generator against a stub server that answers every frame after a
    fixed delay: the latency it reports must track the injected delay at
    one and several connections, at a low and a high rate. A cell that
    misses is run again, up to CELL_ATTEMPTS times, since a vCPU stall of
    the host can push one short cell out; a timing bug misses every time."""
    work = WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = subprocess.Popen([str(TOOL), "stub", "--delay-ms",
                             str(STUB_DELAY_MS)], stdout=subprocess.PIPE,
                            text=True)
    passed = True
    try:
        port = int(stub.stdout.readline().strip().rsplit(":", 1)[1])
        for conns in STUB_CONNECTIONS:
            for rate in STUB_RATES:
                n = int(rate * STUB_SECONDS)
                ops = [((i + 1) / rate, i % conns, "P", -1, "PING")
                       for i in range(n)]
                plan = write_plan(work / f"stub_{conns}_{rate}.plan", conns,
                                  ops)
                for _ in range(CELL_ATTEMPTS):
                    res = load(port, plan, work / f"stub_{conns}_{rate}.json")
                    p50 = res.percentile("P", 50)
                    p90 = res.percentile("P", 90)
                    d = STUB_DELAY_MS
                    good = (d <= p50 <= d + 1.0 and p90 <= d + 2.0
                            and res.failed() == 0)
                    print(f"stub delay {d} ms, {conns} conn, {rate}/s: p50 "
                          f"{p50:.4f} ms p90 {p90:.4f} ms late_p99 "
                          f"{res.summary['late_p99_ms']:.4f} ms "
                          f"{'ok' if good else 'FAIL'}")
                    if good:
                        break
                passed &= good
    finally:
        stub.kill()
        stub.wait()
        stub.stdout.close()
    return passed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # bench/bench_common.h's workload makers would rescale the graphs.
    os.environ.pop("KOSR_BENCH_SCALE", None)
    if args.selftest:
        build()
        return 0 if selftest() else 1
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
