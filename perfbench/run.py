#!/usr/bin/env python3
"""The ampsched benchmark: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig7-quick --seed 1 --seconds 15 --trace 0

Workloads (perfbench/README.md says why each was chosen):

  fig7-quick     `ampsched --quick --seed S --json <tmp> fig7` in fresh processes
  scaling-quick  `ampsched --quick --insts 100000 --seed S --json <tmp> scaling`, likewise
  serve-mixed    `ampsched serve --workers 2` driven by two closed-loop clients

With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
it makes the traced run instead, which times every layer from outside (the
`perfbench-probe` replicas and microbenchmarks, the CLI, and a `serve`
rerun with `--access-log`). The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; everything else goes to
stderr. Every child runs in a fresh temporary directory under
`.perfbench-tmp/`, which is removed at exit; the traced run's spans are
written to `.perfbench-out/`.
"""

import argparse
import collections
import contextlib
import hashlib
import http.client
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = ROOT / "crates/experiments/tests/golden/compat"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("fig7-quick", "scaling-quick", "serve-mixed")
# The CLI workloads: command, and overrides of the --quick preset. A
# scaling report at the preset's 400k instructions per run costs about 5 s;
# at 100k it costs under 2 s, which lets a run take its median over enough
# seeds to even out the cost differences between seeds.
CLI_WORKLOADS = {
    "fig7-quick": ("fig7", ()),
    "scaling-quick": ("scaling", ("--insts", "100000")),
}

# A CLI set-up is one whole report, so a run sets up twice; a daemon
# set-up takes milliseconds, so a serve run sets up 15 times.
CLI_SETUPS = 2
SERVE_SETUPS = 15
# Seeds a CLI run reports on, derived from the benchmark seed. A scaling
# report's cost varies more from seed to seed (its shapes draw different
# programs), so that workload takes its median over more seeds.
REPORT_SEEDS = {"fig7-quick": 2, "scaling-quick": 16}
# Simulation-free CLI invocations per run.
NOSIM_RUNS = 1200
CHILD_TIMEOUT_S = 170

# The jobs with committed goldens, at the params the goldens pin
# (`--quick --pairs 2 --insts 20000 --profile-insts 200000`, seed 2012).
GOLDEN_JOBS = (
    "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "overhead",
    "rr-interval", "ablation", "morphing", "scaling", "regret",
)
PINNED = {"scale": "quick", "pairs": 2, "insts": 20000, "profile_insts": 200000}
DEFAULT_SEED = 2012
# Jobs that simulate for long enough that a duplicate sent shortly after
# the first request is still in flight (short jobs are never duplicated).
SLOW_JOBS = ("fig3", "fig6", "fig7", "overhead", "ablation", "regret")
COALESCE_EVERY = 3
COALESCE_DELAY_S = 0.05
# Cache hits per serve run, at least: enough for the traced run's p99,
# with ten samples beyond it.
MIN_HITS = 1100


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failures:
    """Counts attempted operations and failed ones (non-zero exit,
    non-200 response, or a failed output check), thread-safe."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0

    def attempt(self):
        with self.lock:
            self.attempted += 1

    def check(self, ok, what):
        if not ok:
            with self.lock:
                self.failed += 1
            log(f"FAILED CHECK: {what}")
        return ok


class Spans:
    """The benchmark's own spans (name, start, end, parent), kept in
    memory and written out at the end of the traced run."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.spans = []
        self.stack = []  # open spans of the main thread
        self.lock = threading.Lock()

    def now(self):
        return time.perf_counter_ns() - self.t0

    def add(self, name, start, end, parent=None, **attrs):
        with self.lock:
            self.spans.append(dict(name=name, start_ns=start, end_ns=end, parent=parent, **attrs))
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name):
        """Time the enclosed block as one span under the innermost open one."""
        sid = self.add(name, self.now(), 0, self.stack[-1] if self.stack else None)
        self.stack.append(sid)
        try:
            yield sid
        finally:
            self.stack.pop()
            self.spans[sid]["end_ns"] = self.now()

    def adopt(self, probe_spans, parent):
        """Attach a probe's spans under `parent`, shifted to its start."""
        base = self.spans[parent]["start_ns"]
        offset = len(self.spans)
        for s in probe_spans:
            up = parent if s["parent"] is None else s["parent"] + offset
            self.add(s["name"], base + s["start_ns"], base + s["end_ns"], up)

    def with_self_time(self):
        """Each span's self time: its duration minus the part of it that
        its children cover (children on other threads may overlap)."""
        children = {}
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        out = []
        for i, s in enumerate(self.spans):
            covered, cur_end = 0, None
            for a, b in sorted(children.get(i, [])):
                a, b = max(a, s["start_ns"]), min(b, s["end_ns"])
                if cur_end is None or a > cur_end:
                    covered += max(0, b - a)
                    cur_end = b
                elif b > cur_end:
                    covered += b - cur_end
                    cur_end = b
            out.append(dict(s, id=i, self_ns=(s["end_ns"] - s["start_ns"]) - covered))
        return out


# ------------------------------------------------------------ processes


# Outcome of one child process, with its rusage.
Child = collections.namedtuple("Child", "status wall_s cpu_s rss_mb stdout")


def run_child(args, cwd, capture=False):
    """Run `args` in `cwd` to completion and reap it with `wait4`, so its
    CPU time and peak RSS are its own. A watchdog kills it after
    CHILD_TIMEOUT_S."""
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    t = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    data = p.stdout.read() if capture else b""
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t
    watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        p.stdout.close()
    return Child(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, data)


def proc_cpu_s(pid):
    """User+system CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build(with_probe):
    """Build `ampsched` (and the probe) from this checkout's sources."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates/experiments").is_dir():
        raise SystemExit("perfbench: run from an ampsched checkout (no Cargo workspace found)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmds = [["cargo", "build", "--offline", "--release", "-p", "ampsched-experiments", "--bin", "ampsched"]]
    if with_probe:
        cmds.append(["cargo", "build", "--offline", "--release",
                     "--manifest-path", str(HERE / "probe/Cargo.toml")])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return target_dir() / "release/ampsched", target_dir() / "release/perfbench-probe"


class TempDirs:
    """Fresh working directories under `.perfbench-tmp/`, removed at exit."""

    def __init__(self):
        self.base = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
        self.n = 0

    def fresh(self):
        self.n += 1
        d = self.base / f"cwd{self.n}"
        d.mkdir(parents=True)
        return d

    def cleanup(self):
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------- stats


def percentile(samples, q):
    """Exact percentile of the raw samples (nearest rank), or None when
    fewer than ten samples lie beyond it."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, -(-q * n // 100))  # ceil(q*n/100)
    if n - rank < 10:
        return None
    return xs[int(rank) - 1]


def median(xs):
    return statistics.median(xs) if xs else None


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def recorded_digest(workload, seed):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def check_report(fails, workload, seed, data, reference, what):
    """A CLI report must match the recorded digest for its workload and
    seed (when one is recorded) and the run's first report byte for byte."""
    want = recorded_digest(workload, seed)
    ok = fails.check(want is None or sha256(data) == want,
                     f"{what}: digest differs from the one recorded for {workload} seed {seed}")
    return fails.check(reference is None or data == reference,
                       f"{what}: report bytes differ from the run's first report") and ok


def skipped_cycle_frac(report_bytes):
    """Share of simulated multicore cycles the run loop skipped, exact,
    from the report's `sim.skip.*_cycles` and `sim.run.cycles` sums."""
    hists = json.loads(report_bytes)["telemetry"]["hists"]
    run = hists.get("sim.run.cycles", {}).get("sum", 0)
    skipped = sum(h["sum"] for k, h in hists.items()
                  if k.startswith("sim.skip.") and k != "sim.skip.single_cycles")
    return skipped / run if run else 0.0


# ------------------------------------------------------------ CLI workload


def cli_report(ampsched, workload, seed, cwd, extra=()):
    cmd, overrides = CLI_WORKLOADS[workload]
    out = cwd / "report.json"
    child = run_child([str(ampsched), "--quick", *overrides, "--seed", str(seed), *extra,
                       "--json", str(out), cmd], cwd)
    data = out.read_bytes() if child.status == 0 and out.is_file() else b""
    return child, data


def report_seeds(workload, seed):
    """The seeds a CLI run reports on: the REPORT_SEEDS[workload] = k
    seeds k*seed ... k*seed+k-1, distinct for distinct benchmark seeds."""
    k = REPORT_SEEDS[workload]
    return [k * seed + i for i in range(k)]


def run_cli(ampsched, workload, seed, seconds, tmp, fails):
    seeds = report_seeds(workload, seed)
    setup, rss, first = [], [], {}

    def report(s, cwd, what):
        fails.attempt()
        child, data = cli_report(ampsched, workload, s, cwd)
        fails.check(child.status == 0, f"{what} (seed {s}): ampsched exited with {child.status}")
        check_report(fails, workload, s, data, first.setdefault(s, data), f"{what} (seed {s})")
        rss.append(child.rss_mb)
        return child

    for k in range(CLI_SETUPS):
        cwd = tmp.fresh()
        setup.append(report(seeds[0], cwd, f"set-up {k}").wall_s)
    # Timed reports run in the last set-up's working directory, so any
    # state a run leaves there is what the next run sees. They cycle
    # through the derived seeds, at least once each: a report's cost
    # depends on its seed's programs, and the median over several seeds
    # evens that out.
    walls, cpus, nosim = [], [], []
    tables = None
    t0 = time.perf_counter()
    while len(walls) < len(seeds) or time.perf_counter() - t0 < seconds:
        child = report(seeds[len(walls) % len(seeds)], cwd, "report")
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        # The CLI's no-simulation path, spread between the reports:
        # `tables` answers without simulating, which is what every
        # report pays before its simulation starts.
        while len(nosim) < NOSIM_RUNS * len(walls) // len(seeds) and len(nosim) < NOSIM_RUNS:
            fails.attempt()
            t = run_child([str(ampsched), "tables"], cwd, capture=True)
            tables = tables or t.stdout
            fails.check(t.status == 0 and t.stdout == tables, "tables: failed or output changed")
            nosim.append(t.wall_s * 1e3)
    elapsed = time.perf_counter() - t0
    return {
        "setup_s": (median(setup), len(setup)),
        "report_s": (median(walls), len(walls)),
        "cpu_s": (median(cpus), len(cpus)),
        "peak_rss_mb": (max(rss), len(rss)),
        "req_per_s": ((len(walls) + len(nosim)) / elapsed, len(walls) + len(nosim)),
        "hit_p50_ms": (percentile(nosim, 50), len(nosim)),
        "hit_p90_ms": (percentile(nosim, 90), len(nosim)),
    }


# ---------------------------------------------------------- serve workload


def http_request(port, method, path, body=None, timeout=CHILD_TIMEOUT_S):
    """One request on its own connection (the daemon has no keep-alive)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.getheader("X-Cache"), resp.getheader("X-Cache-Key"), resp.read()
    finally:
        conn.close()


def free_port():
    """An ephemeral port the OS just handed out, for the daemon to bind."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """`ampsched serve` on an ephemeral port in its own working directory.

    The port is chosen before the spawn so that health probes can start
    at once: a probe that arrives before the accept loop's first `accept`
    is answered at once, and one that arrives later waits out the loop's
    10 ms sleep. Probing only after the daemon printed its address lost
    that race in most set-ups; probing from the spawn wins it in most."""

    def __init__(self, ampsched, cwd, extra=()):
        self.port = free_port()
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(ampsched), "serve", "--addr", f"127.0.0.1:{self.port}", "--workers", "2",
             "--cache-entries", "4096", *extra],
            cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def wait_healthy(self):
        """Seconds from spawn to the first `GET /healthz` 200."""
        while True:
            try:
                if http_request(self.port, "GET", "/healthz", timeout=5)[0] == 200:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() - self.t0 > 30:
                self.proc.kill()
                self.stop()
                raise SystemExit("perfbench: ampsched serve never became healthy")
            time.sleep(0.0005)

    def stop(self):
        """Shut down (gracefully when possible); returns (status, peak RSS MB)."""
        if self.proc.poll() is None:
            try:
                http_request(self.port, "POST", "/shutdown", timeout=10)
            except OSError:
                self.proc.kill()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, ru.ru_maxrss / 1024


def job_body(experiment, seed):
    params = dict(PINNED)
    if seed != DEFAULT_SEED:
        params["seed"] = seed
    return json.dumps({"experiment": experiment, "params": params})


def check_served(fails, job, status, cache, expect, body, first):
    """A served response must be a 200 with the planned X-Cache outcome,
    the bytes of the first body for its key, and, for a pinned job, the
    bytes of its committed golden."""
    ok = fails.check(status == 200, f"{job}: HTTP {status}")
    ok = fails.check(cache in expect, f"{job}: X-Cache {cache}, planned {'/'.join(expect)}") and ok
    ok = fails.check(body == first, f"{job}: body differs from an earlier body with the same key") and ok
    if job[1] == DEFAULT_SEED:
        golden = (GOLDEN_DIR / f"{job[0]}.json").read_bytes()
        ok = fails.check(body == golden, f"{job}: body differs from its committed golden") and ok
    return ok


def miss_plan(seed):
    """The miss client's jobs: the 13 golden jobs at their pinned params,
    then the same jobs at seeds derived from the benchmark seed."""
    yield from ((e, DEFAULT_SEED) for e in GOLDEN_JOBS)
    r = 0
    while True:
        r += 1
        derived = (seed * 1009 + r) % (1 << 32)
        if derived == DEFAULT_SEED:
            continue
        yield from ((e, derived) for e in GOLDEN_JOBS)


class ServeScript:
    """Two closed-loop clients for `seconds`:

    - the miss client sends jobs that were never requested before and
      checks each is a miss whose body matches its golden (pinned jobs)
      or any later body for the same key;
    - the hit client repeats keys already answered (each must be a hit
      with the first body's bytes), and every COALESCE_EVERY-th slow miss
      sends a duplicate COALESCE_DELAY_S after the miss client did, while
      that job is in flight (coalesced, or a hit if it already finished).
    """

    def __init__(self, port, seed, seconds, fails, spans=None, parent=None):
        self.port, self.seed, self.seconds, self.fails = port, seed, seconds, fails
        self.spans, self.parent = spans, parent
        self.lock = threading.Lock()
        self.bodies = {}  # (experiment, seed) -> first body
        self.answered = []  # keys whose first response arrived
        self.key_of = {}  # (experiment, seed) -> X-Cache-Key
        self.target = None  # (job, sent_at) for the hit client to duplicate
        self.miss_s, self.hit_ms, self.outcomes = [], [], []
        self.misses_sent = 0

    def request(self, job, expect):
        self.fails.attempt()
        start = time.perf_counter()
        t_ns = self.spans.now() if self.spans else 0
        try:
            status, cache, key, body = http_request(self.port, "POST", "/run", job_body(*job))
        except OSError as e:
            self.fails.check(False, f"{job}: {e}")
            return None
        took = time.perf_counter() - start
        if self.spans:
            self.spans.add("serve.request", t_ns, self.spans.now(), self.parent,
                           outcome=cache, job=f"{job[0]}@{job[1]}")
        with self.lock:
            self.outcomes.append(cache)
            first = self.bodies.setdefault(job, body)
            self.key_of.setdefault(job, key)
        check_served(self.fails, job, status, cache, expect, body, first)
        return took, cache

    def miss_client(self, deadline):
        slow = 0
        for i, job in enumerate(miss_plan(self.seed)):
            # The golden jobs always run, whatever the deadline.
            if i >= len(GOLDEN_JOBS) and time.perf_counter() >= deadline:
                break
            if job[0] in SLOW_JOBS:
                slow += 1
                if slow % COALESCE_EVERY == 1:
                    with self.lock:
                        self.target = (job, time.perf_counter())
            r = self.request(job, ("miss",))
            self.misses_sent += 1
            with self.lock:
                self.answered.append(job)
            if r:
                self.miss_s.append(r[0])

    def hit_client(self, deadline):
        rng = random.Random(self.seed)
        while time.perf_counter() < deadline or len(self.hit_ms) < MIN_HITS:
            with self.lock:
                target, answered = self.target, len(self.answered)
                if target and time.perf_counter() - target[1] >= COALESCE_DELAY_S:
                    self.target = None
                else:
                    target = None
            if target:
                self.request(target[0], ("coalesced", "hit"))
            elif answered:
                with self.lock:
                    job = self.answered[rng.randrange(answered)]
                r = self.request(job, ("hit",))
                if r and r[1] == "hit":
                    self.hit_ms.append(r[0] * 1e3)
            else:
                time.sleep(0.002)

    def run(self):
        t0 = time.perf_counter()
        deadline = t0 + self.seconds
        threads = [threading.Thread(target=f, args=(deadline,)) for f in (self.miss_client, self.hit_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0


def run_serve(ampsched, seed, seconds, tmp, fails):
    setup = []
    for k in range(SERVE_SETUPS):
        fails.attempt()
        daemon = Daemon(ampsched, tmp.fresh())
        setup.append(daemon.wait_healthy())
        if k < SERVE_SETUPS - 1:
            fails.check(daemon.stop()[0] == 0, "set-up daemon did not exit cleanly")
    try:
        cpu0 = proc_cpu_s(daemon.proc.pid)
        script = ServeScript(daemon.port, seed, seconds, fails)
        elapsed = script.run()
        cpu = proc_cpu_s(daemon.proc.pid) - cpu0
    finally:
        status, rss = daemon.stop()
    fails.check(status == 0, f"daemon exited with {status}")
    n_req = len(script.outcomes)
    return {
        "setup_s": (median(setup), len(setup)),
        "report_s": (median(script.miss_s), len(script.miss_s)),
        "cpu_s": (cpu / max(1, len(script.miss_s)), len(script.miss_s)),
        "peak_rss_mb": (rss, 1),
        "req_per_s": (n_req / elapsed, n_req),
        "hit_p50_ms": (percentile(script.hit_ms, 50), len(script.hit_ms)),
        "hit_p90_ms": (percentile(script.hit_ms, 90), len(script.hit_ms)),
    }


# ------------------------------------------------------------ traced run


def run_probe(probe, args, cwd, spans, fails, name):
    """Run one probe subcommand in a fresh process under a span."""
    with spans.span(name) as sid:
        child = run_child([str(probe), *args], cwd, capture=True)
    fails.attempt()
    ok = fails.check(child.status == 0, f"{name}: probe exited with {child.status}")
    doc = {"metrics": {}, "spans": [], "failures": []}
    if ok:
        doc = json.loads(child.stdout.decode().strip().splitlines()[-1])
    spans.adopt(doc["spans"], sid)
    for f in doc["failures"]:
        fails.check(False, f"{name}: {f}")
    return doc["metrics"]


def traced_cli(ampsched, probe, workload, seed, tmp, spans, fails, m):
    """The CLI report, then the probe's replica; the bytes must agree."""
    cmd, overrides = CLI_WORKLOADS[workload]
    cwd = tmp.fresh()
    fails.attempt()
    with spans.span(f"cli.{cmd}"):
        child, data = cli_report(ampsched, workload, seed, cwd)
    fails.check(child.status == 0, f"cli {cmd}: exited with {child.status}")
    check_report(fails, workload, seed, data, None, f"cli {cmd}")
    out = cwd / "replica.json"
    pm = run_probe(probe, [cmd, *overrides, "--seed", str(seed), "--json", str(out)],
                   cwd, spans, fails, f"probe.{cmd}")
    replica = out.read_bytes() if out.is_file() else b""
    fails.check(replica == data, f"{cmd}: replica bytes differ from the CLI report")
    m[f"{cmd}.cli_report_s"] = child.wall_s
    m[f"{cmd}.traced_total_s"] = pm.get("replica.total_s")
    return child, data, pm


def serve_layers(ampsched, seed, seconds, tmp, spans, fails, m):
    """A traced serve-mixed rerun with --access-log: phases per outcome."""
    cwd = tmp.fresh()
    log_path = cwd / "access.jsonl"
    fails.attempt()
    with spans.span("serve.rerun") as sid:
        daemon = Daemon(ampsched, cwd, ("--access-log", str(log_path)))
        try:
            daemon.wait_healthy()
            script = ServeScript(daemon.port, seed, seconds, fails, spans, sid)
            script.run()
        finally:
            status, _ = daemon.stop()
    fails.check(status == 0, f"traced daemon exited with {status}")
    lines = [json.loads(l) for l in log_path.read_text().splitlines()] if log_path.is_file() else []
    runs = [l for l in lines if l["route"] == "POST /run"]

    def phase(rec, name):
        return sum(p["us"] for p in rec["phases"] if p["name"] == name)

    by = {o: [r for r in runs if r["outcome"] == o] for o in ("hit", "miss", "coalesced")}
    client = {o: script.outcomes.count(o) for o in ("hit", "miss", "coalesced")}
    fails.check(client == {o: len(v) for o, v in by.items()} and len(runs) == len(script.outcomes),
                f"access log outcomes {[(o, len(v)) for o, v in by.items()]} differ from the client's {client}")
    fails.check(client["miss"] == len(script.bodies) == script.misses_sent,
                f"{client['miss']} misses for {len(script.bodies)} distinct keys")
    hits, misses = by["hit"], by["miss"]
    server_hit_ms = median([h["total_us"] / 1e3 for h in hits]) or 0.0
    m["serve.accept_wait_ms"] = (median(script.hit_ms) or 0.0) - server_hit_ms
    m["serve.parse_us"] = median([phase(h, "parse") for h in hits])
    m["serve.cache_claim_us"] = median([phase(h, "cache-claim") for h in hits])
    m["serve.write_us"] = median([phase(h, "write") for h in hits])
    m["serve.queue_wait_ms"] = median([phase(r, "queue-wait") / 1e3 for r in misses])
    m["serve.serialize_us"] = median([phase(r, "serialize") for r in misses])
    key_exp = {script.key_of[(e, DEFAULT_SEED)]: e for e in GOLDEN_JOBS if (e, DEFAULT_SEED) in script.key_of}
    for e in GOLDEN_JOBS:
        sims = [phase(r, "sim") / 1e3 for r in misses if key_exp.get(r["cache_key"]) == e]
        m[f"serve.sim_ms.{e}"] = median(sims)
    m["serve.hits"] = len(hits)
    m["serve.misses"] = len(misses)
    m["serve.coalesced"] = len(by["coalesced"])
    m["serve.client_hit_p50_ms"] = median(script.hit_ms)
    m["serve.client_hit_p99_ms"] = percentile(script.hit_ms, 99)


def run_traced(ampsched, probe, workload, seed, seconds, tmp, fails):
    spans = Spans()
    m = {}
    with spans.span(f"traced.{workload}"):
        micro = run_probe(probe, ["micro"], tmp.fresh(), spans, fails, "probe.micro")
        m.update(micro)
        child, fig7_bytes, pm = traced_cli(ampsched, probe, "fig7-quick", seed, tmp, spans, fails, m)
        m.update(pm)
        m["system.skipped_cycle_frac"] = skipped_cycle_frac(fig7_bytes) if fig7_bytes else None
        # Observability flags on, against the plain CLI run above: same
        # bytes (observability is read-only), and the time it adds.
        cwd = tmp.fresh()
        fails.attempt()
        with spans.span("cli.fig7.flags_on"):
            flagged, flagged_bytes = cli_report(
                ampsched, "fig7-quick", seed, cwd,
                ("--telemetry", "telemetry.jsonl", "--trace-events", "events.json", "--profile-sample", "8192"))
        fails.check(flagged.status == 0 and flagged_bytes == fig7_bytes,
                    "fig7 with observability flags on: report bytes differ")
        m["obs.flags_on_frac"] = flagged.wall_s / child.wall_s - 1
        _, scaling_bytes, spm = traced_cli(ampsched, probe, "scaling-quick", seed, tmp, spans, fails, m)
        m.update({k: v for k, v in spm.items() if k.startswith("scaling.")})
        m["system.skipped_cycle_frac.scaling"] = skipped_cycle_frac(scaling_bytes) if scaling_bytes else None
        serve_layers(ampsched, seed, seconds, tmp, spans, fails, m)
    m["core.decisions"] = pm.get("core.decisions", 0) + micro.get("core.topo_decisions", 0)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    timed = spans.with_self_time()
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(timed, indent=1))
    log(f"{'span':<40} {'wall s':>10} {'self s':>10}")
    for s in timed:
        if s["name"] != "serve.request":
            log(f"{s['name']:<40} {(s['end_ns'] - s['start_ns']) / 1e9:>10.4f} {s['self_ns'] / 1e9:>10.4f}")
    for cmd in ("fig7", "scaling"):
        cli, traced = m.get(f"{cmd}.cli_report_s"), m.get(f"{cmd}.traced_total_s")
        if cli and traced:
            log(f"{cmd}: report_s {cli:.3f} s (CLI), traced total {traced:.3f} s, "
                f"tracing overhead {cli - traced:+.3f} s")
    log(f"profiling.thread_s {m.get('profiling.thread_s')} and fig78.thread_s {m.get('fig78.thread_s')} "
        f"are CPU seconds summed across threads; the *_s spans are wall time")
    return m


# ------------------------------------------------------------------ main


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    end_to_end, per_layer = load_metric_specs()
    ampsched, probe = build(with_probe=a.trace == 1)
    fails = Failures()
    tmp = TempDirs()
    try:
        if a.trace:
            raw = run_traced(ampsched, probe, a.workload, a.seed, a.seconds, tmp, fails)
            wanted, counts = per_layer, {}
        else:
            if a.workload == "serve-mixed":
                measured = run_serve(ampsched, a.seed, a.seconds, tmp, fails)
            else:
                measured = run_cli(ampsched, a.workload, a.seed, a.seconds, tmp, fails)
            raw = {k: v[0] for k, v in measured.items()}
            counts = {k: v[1] for k, v in measured.items()}
            wanted = end_to_end
    finally:
        tmp.cleanup()

    metrics = {}
    for spec in wanted:
        name = spec["name"]
        value = raw.get(name)
        fails.check(isinstance(value, (int, float)), f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": spec["unit"]}
        if name in counts:
            log(f"{name:<16} {value!s:>14} {spec['unit']:<6} n={counts[name]}")
    error_rate = fails.failed / max(1, fails.attempted)
    log(f"error_rate {error_rate:.6g} ({fails.failed} failed of {fails.attempted} attempted)")
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": max(1, fails.attempted),
        "failed": fails.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
