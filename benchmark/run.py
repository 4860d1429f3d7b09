#!/usr/bin/env python3
"""The cellbw benchmark: end-to-end host metrics and a traced per-layer run.

    python3 benchmark/run.py                      all four workloads
    python3 benchmark/run.py --workload cluster --seed 7 --seconds 28
    python3 benchmark/run.py --trace              per-layer metrics
    python3 benchmark/run.py --smoke              <= 20 s self-check
    python3 benchmark/run.py --runs 5 --out a.json
    python3 benchmark/run.py compare a.json b.json

The end-to-end numbers are taken with tracing off, by running the
product the way its users do: `cellbw suite`, `cellbw run`, `cellbw
validate` and `cellbw serve`, each repetition in a fresh process.  The
traced run (--trace) calls each layer in-process through the
`cellbw_bench` harness instead.  See benchmark/README.md.

The benchmark builds `cellbw` and `cellbw_bench` (Release) into
.bench_build/ and works in .bench_work/, both at the repository root.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Only the Python standard
library is used.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cellbw"
WORK = ROOT / ".bench_work"

WORKLOADS = ["figures_suite", "figures_run", "cluster", "serve_mixed"]
BASELINE_SEED = 42
JOBS = 4                 # pool width and load threads: nproc on the reference host
CLI_SETUPS = 20          # `cellbw list` start-ups timed per CLI workload
SERVE_SETUPS = 3         # daemon start-ups timed per serve run
WARM_PASSES = 20         # warm suite + validate passes after each cold suite
MAX_PASSES = 8           # cold passes per sim workload, time permitting
SERVE_WARMUP_S = 2.0
SERVE_PASS = 100         # requests in one serve "pass" (wall_s, cpu_s)
TRACE_REQUESTS = 2000    # fixed serve load of the traced run

CLUSTER = ["cluster_halo", "abl_dualchip"]
HIT_SET = ["fig08_spe_mem", "fig13_couples_dist", "abl_queue_depth",
           "ls_spu_ls", "tab01_peaks", "rand_chase"]
MISS_EXPS = ["ls_spu_ls", "fig03_ppe_l1", "msg_pingpong",
             "abl_queue_depth", "tab01_peaks"]
SMOKE_EXPS = ["ls_spu_ls", "abl_queue_depth", "tab01_peaks"]
# The layer probe's small serve session (every workload but serve_mixed).
PROBE_HITS = ["tab01_peaks"]
PROBE_MISSES = ["ls_spu_ls"]
PROBE_REQUESTS = 400


class SetupError(Exception):
    """The benchmark cannot run here (no sources, build failed, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Processes.  Every child is waited for with wait4, which also yields its
# CPU time and peak RSS; a watchdog kills a child that overruns.

LIVE = set()
RUN_LIMIT_S = 170        # a workload run ends well inside 180 s, hung or not
deadline = float("inf")


def env():
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


class Proc:
    def __init__(self, rc, wall, cpu, rss_mb, out):
        self.rc, self.wall, self.cpu, self.rss_mb, self.out = (
            rc, wall, cpu, rss_mb, out)


def _wait(p, timeout):
    timeout = max(0.1, min(timeout, deadline - time.perf_counter()))
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        while True:
            try:
                _, status, ru = os.wait4(p.pid, 0)
                break
            except InterruptedError:
                continue
    finally:
        timer.cancel()
        LIVE.discard(p)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru


def run(argv, wd, capture=False, timeout=150):
    """Run argv to completion; stdout kept only when capture is set."""
    out_path = wd / "stdout.txt"
    with open(out_path if capture else os.devnull, "w") as out, \
            open(wd / "stderr.txt", "a") as err:
        start = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                             cwd=ROOT, env=env())
        LIVE.add(p)
        rc, ru = _wait(p, timeout)
        wall = time.perf_counter() - start
    text = out_path.read_text() if capture else ""
    return Proc(rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                text)


class Serve:
    """One `cellbw serve` daemon: start, wait for /healthz, drain."""

    def __init__(self, cellbw, wd, cache):
        self.port_file = wd / "serve.port"
        self.port_file.unlink(missing_ok=True)
        argv = [cellbw, "serve", "--port", "0", "--port-file",
                self.port_file, "--jobs", JOBS, "--active", 2,
                "--cache", cache, "--spool", wd / "spool", "--terse"]
        self.log = open(wd / "serve.log", "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen([str(a) for a in argv], stdout=self.log,
                                     stderr=self.log, cwd=ROOT, env=env())
        LIVE.add(self.proc)
        self.port = self._wait_healthy(start)
        self.ready_s = time.perf_counter() - start

    def _wait_healthy(self, start):
        while time.perf_counter() - start < 30:
            if self.proc.poll() is not None:
                raise SetupError("cellbw serve exited during start-up")
            try:
                port = int(self.port_file.read_text())
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return port
                conn.close()
            except (OSError, ValueError, http.client.HTTPException):
                pass
            time.sleep(0.001)
        raise SetupError("cellbw serve did not answer /healthz in 30 s")

    def stop(self):
        """SIGTERM drains the daemon; returns (exit code, peak RSS MB)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            rc, ru = _wait(self.proc, 30)
            self.rss_mb = ru.ru_maxrss / 1024.0
        self.log.close()
        return self.proc.returncode, getattr(self, "rss_mb", 0.0)


def kill_live():
    for p in list(LIVE):
        try:
            p.kill()
            p.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        LIVE.discard(p)


# --------------------------------------------------------------------------
# Build and host snapshot.

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir() or \
            not (ROOT / "baselines").is_dir():
        raise SetupError(f"{ROOT} holds no cellbw sources to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD.parent / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cellbw",
                  "cellbw_bench", "-j", JOBS])
    with open(logf, "w") as out:
        for step in steps:
            rc = subprocess.call([str(a) for a in step], stdout=out,
                                 stderr=subprocess.STDOUT, cwd=ROOT,
                                 env=env())
            if rc != 0:
                tail = logf.read_text().splitlines()[-30:]
                raise SetupError("build failed:\n" + "\n".join(tail))
    return BUILD / "bench" / "cellbw", BUILD / "cellbw_bench"


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_snapshot(bench):
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    harness = json.loads(subprocess.run([str(bench), "host"],
                                        capture_output=True, text=True,
                                        timeout=30).stdout)
    if build_type != "Release" or harness["build_type"] != "Release" \
            or not harness["ndebug"]:
        raise SetupError(f"refusing to measure a {build_type or 'default'} "
                         "build; the benchmark times Release only")
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True,
                                  text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler = "unknown"
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    dirty = bool(git("status", "--porcelain", "--untracked-files=no")) \
        if commit else None
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": build_type, "harness": harness,
            "commit": commit or "unknown", "dirty": dirty,
            "python": sys.version.split()[0],
            "loadavg_start": list(os.getloadavg())}


# --------------------------------------------------------------------------
# One workload run.

class Run:
    """State shared by one workload run: tools, inputs and the tally."""

    def __init__(self, tools, workload, seed, seconds, smoke, wd):
        self.cellbw, self.bench = tools
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.smoke, self.wd = smoke, wd
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.setups = []

    def op(self, ok, what):
        """Count one operation; remember the first failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def figures(self):
        if self.smoke:
            return list(SMOKE_EXPS)
        return [line.split()[0] for line in
                (HERE / "figures.manifest").read_text().splitlines()
                if line.strip() and not line.startswith("#")]

    def cluster(self):
        return ["abl_dualchip"] if self.smoke else list(CLUSTER)

    def check_reports(self, directory, expect):
        """cellbw_bench check: points at tol 0 + exact metrics, or shape."""
        out = self.wd / "check.json"
        p = run([self.bench, "check", directory, "--baselines",
                 ROOT / "baselines", "--out", out], self.wd)
        result = json.loads(out.read_text()) if out.exists() else \
            {"reports": []}
        seen = set()
        for r in result["reports"]:
            seen.add(r["experiment"])
            self.digests[r["experiment"]] = r["digest"]
            self.op(not r["problems"],
                    f"{r['experiment']}: " + "; ".join(r["problems"][:2]))
        self.op(p.rc == 0 and seen == set(expect),
                f"check of {directory.name}: exit {p.rc}, saw {sorted(seen)}")

    def digest(self):
        blob = json.dumps(self.digests, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def cli_setup(self, experiments):
        """Median start-up of the product: `cellbw list`, which must name
        every experiment of the workload."""
        times = []
        for _ in range(1 if self.smoke else CLI_SETUPS):
            t0 = time.perf_counter()
            p = run([self.cellbw, "list"], self.wd, capture=True)
            listed = {line.split()[0] for line in p.out.splitlines()[1:]
                      if line.strip()}
            times.append(time.perf_counter() - t0)
            self.setups.append(times[-1])
            self.op(p.rc == 0 and set(experiments) <= listed,
                    "cellbw list lacks an experiment of the workload")
        return median(times)


def same_tree(a, b):
    names = sorted(f.name for f in a.glob("*.json"))
    return names == sorted(f.name for f in b.glob("*.json")) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def passes(seconds, durations, cap):
    """Start another pass while it is expected to end inside the budget."""
    if len(durations) >= cap:
        return False
    if not durations:
        return True
    return sum(durations) + statistics.mean(durations) <= seconds


def metrics_of(values):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def figures_suite(r):
    """Cold `cellbw suite` over the manifest, then warm suite + validate."""
    exps = r.figures()
    if r.smoke:
        manifest = r.wd / "smoke.manifest"
        manifest.write_text("\n".join(exps) + "\n")
    else:
        manifest = HERE / "figures.manifest"
    paper = ROOT / "baselines" / "paper"
    targets = [e for e in exps if (paper / f"{e}.json").exists()]
    setup_s = r.cli_setup(exps)
    flags = ["--quick", "--seed", r.seed, "--jobs", JOBS]
    walls, cpus, rss, warm_ms, durations, verdicts = [], [], [], [], [], set()

    def warm_block(k, cache, cold, until):
        """Warm suite + validate passes over cache k: WARM_PASSES of
        them, and more while `until` has not passed."""
        w = 0
        while w < (3 if r.smoke else WARM_PASSES) or (
                not r.smoke and time.perf_counter() < until):
            w += 1
            warm = r.wd / "warm"
            s = run([r.cellbw, "suite", manifest, *flags, "--cache", cache,
                     "--out", warm, "--terse"], r.wd, capture=True)
            r.op(s.rc == 0 and f"cache hits: {len(exps)}/{len(exps)}"
                 in s.out, f"warm suite {k}.{w}: exit {s.rc}")
            v = run([r.cellbw, "validate", *targets, *flags, "--cache",
                     cache, "--out", r.wd / "validate", "--baselines",
                     paper, "--terse"], r.wd, capture=True)
            # The paper's checks hold at the baseline seed; at any other
            # seed some placement spreads are too narrow with --quick's
            # three runs, so failures there are recorded, not counted.
            fails = sorted(line.split()[1] for line in v.out.splitlines()
                           if line.strip().startswith("FAIL"))
            verdicts.add(tuple(fails))
            r.op(v.rc == 0 or (v.rc == 1 and r.seed != BASELINE_SEED),
                 f"validate {k}.{w}: exit {v.rc} {fails[:3]}")
            warm_ms.append((s.wall + v.wall) * 1e3)
            rss.extend([s.rss_mb, v.rss_mb])
            if w == 1:
                r.op(same_tree(warm, cold), "warm suite output differs "
                     "from the cold output")

    start = time.perf_counter()
    cap = 1 if r.smoke else MAX_PASSES
    while passes(r.seconds, durations, cap):
        t0 = time.perf_counter()
        k = len(walls)
        cache, cold = r.wd / f"cache{k}", r.wd / f"cold{k}"
        p = run([r.cellbw, "suite", manifest, *flags, "--cache", cache,
                 "--out", cold, "--terse"], r.wd, capture=True)
        r.op(p.rc == 0 and f"cache hits: 0/{len(exps)}, ran {len(exps)}, "
             "failures 0" in p.out, f"cold suite {k}: exit {p.rc}")
        walls.append(p.wall)
        cpus.append(p.cpu)
        rss.append(p.rss_mb)
        if k:
            r.op(same_tree(cold, r.wd / "cold0"),
                 f"cold suite {k} differs from the first")
        warm_block(k, cache, cold, 0.0)
        durations.append(time.perf_counter() - t0)
    # Short operations follow the host's speed from one second to the
    # next, so the rest of the budget samples warm latency at more
    # instants rather than idling.
    if not r.smoke:
        warm_block(k, cache, cold, start + r.seconds)
    r.op(len(verdicts) == 1, "validate verdicts differ between passes")
    r.digests["validate.fail"] = sorted(verdicts)[0] if verdicts else []
    r.check_reports(r.wd / "cold0", exps)
    return {"wall_s": (median(walls), "s"), "cpu_s": (median(cpus), "s"),
            "warm_ms": (median(warm_ms), "ms"),
            "peak_rss_mb": (max(rss), "MB"), "setup_s": (setup_s, "s")}, {
        "cold_passes": len(walls), "warm_passes": len(warm_ms),
        "wall_s_all": walls, "cpu_s_all": cpus, "warm_ms_all": warm_ms,
        "setup_s_all": r.setups, "validate_failures": sorted(verdicts)}


def run_passes(r, exps, flags):
    """`cellbw run` per experiment, each report gated by `cellbw compare`."""
    setup_s = r.cli_setup(exps)
    walls, cpus, rss, warm_ms, durations = [], [], [], [], []
    per_exp = {e: [] for e in exps}
    cap = 1 if r.smoke else MAX_PASSES
    while passes(r.seconds, durations, cap):
        t0 = time.perf_counter()
        k = len(walls)
        out = r.wd / f"pass{k}"
        out.mkdir()
        wall = cpu = 0.0
        for e in exps:
            report = out / f"{e}.json"
            p = run([r.cellbw, "run", e, "--quick", "--seed", r.seed,
                     *flags, "--json", report], r.wd)
            r.op(p.rc == 0, f"cellbw run {e}: exit {p.rc}")
            wall += p.wall
            cpu += p.cpu
            rss.append(p.rss_mb)
            per_exp[e].append(p.wall)
            # The follow-up a user (or CI) runs on a fresh report: gate it
            # against its reference without simulating anything.
            ref = (ROOT / "baselines" / f"{e}.quick.json"
                   if r.seed == BASELINE_SEED else r.wd / "pass0" / f"{e}.json")
            c = run([r.cellbw, "compare", report, ref], r.wd)
            r.op(c.rc == 0, f"cellbw compare {e}: exit {c.rc}")
            warm_ms.append(c.wall * 1e3)
            rss.append(c.rss_mb)
        walls.append(wall)
        cpus.append(cpu)
        if k:
            r.op(same_tree(out, r.wd / "pass0"),
                 f"pass {k} reports differ from the first pass")
        durations.append(time.perf_counter() - t0)
    r.check_reports(r.wd / "pass0", exps)
    return {"wall_s": (median(walls), "s"), "cpu_s": (median(cpus), "s"),
            "warm_ms": (median(warm_ms), "ms"),
            "peak_rss_mb": (max(rss), "MB"), "setup_s": (setup_s, "s")}, {
        "passes": len(walls), "wall_s_all": walls, "cpu_s_all": cpus,
        "warm_ms_all": warm_ms, "setup_s_all": r.setups,
        "experiment_s": {e: median(v) for e, v in per_exp.items()}}


def figures_run(r):
    return run_passes(r, r.figures(), ["--jobs", JOBS])


def cluster(r):
    return run_passes(r, r.cluster(), [])


def serve_session(r, hits, misses, cache, timing, setups=1, spans=()):
    """Start the daemon `setups` times, keep the last, drive it, drain it."""
    ready = []
    for i in range(setups):
        s = Serve(r.cellbw, r.wd, cache)
        ready.append(s.ready_s)
        if i + 1 < setups:
            rc, _ = s.stop()
            r.op(rc == 0, f"serve start-up {i} drained with exit {rc}")
    try:
        reports = r.wd / "hits"
        reports.mkdir(exist_ok=True)
        out = r.wd / "load.json"
        p = run([r.bench, "load", "--port", s.port, "--seed", r.seed,
                 "--threads", JOBS, "--hits", ",".join(hits),
                 "--miss-exps", ",".join(misses), *timing,
                 "--server-pid", s.proc.pid, "--reports", reports,
                 "--out", out, *spans], r.wd, timeout=r.seconds + 120)
        load = json.loads(out.read_text()) if out.exists() else None
    finally:
        rc, rss_mb = s.stop()
    r.op(rc == 0, f"serve drained with exit {rc}")
    if load is None:
        r.op(False, f"load client wrote no result (exit {p.rc})")
        raise SetupError("serve load failed")
    r.attempted += load["attempted"]
    r.failed += load["failed"]
    r.failures += load["failures"][:10 - len(r.failures)]
    r.check_reports(reports, hits)
    return load, median(ready), rss_mb


def serve_mixed(r):
    """Closed-loop mixed traffic against `cellbw serve --jobs 4 --active 2`."""
    hits = SMOKE_EXPS if r.smoke else HIT_SET
    window = 3.0 if r.smoke else max(1.0, r.seconds - SERVE_WARMUP_S)
    warmup = 1.0 if r.smoke else SERVE_WARMUP_S
    load, ready_s, rss_mb = serve_session(
        r, hits, MISS_EXPS, r.wd / "serve-cache",
        ["--warmup", warmup, "--seconds", window],
        setups=1 if r.smoke else SERVE_SETUPS)
    completed = max(load["completed"], 1)
    req_per_s = max(load["req_per_s"], 1e-9)
    return {"wall_s": (SERVE_PASS / req_per_s, "s"),
            "cpu_s": (load["server_cpu_s"] * SERVE_PASS / completed, "s"),
            "warm_ms": (load["hit"]["p50_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (ready_s + load["prewarm_s"], "s")}, {
        "req_per_s": load["req_per_s"], "hit": load["hit"],
        "miss": load["miss"], "bad": load["bad"],
        "prewarm_s": load["prewarm_s"], "ready_s": ready_s,
        "server": load["server"], "miss_configs": load["miss_configs"]}


# --------------------------------------------------------------------------
# The traced run.

def replay_list(r):
    """The workload's experiments and the product path it takes."""
    seed = ["--seed", r.seed]
    if r.workload in ("figures_suite", "figures_run"):
        path = "pool" if r.workload == "figures_suite" else "run"
        return path, [[e, "--quick", *seed, "--jobs", JOBS]
                      for e in r.figures()]
    if r.workload == "cluster":
        return "pool", [[e, "--quick", *seed] for e in r.cluster()]
    hits = SMOKE_EXPS if r.smoke else HIT_SET
    return "pool", [[e, "--quick", *seed] for e in hits]


def replay(r, path, entries, profile):
    name = "profiled" if profile else "plain"
    work = r.wd / f"replay-{name}"
    lst = r.wd / "replay.list"
    lst.write_text("".join(" ".join(map(str, e)) + "\n" for e in entries))
    out = work / "result.json"
    work.mkdir()
    p = run([r.bench, "replay", "--path", path, "--list", lst, "--work",
             work, "--out", out, "--spans", r.wd / f"spans-{name}.json",
             "--workload", r.workload, *(["--profile"] if profile else [])],
            r.wd)
    result = json.loads(out.read_text())
    for e in result["experiments"]:
        r.op(not e["error"], f"replay {e['name']}: {e['error']}")
    r.op(p.rc == 0, f"replay {name}: exit {p.rc}")
    return result, work / "reports"


def trace(r):
    path, entries = replay_list(r)
    exps = [e[0] for e in entries]
    plain, reports = replay(r, path, entries, False)
    r.check_reports(reports, exps)
    prof, _ = replay(r, path, entries, True)

    paper = ROOT / "baselines" / "paper"
    targets = [e for e in r.figures() if (paper / f"{e}.json").exists()]
    out = r.wd / "probes.json"
    p = run([r.bench, "probes", "--work", r.wd / "probes", "--baselines",
             ROOT / "baselines", "--paper", paper, "--validate-targets",
             ",".join(targets), "--hits", ",".join(SMOKE_EXPS if r.smoke
                                                     else HIT_SET),
             "--seed", r.seed, "--out", out, "--spans",
             r.wd / "spans-probes.json", "--workload", r.workload,
             *(["--quick"] if r.smoke else [])], r.wd)
    probes = json.loads(out.read_text())
    r.op(p.rc == 0 and probes["failed"] == 0, f"probes: exit {p.rc}")

    if r.workload == "serve_mixed":
        hits, misses = (SMOKE_EXPS if r.smoke else HIT_SET), MISS_EXPS
        requests = PROBE_REQUESTS if r.smoke else TRACE_REQUESTS
    else:
        hits, misses, requests = PROBE_HITS, PROBE_MISSES, PROBE_REQUESTS
    load, _, _ = serve_session(
        r, hits, misses, r.wd / "serve-cache", ["--requests", requests],
        spans=["--spans", r.wd / "spans-load.json", "--workload", r.workload])

    values = {}
    values["trace.overhead_pct"] = (
        100.0 * (prof["wall_s"] - plain["wall_s"]) / plain["wall_s"], "%")
    secs = [e["s"] for e in plain["experiments"]]
    values["exp.sum_s"] = (sum(secs), "s")
    values["exp.critical_s"] = (max(secs), "s")
    tags = prof["profile"]
    events = sum(t["events"] for t in tags.values())
    self_s = sum(t["self_s"] for t in tags.values())
    values["sim.events"] = (events, "count")
    values["sim.events_per_s"] = (events / max(prof["cpu_s"], 1e-9), "1/s")
    values["sim.self_s"] = (self_s, "s")
    values["sim.unattributed_s"] = (prof["cpu_s"] - self_s, "s")
    # Shares, not seconds: a tag a workload never books (iolink on the
    # partitioned engine) is then a 0 % share rather than a 0 s time.
    for tag in ("mfc", "eib", "dram", "iolink"):
        values[f"sim.{tag}.self_pct"] = (
            100.0 * tags[tag]["self_s"] / self_s if self_s else 0.0, "%")
        values[f"sim.{tag}.events"] = (tags[tag]["events"], "count")
    for name, m in probes["metrics"].items():
        values[name] = (m["value"], m["unit"])
    server = load["server"]
    cold = server["serve.coalesced"] + server["serve.jobs_created"]
    configs = load["hit_configs"] + load["miss_configs"]
    values["serve.hit_p50_ms"] = (load["hit"]["p50_ms"], "ms")
    values["serve.hit_p99_ms"] = (load["hit"]["p99_ms"], "ms")
    values["serve.miss_p50_ms"] = (load["miss"]["p50_ms"], "ms")
    values["serve.miss_p90_ms"] = (load["miss"]["p90_ms"], "ms")
    values["serve.req_per_s"] = (load["req_per_s"], "1/s")
    values["serve.connect_us"] = (
        load["hit"]["p50_ms"] * 1e3 - values["serve.route_hit_us"][0], "us")
    values["serve.cpu_ms_per_req"] = (
        load["server_cpu_s"] * 1e3 / max(load["completed"], 1), "ms")
    values["serve.coalesce_frac"] = (
        server["serve.coalesced"] / cold if cold else 0.0, "ratio")
    values["serve.runs_per_cold_config"] = (
        server["serve.runs"] / configs if configs else 0.0, "ratio")
    spans = []
    for f in sorted(r.wd.glob("spans-*.json")):
        for s in json.loads(f.read_text()):
            spans.append(dict(s, source=f.stem[len("spans-"):]))
    trace_file = WORK / f"trace-{r.workload}-seed{r.seed}.json"
    trace_file.write_text(json.dumps(spans) + "\n")
    return values, {"trace_file": str(trace_file.relative_to(ROOT)),
                    "replay_plain_s": plain["wall_s"],
                    "replay_profiled_s": prof["wall_s"],
                    "experiment_s": {e["name"]: e["s"]
                                     for e in plain["experiments"]},
                    "serve_requests": load["completed"]}


# --------------------------------------------------------------------------
# Main.

def run_workload(tools, spec, workload, seed, seconds, traced, smoke):
    global deadline
    deadline = time.perf_counter() + RUN_LIMIT_S
    wd = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    r = Run(tools, workload, seed, seconds, smoke, wd)
    load_start = list(os.getloadavg())
    t0 = time.perf_counter()
    try:
        if traced:
            values, extra = trace(r)
        else:
            values, extra = globals()[workload](r)
    finally:
        kill_live()
    want = spec["per_layer" if traced else "end_to_end"]
    names = [m["name"] for m in want]
    missing = [n for n in names if n not in values]
    r.op(not missing, f"metrics not measured: {missing}")
    for m in want:
        if m["name"] in values:
            r.op(values[m["name"]][1] == m["unit"],
                 f"{m['name']}: unit {values[m['name']][1]} is not "
                 f"{m['unit']}")
    if not traced:
        for n in names:
            r.op(values.get(n, (0,))[0] > 0, f"{n} is not positive")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "correct": r.failed == 0, "attempted": r.attempted,
        "failed": r.failed, "failures": r.failures,
        "digest": r.digest(), "reports": r.digests,
        "metrics": metrics_of({n: values[n] for n in names if n in values}),
        "extra": extra, "elapsed_s": time.perf_counter() - t0,
        "loadavg": [load_start, list(os.getloadavg())]}
    shutil.rmtree(wd, ignore_errors=True)
    return result


def print_result(res):
    print(f"== {res['workload']} (seed {res['seed']}, "
          f"{'traced' if res['trace'] else 'plain'}"
          f"{', smoke' if res['smoke'] else ''}): "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"{res['elapsed_s']:.1f} s ==")
    for name, m in res["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def result_line(results):
    """The last stdout line: one workload's metrics, or all prefixed."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results
                   for n, m in r["metrics"].items()}
    return json.dumps({"correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "metrics": metrics})


def selftest(bench, wd):
    """The output check must catch a flipped point and a flipped bucket."""
    wd.mkdir(parents=True, exist_ok=True)
    p = run([bench, "selftest", "--baselines", ROOT / "baselines"], wd,
            capture=True)
    if p.rc != 0:
        raise SetupError("output-check self-test failed:\n" + p.out)


def measure(args):
    spec = load_spec()
    tools = build()
    host = host_snapshot(tools[1])
    selftest(tools[1], WORK / "selftest")
    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds
    results = []
    for i in range(args.runs):
        for w in workloads:
            res = run_workload(tools, spec, w, args.seed + i, seconds,
                               bool(args.trace), args.smoke)
            results.append(res)
            print_result(res)
    host["loadavg_end"] = list(os.getloadavg())
    host["seed"] = args.seed
    host["runs"] = args.runs
    host["seconds"] = seconds
    host["passes"] = {"max_cold_passes": MAX_PASSES,
                      "warm_passes": WARM_PASSES, "cli_setups": CLI_SETUPS,
                      "serve_setups": SERVE_SETUPS}
    out = Path(args.out) if args.out else WORK / "last-results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": "cellbw-benchmark-results-v1",
                               "host": host, "runs": results}, indent=1)
                   + "\n")
    print(f"results written to {out}")
    print(result_line(results))
    bad = [r["workload"] for r in results if r["failed"]]
    if args.smoke and bad:
        log(f"smoke: operations failed in {bad}")
        return 1
    return 0


# --------------------------------------------------------------------------
# compare A.json B.json

def compare(a_path, b_path):
    spec = load_spec()
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    print(f"A: {a_path} ({a['host']['commit'][:12]}, "
          f"{a['host']['compiler']})")
    print(f"B: {b_path} ({b['host']['commit'][:12]}, "
          f"{b['host']['compiler']})")
    bad = 0
    for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
        for w in WORKLOADS:
            ra = [r for r in a["runs"] if r["workload"] == w
                  and r["trace"] == traced]
            rb = [r for r in b["runs"] if r["workload"] == w
                  and r["trace"] == traced]
            if not ra or not rb:
                continue
            print(f"\n{w} ({kind}; {len(ra)} vs {len(rb)} runs)")
            print(f"  {'metric':28s} {'A median [q1, q3]':>34s} "
                  f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
            for m in spec[kind]:
                va = [r["metrics"][m["name"]]["value"] for r in ra
                      if m["name"] in r["metrics"]]
                vb = [r["metrics"][m["name"]]["value"] for r in rb
                      if m["name"] in r["metrics"]]
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                base = qa[1] if qa[1] else 1.0
                change = (qb[1] - qa[1]) / abs(base)
                worse = change if m["better"] == "lower" else -change
                verdict = ""
                if "bound" in m:
                    spread = max((qa[2] - qa[0]) / abs(base),
                                 (qb[2] - qb[0]) / abs(qb[1] or 1.0))
                    if m["better"] == "lower":
                        all_better = max(vb) < min(va)
                    else:
                        all_better = min(vb) > max(va)
                    if spread > m["bound"] and not all_better:
                        verdict = "unresolved"
                    elif worse > m["bound"]:
                        verdict = "REGRESSION"
                        bad += 1
                    elif worse < -m["bound"]:
                        verdict = "better"
                    else:
                        verdict = "ok"
                print(f"  {m['name']:28s} "
                      f"{qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                      f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                      f"{100 * change:+7.1f}%  {verdict}")
            fa = sum(r["failed"] for r in ra) / max(
                sum(r["attempted"] for r in ra), 1)
            fb = sum(r["failed"] for r in rb) / max(
                sum(r["attempted"] for r in rb), 1)
            if fb > fa:
                print(f"  REGRESSION: failed share {fa:.4f} -> {fb:.4f}")
                bad += 1
            da = {r["seed"]: r["digest"] for r in ra}
            for r in rb:
                if r["seed"] in da and da[r["seed"]] != r["digest"]:
                    print(f"  DIGEST MISMATCH at seed {r['seed']}: "
                          f"{da[r['seed']]} vs {r['digest']}")
                    bad += 1
    print(f"\n{bad} regression(s) or mismatch(es)")
    return 1 if bad else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=BASELINE_SEED)
    ap.add_argument("--seconds", type=int, default=28,
                    help="measured seconds per workload run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer (traced) run")
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass of every workload (<= 20 s)")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, at seeds seed, seed+1, ...")
    ap.add_argument("--out", help="results file (default "
                    ".bench_work/last-results.json)")
    args = ap.parse_args()
    if args.seconds < 1 or args.runs < 1:
        ap.error("--seconds and --runs must be at least 1")

    def terminate(signum, frame):
        kill_live()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        return measure(args)
    except SetupError as e:
        log(f"benchmark: {e}")
        return 2
    finally:
        kill_live()


if __name__ == "__main__":
    sys.exit(main())
