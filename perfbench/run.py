#!/usr/bin/env python3
"""End-to-end benchmark for qdel: offline replay, warm query serving,
durable ingest beside reads.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the program from this checkout's sources (into .bench_build/),
generates the seed's inputs (cached under .perfbench/inputs/, never
timed), drives the real binaries, checks their outputs and prints one
JSON object as the last line of standard output. --trace 0 reports the
end-to-end metrics; --trace 1 runs the layer probe instead and reports
the per-layer metrics. Progress and reference figures go to stderr.

Repeat mode runs every workload many times on one commit and reports
each metric's median, quartiles and spread with the host fingerprint:

    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seconds S]

See perfbench/README.md for what each workload is for.
"""

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".perfbench")
TOOL = os.path.join(BUILD, "perfbench_tool")
PREDICT = os.path.join(BUILD, "qdel_predict")
SERVE = os.path.join(BUILD, "qdel_serve")

WORKLOADS = ("offline-replay", "serve-query", "serve-ingest-durable")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cpu_us_per_op": "us",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
}

# The confidence every run asks for (the programs' default), and how
# far below it an observed coverage may fall before a check fails
# (README "Output checks").
CONFIDENCE = 0.95
COVERAGE_TOLERANCE = 0.05
# How far the sum of a replay's layer parts, each timed alone, may
# stray from the untraced wall time of the same replay, and how many
# untraced runs that wall is the median of (README "Traced run").
PROBE_AGREEMENT = 0.25
AGREEMENT_RUNS = 3

# Client shapes (README "Client shapes").
QUERY_LOOPS = 2
QUERY_CONNS = 2
QUERY_WINDOW = 64
QUERY_OPEN_RATE = 20000.0
INGEST_WINDOW = 64
INGEST_OPEN_RATE = 1000.0
# Share of --seconds the event stream runs for before its checkpoint
# and recovery tail.
INGEST_TIMED_SHARE = 0.5
# Timed phases are cut into slices and reported as slice medians, after
# a warm-up that is not timed. A phase with fewer whole slices than
# MIN_SLICES gives no result.
SLICE_S = 0.5
WARMUP_S = 0.5
MIN_SLICES = 8
RECOVERY_PAUSE_S = 1.0
RECOVERIES = 3
# Length (the --seconds it is given) of the real serve-query session
# that a traced run reads the server layer and the client's lag from.
TRACED_SERVE_S = 4.0

KEEP_INPUT_SEEDS = 3
ABSENT_QUEUE = "no-such-queue"


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build and inputs -------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("qdel sources (src/) not found next to perfbench/")
    os.makedirs(WORK, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)
    with open(os.path.join(WORK, "build.log"), "w") as out:
        steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "qdel_predict", "qdel_serve", "perfbench_tool"]]
        if not os.path.isfile(cache):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed; see .perfbench/build.log")


def inputs_for(workload, seed):
    """Generate (or reuse) the seed's inputs; keep a few seeds cached."""
    base = os.path.join(WORK, "inputs", workload)
    path = os.path.join(base, str(seed))
    if os.path.isfile(os.path.join(path, "done")):
        os.utime(path)
        return path
    os.makedirs(base, exist_ok=True)
    cached = sorted((d for d in os.listdir(base) if d != str(seed)),
                    key=lambda d: os.path.getmtime(os.path.join(base, d)))
    for stale in cached[:max(0, len(cached) - (KEEP_INPUT_SEEDS - 1))]:
        shutil.rmtree(os.path.join(base, stale))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    subprocess.run([TOOL, "gen", "--workload", workload, "--seed", str(seed),
                    "--out", path], check=True, timeout=170)
    open(os.path.join(path, "done"), "w").close()
    return path


def fresh_dir(*parts):
    path = os.path.join(WORK, "run", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- processes --------------------------------------------------------

def run_measured(cmd, out_path):
    """Run @cmd to completion; return (wall s, user+sys s, peak RSS MiB,
    stdout text). Exits other than 0 raise."""
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited "
                         f"{proc.returncode}; see {out_path}.err")
    with open(out_path) as f:
        text = f.read()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, text


class Daemon:
    """A qdel_serve process; ready() measures launch -> accepting."""

    def __init__(self, args, rundir, name):
        self.port_file = os.path.join(rundir, name + ".port")
        self.out_path = os.path.join(rundir, name + ".out")
        self.started = time.monotonic()
        self.out = open(self.out_path, "w")
        self.err = open(os.path.join(rundir, name + ".err"), "w")
        self.proc = subprocess.Popen(
            [SERVE, "--port", "0", "--port-file", self.port_file] + args,
            stdout=self.out, stderr=self.err)
        self.port = None

    def ready(self, timeout=120.0):
        deadline = self.started + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"qdel_serve exited {self.proc.returncode}"
                                 f" before accepting; see {self.out_path}")
            try:
                with open(self.port_file) as f:
                    port = int(f.read().strip() or 0)
                if port:
                    socket.create_connection(("127.0.0.1", port), 1).close()
                    self.port = port
                    return time.monotonic() - self.started
            except (OSError, ValueError):
                pass
            time.sleep(0.001)
        raise BenchError("qdel_serve did not start accepting in time")

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for qdel_serve")

    def metrics(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
        conn.close()
        return parse_prometheus(text)

    def stop(self, sig=signal.SIGTERM, timeout=60.0):
        """Signal and reap; returns the daemon's stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("qdel_serve did not stop in time")
        self.out.close()
        self.err.close()
        if sig == signal.SIGTERM and self.proc.returncode != 0:
            raise BenchError(f"qdel_serve exited {self.proc.returncode}")
        with open(self.out_path) as f:
            return f.read()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def run_client(args, rundir):
    out = os.path.join(rundir, "client.json")
    with open(out, "w") as f:
        subprocess.run([TOOL, "client"] + args, stdout=f, check=True,
                       timeout=170)
    with open(out) as f:
        return json.loads(f.read().strip().splitlines()[-1])


# --- output checks ----------------------------------------------------
# Each returns a list of failure messages (empty = pass). They judge
# results by properties and independent computations, never against a
# recorded copy of an earlier output.

def parse_table(text):
    """Rows of a qdel_predict results table, keyed by queue."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 6 or not line.startswith("|") or cells[0] == "queue":
            continue
        rows[cells[0]] = {
            "jobs": int(cells[1]), "evaluated": int(cells[2]),
            "correct": float(cells[3].rstrip("*")), "median": cells[4],
            "trims": int(cells[5]), "text": line.strip()}
    return rows


def check_replay_rows(rows, meta, train_fraction=0.10, coverage=True):
    """Every generated queue has a row whose evaluated count is its
    jobs minus the training prefix; BMBP covers C within tolerance."""
    failures = []
    if set(rows) != set(meta["queues"]):
        failures.append(f"queues {sorted(rows)} != {sorted(meta['queues'])}")
    for queue, jobs in meta["queues"].items():
        row = rows.get(queue)
        if row is None:
            continue
        expected = jobs - int(train_fraction * jobs)
        if row["jobs"] != jobs or row["evaluated"] != expected:
            failures.append(f"{queue}: jobs/evaluated {row['jobs']}/"
                            f"{row['evaluated']}, expected {jobs}/{expected}")
        if coverage and row["correct"] < CONFIDENCE - COVERAGE_TOLERANCE:
            failures.append(f"{queue}: correct {row['correct']} below "
                            f"{CONFIDENCE} - {COVERAGE_TOLERANCE}")
    return failures


def check_engines_agree(stream_rows, memory_rows):
    if stream_rows != memory_rows:
        diff = [q for q in set(stream_rows) | set(memory_rows)
                if stream_rows.get(q) != memory_rows.get(q)]
        return [f"stream and in-memory rows differ for {sorted(diff)}"]
    return []


def parse_dump(text):
    """qdel_serve --dump-bounds: {(queue, range): {q: (upper, lower)}}."""
    grid = {}
    key = None
    for line in text.splitlines():
        if not line.startswith(" "):
            _, queue, label = line.split()[0].split("|")
            key = (queue, label)
            grid[key] = {}
        else:
            fields = dict(f.split("=") for f in line.split())
            grid[key][round(float(fields["q"]), 4)] = (
                float(fields["upper"]), float(fields["lower"]))
    return grid


def check_answers(answers_text, distinct_text, dump_text):
    """Each distinct query's answer equals its key's dumped grid value
    at the answered quantile."""
    failures = []
    grid = parse_dump(dump_text)
    distinct = {}
    for line in distinct_text.splitlines():
        idx, queue, label, quantile, upper = line.split("\t")
        distinct[int(idx)] = (queue, label, float(quantile), upper == "1")
    checked = 0
    for line in answers_text.splitlines():
        idx, known, upper, lower, answered_q = line.split("\t")
        queue, label, quantile, want_upper = distinct[int(idx)]
        cell = grid.get((queue, label), {}).get(round(float(answered_q), 4))
        value = float(upper) if want_upper else float(lower)
        if known != "1" or cell is None or \
                value != cell[0 if want_upper else 1] or \
                round(float(answered_q), 4) != quantile:
            failures.append(f"query {idx} ({queue} {label} q={quantile}) "
                            f"answered {value} at q={answered_q}, dump has "
                            f"{cell}")
        checked += 1
    if checked == 0:
        failures.append("no answers to check")
    return failures[:5]


def check_equal(what, got, want):
    return [] if got == want else [f"{what}: {got} != {want}"]


def check_at_least(what, got, floor):
    return [] if got >= floor else [f"{what}: {got} < {floor}"]


# --- workloads ----------------------------------------------------------

def offline_replay(inputs, seconds):
    rundir = fresh_dir("offline-replay")
    with open(os.path.join(inputs, "meta.json")) as f:
        meta = json.load(f)
    swf = os.path.join(inputs, "trace.swf")
    qtc = os.path.join(rundir, "trace.swf.qtc")

    # Set-up: qdel_predict parses the SWF text and writes its .qtc
    # cache; the absent queue filter makes it evaluate nothing.
    setup_s, _, _, _ = run_measured(
        [PREDICT, swf, f"--trace-cache={rundir}", f"--queue={ABSENT_QUEUE}"],
        os.path.join(rundir, "setup.out"))
    if not os.path.isfile(qtc):
        raise BenchError("qdel_predict --trace-cache wrote no .qtc")

    invocations = [("stream-bmbp", [PREDICT, qtc, "--method=bmbp"]),
                   ("stream-lognormal-trim",
                    [PREDICT, qtc, "--method=lognormal-trim"]),
                   ("memory-bmbp", [PREDICT, swf, "--method=bmbp"])]
    walls = {name: [] for name, _ in invocations}
    cpus = {name: [] for name, _ in invocations}
    scored = {}
    rss = 0.0
    failures = []
    rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < seconds:
        tables = {}
        for name, cmd in invocations:
            wall, used, peak, text = run_measured(
                cmd, os.path.join(rundir, name + ".out"))
            tables[name] = parse_table(text)
            scored[name] = sum(r["evaluated"] for r in tables[name].values())
            walls[name].append(wall)
            cpus[name].append(used)
            rss = max(rss, peak)
        if rounds == 0:
            first = tables
            failures += check_replay_rows(tables["stream-bmbp"], meta)
            failures += check_replay_rows(tables["memory-bmbp"], meta)
            failures += check_replay_rows(tables["stream-lognormal-trim"],
                                          meta, coverage=False)
            failures += check_engines_agree(tables["stream-bmbp"],
                                            tables["memory-bmbp"])
        elif tables != first:
            failures.append(f"round {rounds} printed other rows than round 0")
        rounds += 1
    # A round as its invocations' median times: one slow invocation
    # does not move the run's figures.
    round_jobs = sum(scored.values())
    round_wall = sum(statistics.median(w) for w in walls.values())
    round_cpu = sum(statistics.median(c) for c in cpus.values())
    log(f"offline-replay: {rounds} rounds of {round_jobs} jobs; wall s "
        f"{ {k: [round(x, 3) for x in v] for k, v in walls.items()} }")
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "cpu_us_per_op": round_cpu / round_jobs * 1e6,
        "ops_per_s": round_jobs / round_wall,
        # An offline replay answers no queries, so this workload's
        # latency figure is the time per scored job: the reciprocal of
        # ops_per_s, not a signal of its own (README "End-to-end").
        "op_p50_us": round_wall / round_jobs * 1e6,
    }
    jobs = round_jobs * rounds
    return metrics, jobs, 0, failures


def query_session(inputs, seconds):
    """Launch a warm daemon and drive the serve-query client shape
    against it; returns (set-up s, peak RSS MiB, client result, the
    daemon's /metrics, attempted, failed, failures)."""
    rundir = fresh_dir("serve-query")
    with open(os.path.join(inputs, "meta.json")) as f:
        meta = json.load(f)
    dump = os.path.join(rundir, "bounds.txt")
    daemon = Daemon(["--drive", os.path.join(inputs, "warm.swf"),
                     "--reactor-threads", str(QUERY_LOOPS),
                     "--dump-bounds", dump], rundir, "serve")
    try:
        setup_s = daemon.ready()
        open_n = int(QUERY_OPEN_RATE * seconds * 0.4)
        result = run_client([
            "--mode", "serve-query", "--port", str(daemon.port),
            "--pid", str(daemon.proc.pid), "--conns", str(QUERY_CONNS),
            "--window", str(QUERY_WINDOW), "--warmup-s", str(WARMUP_S),
            "--closed-s", str(seconds * 0.5), "--slice-s", str(SLICE_S),
            "--open-rate", str(QUERY_OPEN_RATE), "--open-n", str(open_n),
            "--distinct", str(meta["distinct_queries"]),
            "--frames", os.path.join(inputs, "queries.frames"),
            "--index", os.path.join(inputs, "queries.idx"),
            "--answers-out", os.path.join(rundir, "answers.tsv")], rundir)
        served = daemon.metrics()
        rss = daemon.peak_rss_mib()
        daemon.stop()
    finally:
        daemon.kill()
    log("serve-query:", json.dumps(result))
    answered = result["closed_answers"] + result["open_n"] - result["open_failed"]
    failed = result["closed_failed"] + result["open_failed"]
    failures = check_equal("failed queries", failed, 0)
    failures += check_equal("answers differing between repeats",
                            result["mismatches"], 0)
    failures += check_equal("qdel_serve_queries_total",
                            int(served.get("qdel_serve_queries_total", -1)),
                            answered)
    with open(os.path.join(rundir, "answers.tsv")) as a, \
            open(os.path.join(inputs, "distinct.tsv")) as d, open(dump) as b:
        failures += check_answers(a.read(), d.read(), b.read())
    attempted = result["closed_answers"] + result["closed_failed"] + \
        result["open_n"]
    return setup_s, rss, result, served, attempted, failed, failures


def serve_query(inputs, seconds):
    setup_s, rss, result, _, attempted, failed, failures = \
        query_session(inputs, seconds)
    rate, cpu_per_op = slice_medians(result["closed_slices"])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "cpu_us_per_op": cpu_per_op,
        "ops_per_s": rate,
        "op_p50_us": result["open_p50_us"],
    }
    return metrics, attempted, failed, failures


def serve_ingest_durable(inputs, seconds):
    rundir = fresh_dir("serve-ingest-durable")
    state = os.path.join(rundir, "state")
    daemon = Daemon(["--state-dir", state, "--reactor-threads", "1"], rundir,
                    "serve")
    try:
        daemon.ready()
        result = run_client([
            "--mode", "ingest", "--port", str(daemon.port),
            "--pid", str(daemon.proc.pid), "--window", str(INGEST_WINDOW),
            "--timed-s", str(seconds * INGEST_TIMED_SHARE),
            "--slice-s", str(SLICE_S),
            "--open-rate", str(INGEST_OPEN_RATE),
            "--frames", os.path.join(inputs, "stream.frames"),
            "--kinds", os.path.join(inputs, "stream.kinds"),
            "--jobs", os.path.join(inputs, "stream.jobs"),
            "--oframes", os.path.join(inputs, "oqueries.frames")], rundir)
        served = daemon.metrics()
        rss = daemon.peak_rss_mib()
        daemon.stop(signal.SIGKILL)
    finally:
        daemon.kill()
    log("serve-ingest-durable:", json.dumps(result))
    if result["exhausted"]:
        log("serve-ingest-durable: the event stream ran out before the "
            "timed phase ended")

    # Set-up: recovery of the killed daemon's state dir, from launch
    # until it accepts connections. Recovery takes tens of
    # milliseconds, much of it fsyncs whose latency on a shared disk
    # swings by half from one run to the next, so each run recovers
    # RECOVERIES copies of the killed state, each in a fresh process,
    # and reports their median. The pause lets the file system finish
    # with the killed daemon's writes first.
    copies = [state] + [f"{state}-copy{i}" for i in range(1, RECOVERIES)]
    for copy in copies[1:]:
        shutil.copytree(state, copy)
    time.sleep(RECOVERY_PAUSE_S)
    recoveries, digests = [], []
    for copy in copies:
        restarted = Daemon(["--state-dir", copy, "--reactor-threads", "1",
                            "--digest"], rundir, "recovered")
        try:
            recoveries.append(restarted.ready())
            digests.append(digest_of(restarted.stop()))
        finally:
            restarted.kill()
    setup_s = statistics.median(recoveries)
    # The reference: the in-memory --drive of the trace of exactly the
    # jobs the stream sent.
    prefix = os.path.join(rundir, "prefix.swf")
    write_prefix_trace(inputs, result["jobs_sent"], prefix)
    _, _, _, reference = run_measured(
        [SERVE, "--drive", prefix, "--digest"],
        os.path.join(rundir, "reference.out"))

    failed = result["stream_failed"] + result["open_failed"]
    failures = check_equal("failed requests", failed, 0)
    failures += check_equal("events sent", result["events_sent"],
                            2 * result["jobs_sent"])
    failures += check_equal("events acknowledged", result["events"],
                            result["events_sent"])
    failures += check_equal("qdel_serve_events_applied_total",
                            int(served.get("qdel_serve_events_applied_total",
                                           -1)), result["events_sent"])
    for digest in digests:
        failures += check_equal("recovered digest vs in-memory drive",
                                digest, digest_of(reference))
    scored = served.get("qdel_calib_scored_total", 0)
    failures += check_at_least(
        "online coverage",
        served.get("qdel_calib_hits_total", 0) / scored if scored else 0,
        CONFIDENCE - COVERAGE_TOLERANCE)
    rate, cpu_per_op = slice_medians(result["stream_slices"])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "cpu_us_per_op": cpu_per_op,
        "ops_per_s": rate,
        "op_p50_us": result["open_p50_us"],
    }
    # The stream's frames, its checkpoint request and the reader's
    # queries.
    attempted = result["frames_sent"] + 1 + result["open_n"]
    return metrics, attempted, failed, failures


def write_prefix_trace(inputs, jobs, path):
    """Write the first @jobs jobs of the generated trace."""
    with open(os.path.join(inputs, "ingest.swf")) as src, \
            open(path, "w") as out:
        for line in src:
            if not line.startswith(";"):
                if jobs == 0:
                    break
                jobs -= 1
            out.write(line)


def slice_medians(slices):
    """Median rate and median daemon CPU per operation (us) over the
    timed phase's whole slices (CPU per operation over those that did
    any)."""
    busy = [(ops, cpu) for ops, _, cpu in slices if ops > 0]
    if len(slices) < MIN_SLICES or len(busy) < MIN_SLICES:
        raise BenchError(f"timed phase has {len(slices)} whole slices, "
                         f"{len(busy)} with work; {MIN_SLICES} needed")
    return (statistics.median(ops / secs for ops, secs, _ in slices),
            statistics.median(cpu / ops * 1e6 for ops, cpu in busy))


def digest_of(text):
    for line in text.splitlines():
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def traced(workload, inputs, seed):
    """Per-layer metrics from the probe and from a real serve-query
    session, plus the agreement check of the probe's layer parts
    against untraced replays of the same input."""
    rundir = fresh_dir(workload + "-traced")
    with open(os.path.join(inputs, "meta.json")) as f:
        meta = json.load(f)
    out = os.path.join(rundir, "probe.json")
    with open(out, "w") as f:
        subprocess.run([TOOL, "probe", "--workload", workload, "--inputs",
                        inputs, "--out", rundir], stdout=f, check=True,
                       timeout=170)
    with open(out) as f:
        values = json.loads(f.read().strip().splitlines()[-1])
    failures = list(values.pop("failures"))
    sums = values.pop("sums")
    if workload == "offline-replay":
        # The layer parts of each replay, each timed on its own, must
        # add up to about what the untraced binary takes for the same
        # replay (the median of a few runs, as the parts are).
        trace = os.path.join(inputs, "trace.swf")
        qtc = os.path.join(rundir, "trace.swf.qtc")
        for name, cmd in (("stream", [PREDICT, qtc, "--method=bmbp"]),
                          ("memory", [PREDICT, trace, "--method=bmbp"])):
            walls = []
            for _ in range(AGREEMENT_RUNS):
                wall, _, _, text = run_measured(
                    cmd, os.path.join(rundir, name + ".out"))
                walls.append(wall)
            wall = statistics.median(walls)
            failures += check_replay_rows(parse_table(text), meta)
            failures += check_agreement(name, sums[name], wall)
            log(f"{name} replay: sum of parts timed alone "
                f"{sums[name]:.3f} s, traced in-process "
                f"{sums[name + '_traced']:.3f} s, untraced qdel_predict "
                f"{wall:.3f} s")

    # The server layer and the client's lag, from /metrics and the
    # client of a real serve-query session on this seed's inputs.
    _, _, result, served, attempted, failed, more = query_session(
        inputs_for("serve-query", seed), TRACED_SERVE_S)
    failures += more
    batches = served.get("qdel_serve_batch_frames_count", 0)
    requests = served.get("qdel_serve_requests_total", 0)
    if not batches or not requests:
        failures.append("serve-query session recorded no batches")
    else:
        values["serve.server.batch_frames_mean"] = {
            "value": served["qdel_serve_batch_frames_sum"] / batches,
            "unit": "frames"}
        values["serve.server.wakeups_per_request"] = {
            "value": served["qdel_serve_loop_wakeups_total"] / requests,
            "unit": "count"}
    values["client.lag_us"] = {"value": result["open_lag_us"], "unit": "us"}
    return values, len(values) + attempted, failed, failures


def check_agreement(name, layer_sum, wall):
    if abs(layer_sum - wall) > PROBE_AGREEMENT * wall:
        return [f"{name} replay: sum of parts {layer_sum:.3f} s vs "
                f"untraced {wall:.3f} s"]
    return []


RUNNERS = {"offline-replay": offline_replay, "serve-query": serve_query,
           "serve-ingest-durable": serve_ingest_durable}


def run_once(workload, seed, seconds, trace):
    build()
    # Anything the program would put in the temp dir stays in the
    # checkout too.
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    inputs = inputs_for(workload, seed)
    if trace:
        values, attempted, failed, failures = traced(workload, inputs, seed)
        units = {name: value.pop("unit") for name, value in values.items()}
        values = {name: value["value"] for name, value in values.items()}
    else:
        values, attempted, failed, failures = RUNNERS[workload](inputs, seconds)
        units = END_TO_END
    for failure in failures:
        log("CHECK FAILED:", failure)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }


# --- repeat mode --------------------------------------------------------

def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "kernel": platform.release(), "commit": commit}


def repeat(count, workloads, seconds, trace, first_seed):
    report = {"host": host_fingerprint(), "runs": count, "seconds": seconds,
              "trace": trace, "workloads": {}}
    for workload in workloads:
        values = {}
        shares = set()
        all_correct = True
        for i in range(count):
            seed = first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=900)
            if proc.returncode != 0:
                raise BenchError(f"{workload} seed {seed} exited "
                                 f"{proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "values": series}
        report["workloads"][workload] = {"correct": all_correct,
                                         "failed_shares": sorted(shares),
                                         "metrics": summary}
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run every workload this many times")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--report", help="repeat mode: write JSON here")
    args = parser.parse_args()
    try:
        if args.repeat:
            build()
            report = repeat(args.repeat, args.workloads.split(","),
                            args.seconds, args.trace, args.seed)
            text = json.dumps(report, indent=1)
            if args.report:
                with open(args.report, "w") as f:
                    f.write(text + "\n")
            for workload, entry in report["workloads"].items():
                for name, m in entry["metrics"].items():
                    log(f"{workload:22s} {name:34s} median {m['median']:.6g}"
                        f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread "
                        f"{m['spread']:.4f}" if m["spread"] is not None else
                        f"{workload:22s} {name:34s} median 0")
            print(json.dumps({"host": report["host"]}))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        log(f"error: {error}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
