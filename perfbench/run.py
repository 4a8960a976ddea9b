#!/usr/bin/env python3
"""End-to-end benchmark of the uncharted measurement pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload y1_campaign --seed 7 --seconds 20 --trace 0

It builds the release `uncharted` binary and the `perfbench` helper from
source, has the repository's simulator write the workload's captures
(seeded), then either times the program as users run it (`--trace 0`:
`report_s`, `peak_rss_mb`, `setup_s`) or makes one traced run that times
each layer's public calls (`--trace 1`). Every run checks the program's
output. The last line of stdout is the JSON result; the line before it
records provenance (host, seed, a SHA-256 and packet count per input).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("y1_campaign", "y1_continuous", "serve_impaired_taps")
# Set-up is repeated and its median reported, so one slow simulation
# does not move setup_s.
SETUP_REPS = 3
# Fewest timed repetitions a run makes, however short --seconds is.
MIN_REPS = 3
IDLE_TIMEOUT = "30"
# Longest a single serve repetition may take before it counts as failed.
REP_TIMEOUT_S = 120.0


class BenchError(Exception):
    """A failure that stops the run without printing a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    for cmd in (
        ["cargo", "build", "--release", "-p", "uncharted", "--bin", "uncharted"],
        ["cargo", "build", "--release", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Cargo's own output goes to stderr: stdout is for the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "uncharted"), os.path.join(target, "release", "perfbench")


def host():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def perfbench(tool, *args):
    proc = subprocess.run([tool, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed with exit code {proc.returncode}")
    return last_json_line(proc.stdout)


def spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL):
    return subprocess.Popen(cmd, stdout=stdout, stderr=stderr)


def reap(proc):
    """Wait for `proc` and return (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# --- output checks -----------------------------------------------------------

FLOW_ROW = re.compile(r"^\| (?:short-lived <1s|short-lived >=1s|long-lived)\s*\| (\d+)\s*\|", re.M)
DIALECTS = (("10.1.9.28", "cot1"), ("10.1.14.37", "ioa2"))


def check_analyze(code, text, packets, flows):
    """Problems with one `analyze` report; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    m = re.match(r"(\d+) packets,", text)
    if not m or int(m.group(1)) != packets:
        problems.append(f"packet count {m and m.group(1)} != {packets} records generated")
    for addr, dialect in DIALECTS:
        if not re.search(rf"^\s+{re.escape(addr)}\s+-> dialect {dialect} \(", text, re.M):
            problems.append(f"{addr} not named as dialect {dialect}")
    rows = [int(n) for n in FLOW_ROW.findall(text)]
    if len(rows) != 3 or sum(rows) != flows:
        problems.append(f"flow rows {rows} do not sum to the FlowTable's {flows}")
    m = re.search(r"^sessions: (\d+)$", text, re.M)
    if not m or int(m.group(1)) == 0:
        problems.append("no sessions line")
    return problems


def check_source(final, records, reference):
    """Problems with one serve source's final report: it must end drained,
    with every record sent, and with the summary `analyze --follow` gives
    for the same tap."""
    if final is None:
        return ["source never reported"]
    problems = []
    if final.get("status") != "drained":
        problems.append(f"status {final.get('status')}")
    if final.get("packets") != records:
        problems.append(f"{final.get('packets')} packets != {records} records sent")
    if final.get("summary") != reference:
        problems.append(f"summary {final.get('summary')} != analyze --follow {reference}")
    return problems


# --- batch: `uncharted analyze` -------------------------------------------------


def run_analyze(binary, files):
    t0 = time.perf_counter()
    proc = spawn([binary, "analyze", *files])
    out = proc.stdout.read()
    code, rss = reap(proc)
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    return elapsed, rss, code, out.decode(errors="replace")


def time_analyze(binary, files, packets, flows, seconds):
    """Repeat `analyze` until `seconds` have passed (at least `MIN_REPS`
    times); return times, RSS and failures. The inputs were just written,
    so the first repetition already reads them from the page cache."""
    times, rss, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        elapsed, peak, code, out = run_analyze(binary, files)
        problems = check_analyze(code, out, packets, flows)
        if problems:
            failed += 1
            log("analyze check failed: " + "; ".join(problems))
        times.append(elapsed)
        rss.append(peak)
    return times, rss, failed


# --- serve: `uncharted serve` fed by this process ------------------------------


def http_get(addr, path):
    with socket.create_connection(addr, timeout=10) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise OSError(f"GET {path}: {head[:40]!r}")
    return body.decode()


def parse_addr(text):
    host_part, _, port = text.rpartition(":")
    return host_part, int(port)


class Serve:
    """One `uncharted serve` process that drains and exits after
    `lifetime` seconds, printing every source's final report."""

    def __init__(self, binary, lifetime):
        self.started = time.perf_counter()
        self.proc = spawn(
            [binary, "serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0",
             "--idle-timeout", IDLE_TIMEOUT, "--quiet", "--shutdown-after", f"{lifetime:.3f}"],
            stderr=subprocess.PIPE,
        )
        self.deadline = self.started + lifetime
        self.pcap = self.http = None
        found = threading.Event()

        def read_stderr():
            for raw in self.proc.stderr:
                line = raw.decode(errors="replace")
                m = re.search(r"pcap-over-TCP feeds on (\S+)", line)
                if m:
                    self.pcap = parse_addr(m.group(1))
                m = re.search(r"observability on http://([^/\s]+)/", line)
                if m:
                    self.http = parse_addr(m.group(1))
                if self.pcap and self.http:
                    found.set()
            found.set()

        self.stderr_reader = threading.Thread(target=read_stderr, daemon=True)
        self.stderr_reader.start()
        found.wait(60)
        if not (self.pcap and self.http):
            self.kill()
            raise BenchError("serve did not report its listen addresses")
        while True:
            try:
                if http_get(self.http, "/healthz").strip() == "ok":
                    break
            except OSError:
                pass
            if time.perf_counter() - self.started > 60:
                self.kill()
                raise BenchError("serve never answered /healthz")
            time.sleep(0.001)
        self.ready_s = time.perf_counter() - self.started

    def feed(self, taps):
        """Send every tap at line rate on its own connection, at once; return
        the time from the first byte offered until every one of these
        sources has finalized, and their /sources entries in tap order."""
        socks = [socket.create_connection(self.pcap, timeout=REP_TIMEOUT_S) for _ in taps]
        peers = ["%s:%d" % s.getsockname()[:2] for s in socks]
        errors = []

        def send(sock, data):
            try:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
            except OSError as e:
                errors.append(e)

        senders = [threading.Thread(target=send, args=(s, t)) for s, t in zip(socks, taps)]
        t0 = time.perf_counter()
        for t in senders:
            t.start()
        for t in senders:
            t.join()
        mine = []
        while not errors:
            by_peer = {s["peer"]: s for s in json.loads(http_get(self.http, "/sources"))}
            mine = [by_peer.get(p) for p in peers]
            if all(s and s["finalized"] and s["status"] != "active" for s in mine):
                break
            if time.perf_counter() - t0 > REP_TIMEOUT_S:
                errors.append("sources did not finalize")
                break
            time.sleep(0.002)
        elapsed = time.perf_counter() - t0
        for s in socks:
            s.close()
        for e in errors:
            log(f"feed failed: {e}")
        return elapsed, mine, not errors

    def finish(self):
        """Wait for the drain; return (exit code, peak RSS MB, final reports
        by source id)."""
        out = self.proc.stdout.read()
        code, rss = reap(self.proc)
        self.proc.stdout.close()
        self.stderr_reader.join()
        self.proc.stderr.close()
        finals = {}
        for line in out.decode(errors="replace").splitlines():
            if line.startswith("{"):
                report = json.loads(line)
                finals[report["source"]] = report
        return code, rss, finals

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def follow_references(binary, inputs, work):
    """`analyze --follow --idle-timeout 30` summary per input (a list of
    files fed as one source), run concurrently; also returns the slowest
    run's time."""
    t0 = time.perf_counter()
    outs = [os.path.join(work, f"follow_{i}.jsonl") for i in range(len(inputs))]
    procs = []
    for files, out in zip(inputs, outs):
        with open(out, "wb") as f:
            procs.append(spawn([binary, "analyze", "--follow", "--idle-timeout", IDLE_TIMEOUT,
                                *files], stdout=f))
    codes = [proc.wait() for proc in procs]
    elapsed = time.perf_counter() - t0
    if any(codes):
        raise BenchError(f"analyze --follow failed with exit codes {codes}")
    summaries = []
    for out in outs:
        with open(out) as f:
            summaries.append(last_json_line(f.read()))
    return summaries, elapsed


def time_serve(binary, taps, records, references, seconds, estimate):
    """Feed the taps to one serve process repeatedly for about `seconds`
    (at least once); check every source afterwards. `estimate` is a
    generous guess at one repetition's time."""
    # The server drains on a timer. Repetitions go on while one more fits
    # before it fires, so little of its lifetime is spent idle.
    server = Serve(binary, max(seconds, 2 * estimate + 1))
    times, fed, failed = [], [], 0
    try:
        while True:
            elapsed, sources, ok = server.feed(taps)
            times.append(elapsed)
            fed.append((sources, ok))
            if time.perf_counter() + 1.2 * max(times) + 0.5 >= server.deadline:
                break
    finally:
        code, rss, finals = server.finish()
    if code != 0:
        raise BenchError(f"serve exited with code {code}")
    backpressure = 0
    for sources, ok in fed:
        for i, source in enumerate(sources or [None] * len(taps)):
            final = finals.get(source["id"]) if source else None
            problems = [] if ok else ["feed failed"]
            problems += check_source(final, records[i], references[i])
            if problems:
                failed += 1
                log(f"serve check failed on tap {i}: " + "; ".join(problems))
            if source:
                backpressure += source["backpressure_waits"]
    return times, rss, failed, len(fed) * len(taps), server.ready_s, backpressure


# --- the run -----------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, root):
    uncharted, tool = build(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, uncharted, tool, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, uncharted, tool, work):
    gen = perfbench(tool, "gen", "--workload", args.workload, "--seed", str(args.seed),
                    "--dir", work, "--reps", str(1 if args.trace else SETUP_REPS))
    captures = [os.path.join(work, f"capture_{i}.pcap") for i in range(len(gen["capture_records"]))]
    inputs = [{"file": os.path.basename(p), "sha256": sha256(p), "packets": n}
              for p, n in zip(captures, gen["capture_records"])]
    taps = [os.path.join(work, f"tap_{i}.pcap") for i in range(len(gen.get("taps", [])))]
    for path, tap in zip(taps, gen.get("taps", [])):
        inputs.append({"file": os.path.basename(path), "sha256": sha256(path),
                       "packets": tap["records"], "dropped": tap["dropped"],
                       "swapped": tap["swapped"]})
    setups = [s + w for s, w in zip(gen["simulate_s"], gen["write_s"])]
    provenance = {"host": host(), "workload": args.workload, "seed": args.seed,
                  "trace": bool(args.trace), "inputs": inputs, "setup_reps_s": setups,
                  "report_reps_s": None, "peak_rss_reps_mb": None, "untraced_report_s": None}
    bench = Bench(uncharted, work, gen, captures, taps)
    if args.trace:
        result = traced(bench, tool, args.workload, provenance)
    elif taps:
        result = timed(bench.serve(args.seconds), provenance, setups)
    else:
        result = timed(bench.analyze(args.seconds), provenance, setups)
    print(json.dumps({"provenance": provenance}))
    return result


class Bench:
    """The generated inputs of one run and the two ways the program
    consumes them."""

    def __init__(self, uncharted, work, gen, captures, taps):
        self.uncharted, self.work, self.gen = uncharted, work, gen
        self.captures, self.taps = captures, taps
        self.packets = sum(gen["capture_records"])

    def analyze(self, seconds):
        times, rss, failed = time_analyze(self.uncharted, self.captures, self.packets,
                                          self.gen["flows"], seconds)
        return Timed(times, statistics.median(rss), rss, failed, len(times), 0.0, None)

    def serve(self, seconds):
        if self.taps:
            feeds = [[p] for p in self.taps]
            records = [t["records"] for t in self.gen["taps"]]
            tap_files = self.taps
        else:
            # A batch capture set reaches serve as one tap: the windows in
            # order, behind a single pcap header.
            feeds, records = [self.captures], [self.packets]
            tap_files = [os.path.join(self.work, "feed.pcap")]
            with open(tap_files[0], "wb") as out:
                for i, path in enumerate(self.captures):
                    with open(path, "rb") as f:
                        out.write(f.read() if i == 0 else f.read()[24:])
        references, follow_s = follow_references(self.uncharted, feeds, self.work)
        data = []
        for path in tap_files:
            with open(path, "rb") as f:
                data.append(f.read())
        times, rss, failed, fed, ready_s, backpressure = time_serve(
            self.uncharted, data, records, references, seconds, 1.5 * follow_s)
        return Timed(times, rss, [rss], failed, fed, ready_s, backpressure)


class Timed:
    """One end-to-end measurement: repetition times, peak RSS, checks."""

    def __init__(self, times, rss, rss_reps, failed, attempted, ready_s, backpressure):
        self.times, self.rss, self.rss_reps = times, rss, rss_reps
        self.failed, self.attempted = failed, attempted
        self.ready_s, self.backpressure = ready_s, backpressure
        self.report_s = statistics.median(times)


def timed(run_, provenance, setups):
    provenance["report_reps_s"] = run_.times
    provenance["peak_rss_reps_mb"] = run_.rss_reps
    metrics = {"report_s": metric(run_.report_s, "s"),
               "peak_rss_mb": metric(run_.rss, "MB"),
               "setup_s": metric(statistics.median(setups) + run_.ready_s, "s")}
    return {"correct": run_.failed == 0, "attempted": run_.attempted, "failed": run_.failed,
            "metrics": metrics}


def traced(bench, tool, workload, provenance):
    """Per-layer metrics: one untraced end-to-end measurement, one serve
    repetition for the serve layer's own numbers, then the traced calls."""
    served = bench.serve(0)
    untraced = served if bench.taps else bench.analyze(0)
    attempted = served.attempted + (0 if bench.taps else untraced.attempted) + 1
    failed = served.failed + (0 if bench.taps else untraced.failed)
    layers = perfbench(tool, "trace", "--workload", workload, "--dir", bench.work)
    expected = bench.gen["taps"][0]["records"] if bench.taps else bench.packets
    if layers.pop("check.packets") != expected or (
            not bench.taps and layers["check.flows"] != bench.gen["flows"]):
        failed += 1
        log("the traced run decoded a different capture than was generated")
    layers.pop("check.flows")
    layers.update({
        "scadasim.simulate_s": bench.gen["simulate_s"][0],
        "nettap.pcap_write_s": bench.gen["write_s"][0],
        "serve.ready_s": served.ready_s,
        "serve.backpressure_waits": served.backpressure,
        "trace.overhead_s": layers["trace.wall_s"] - untraced.report_s,
    })
    provenance["untraced_report_s"] = untraced.report_s
    metrics = {name: metric(value, unit_of(name)) for name, value in sorted(layers.items())}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if "pps" in name:
        return "1/s"
    if name.endswith("bytes_end"):
        return "bytes"
    if name.endswith(("ratio", "speedup", "scaling_5v1", "coverage")):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        log("run from the root of an uncharted checkout (crates/core/Cargo.toml not found)")
        return 2
    try:
        result = run(args, root)
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
