#!/usr/bin/env python3
"""The repository benchmark: build-to-serve runs of the `chl` pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ba-point --seed 1 --seconds 30 --trace 0

One run walks the path a user walks. It generates the workload's graph
with `chl gen` (on `ba-point` it renumbers the vertices from the seed),
builds it with `chl build` and the workload's flags, starts `chl serve`
and drives load from one client process, `perfbench-tool load`, which
checks every answer against Dijkstra. The server's exit statistics must
match the client's counts exactly. Half the builds are timed after the
load.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same path,
then `perfbench-tool layers`, which times each layer's public entry points
in process, and prints the per-layer metrics with the tracing overhead.
The last line of stdout is one JSON object. A wrong answer or a failed
reconciliation exits with code 1 and prints no result. See README.md.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL_MANIFEST = Path("perfbench") / "tool" / "Cargo.toml"

# Times the server is started until its first answer per run.
SETUPS = 9
# Share by which the sum of the traced build phases may fall outside the
# range of the untraced `chl build` wall times. One build varies by about
# 15% from the next, so the traced build is held to the builds' range, not
# to their median.
PHASE_SUM_TOLERANCE = 0.25
# p99 limit of the rate ladder, microseconds.
P99_LIMIT_US = 20000
# The measured window is split into this many segments, each on fresh
# connections: one connection's median latency depends on where the
# server's worker and the client land on the CPUs.
SEGMENTS = 5
# Warm-up on each segment's connections before it is measured, milliseconds.
WARM_MS = 200
# Generator seed of every workload's graph. The run's --seed draws the
# query pairs and, where the workload says so, renumbers the vertices: a
# fresh scale-free draw per seed would swing the label count by about 7%,
# a renumbering by about 0.1%. On the grid a renumbering moves the label
# count by up to 6% (its betweenness ranking samples sources by vertex
# id), so the grid keeps the generator's numbering.
BASE_SEED = 1

WORKLOADS = {
    # Single-pair frames at a fixed rate on one connection: the frame's time
    # is socket and server loop, the join is well under 1% of it.
    "ba-point": {
        "gen": ["ba", "--vertices", "20000", "--edges-per-vertex", "4"],
        "relabel": True,
        # Builds timed per run; the median wall time and peak RSS are
        # reported. The host's speed drifts by up to a fifth over tens of
        # seconds, and peak RSS varies by about 8% from build to build.
        "builds": 5,
        "build": [],
        "serve": [],
        "load": ["--mode", "open", "--batch", 1, "--rate", 4000],
        "ladder": [4000, 8000, 16000, 32000, 64000, 96000, 128000],
    },
    # 64-pair frames in a closed loop on two connections over a compressed,
    # mapped index: the stream-decoding join dominates each frame. A RELOAD
    # every two seconds puts validation and the snapshot swap under load.
    "grid-batch": {
        "gen": ["grid", "--rows", "150", "--cols", "150"],
        "relabel": False,
        # About half as long as a BA build: nine fit in the time of five.
        "builds": 9,
        "build": ["--compress"],
        "serve": ["--mmap"],
        "load": ["--mode", "closed", "--batch", 64, "--conns", 2, "--reload-ms", 2000],
        "ladder": [500, 1000, 2000, 3000, 4000, 5000, 6000, 8000],
    },
}

SERVED = re.compile(
    r"served (\d+) connections \((\d+) http\), (\d+) frames, (\d+) queries in "
    r"(\d+) batches \(max (\d+) frames coalesced\), (\d+) error frames, (\d+) reloads"
)
BUILT = re.compile(r"built \S+ labeling in \S+: (\d+) labels")

OP_QUERY, OP_SHUTDOWN, OP_DISTANCES, OP_OK = 0x01, 0x04, 0x81, 0x83

LIVE = []  # every process started and not yet reaped


class BenchError(Exception):
    """A step that could not run."""


class Mismatch(Exception):
    """A wrong answer or a failed reconciliation."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- building ------------------------------------------------------------------


def cargo_build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository")
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (["-p", "chl-cli"], ["--manifest-path", str(TOOL_MANIFEST)]):
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "chl", target / "release" / "perfbench-tool"


# --- processes -----------------------------------------------------------------


def start(cmd, **kw):
    proc = subprocess.Popen([str(c) for c in cmd], **kw)
    LIVE.append(proc)
    return proc


def stop_all():
    for proc in list(LIVE):
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        LIVE.remove(proc)


def lowest_priority():
    """Runs in the open-loop tool's process before exec. Its threads
    busy-poll; at nice 19 they keep the CPUs out of idle, so the server's
    wake-ups do not wait on the hypervisor, and still yield to the server
    whenever it has work."""
    os.nice(19)


def run_tool(cmd, timeout, nice=False):
    """Runs a `perfbench-tool` command; returns its JSON line."""
    proc = start(cmd, stdout=subprocess.PIPE, text=True,
                 preexec_fn=lowest_priority if nice else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench-tool {cmd[1]} did not finish within {timeout}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        LIVE.remove(proc)
    if proc.returncode != 0:
        raise BenchError(f"perfbench-tool {cmd[1]} failed")
    return json.loads(out.strip().splitlines()[-1])


def timed_build(chl, args, log_path):
    """Runs one `chl build`; returns (wall seconds, peak RSS MB, stdout)."""
    with open(log_path, "w+") as out:
        t0 = time.perf_counter()
        proc = start([chl, "build"] + args, stdout=out, stderr=subprocess.STDOUT)
        # wait4 reaps the build and returns its own resource usage, whose
        # ru_maxrss (KiB on Linux) is the build's peak resident memory.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        LIVE.remove(proc)
        out.seek(0)
        text = out.read()
    if proc.returncode != 0:
        raise BenchError(f"chl build failed:\n{text}")
    return wall, usage.ru_maxrss / 1024.0, text


def read_line_until(proc, pattern, timeout):
    """Reads `proc`'s stdout until a line matches `pattern`."""
    deadline = time.monotonic() + timeout
    buf = b""
    fd = proc.stdout.fileno()
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            m = re.search(pattern, line.decode(errors="replace"))
            if m:
                return m
        ready, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0))
        if not ready:
            raise BenchError(f"{proc.args[:2]} never printed /{pattern}/")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise BenchError(f"{proc.args[:2]} exited before printing /{pattern}/")
        buf += chunk


# --- the protocol, as much as the orchestrator speaks --------------------------


def exchange(addr, payload):
    """One request frame on a fresh connection; returns the response."""
    with socket.create_connection(addr, timeout=10) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(b"CHL1" + struct.pack("<I", len(payload)) + payload)
        head = recv_exact(s, 4)
        return recv_exact(s, struct.unpack("<I", head)[0])


def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise BenchError("server closed the connection mid-frame")
        buf += chunk
    return buf


# --- the server ----------------------------------------------------------------


class Server:
    """One `chl serve` on an ephemeral port."""

    def __init__(self, chl, index, flags):
        self.proc = start([chl, "serve", index, "--addr", "127.0.0.1:0"] + flags,
                          stdout=subprocess.PIPE, stderr=sys.stderr)
        listening = read_line_until(self.proc, r"listening on (\S+)", 60).group(1)
        host, port = listening.rsplit(":", 1)
        self.addr = (host, int(port))

    def probe(self):
        """Asks dist(0, 0), which must be 0."""
        resp = exchange(self.addr, struct.pack("<BIII", OP_QUERY, 1, 0, 0))
        if resp != struct.pack("<BIQ", OP_DISTANCES, 1, 0):
            raise Mismatch(f"probe dist(0, 0) answered {resp.hex()}")

    def cpu_s(self):
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("the server reports no VmRSS")

    def stop(self, frames, queries, connections):
        """Shuts the server down and checks that its exit line counts
        exactly the connections, frames and queries the clients sent, with
        no error frames. `frames` and `connections` exclude the SHUTDOWN.
        Returns the exit line's numbers."""
        if exchange(self.addr, bytes([OP_SHUTDOWN]))[:1] != bytes([OP_OK]):
            raise BenchError("the server refused SHUTDOWN")
        stats = [int(x) for x in read_line_until(self.proc, SERVED.pattern, 30).groups()]
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise BenchError("the server did not exit after SHUTDOWN")
        LIVE.remove(self.proc)
        conns, _http, got_frames, got_queries, _batches, _max, errors, _reloads = stats
        want = (connections + 1, frames + 1, queries, 0)
        got = (conns, got_frames, got_queries, errors)
        if got != want:
            raise Mismatch("server exit counts (connections, frames, queries, error frames) "
                           f"{got} != client counts {want}")
        return stats


def serve_setup(chl, index, flags):
    """Starts the server SETUPS times, timing each start until its first
    answer; keeps the last one running. Returns (median seconds, server)."""
    times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        server = Server(chl, index, flags)
        server.probe()
        times.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            server.stop(frames=1, queries=1, connections=1)
    return statistics.median(times), server


def steal_ticks():
    """CPU time the hypervisor gave to other guests so far, in ticks."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def steal_share(ticks0, seconds):
    """Share of the CPUs the hypervisor gave to other guests since `ticks0`
    over `seconds`: a run taken while it is high reads slow."""
    return (steal_ticks() - ticks0) / (os.sysconf("SC_CLK_TCK") * os.cpu_count() * seconds)


# --- one run -------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    chl, tool = cargo_build()
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(chl, tool, work, workload, WORKLOADS[workload], seed, seconds, trace)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)


def measure(chl, tool, work, workload, wl, seed, seconds, trace):
    base, graph, index = work / "base.bin", work / "g.bin", work / "idx.chl"
    subprocess.run([str(chl), "gen"] + wl["gen"] + ["--seed", str(BASE_SEED), "--out", str(base)],
                   check=True, stdout=subprocess.DEVNULL)
    if wl["relabel"]:
        run_tool([tool, "relabel", "--in", base, "--out", graph, "--seed", seed], timeout=60)
    else:
        base.rename(graph)

    walls, rss, labels = [], [], set()

    def build(count):
        """Times `count` runs of `chl build` into `walls`, `rss`, `labels`."""
        steal0, first = steal_ticks(), len(walls)
        for _ in range(count):
            wall, peak, text = timed_build(chl, [graph, "--out", index] + wl["build"],
                                           work / "build.log")
            m = BUILT.search(text)
            if not m:
                raise BenchError(f"no label count in chl build output:\n{text}")
            walls.append(wall)
            rss.append(peak)
            labels.add(int(m.group(1)))
        log(f"{workload}: chl build " + ", ".join(
            f"{w:.2f}s/{r:.0f}MB" for w, r in zip(walls[first:], rss[first:]))
            + f"; hypervisor steal {steal_share(steal0, sum(walls[first:])):.1%} of the CPUs")

    # Half the builds run before the load and half after it, so that their
    # median spans the whole run: the host's speed drifts over tens of
    # seconds, and builds taken back to back all drift together.
    build((wl["builds"] + 1) // 2)

    setup_s, server = serve_setup(chl, index, wl["serve"])
    addr = f"{server.addr[0]}:{server.addr[1]}"
    common = [tool, "load", "--graph", graph, "--addr", addr, "--seed", seed,
              "--warm-ms", WARM_MS]
    open_loop = "open" in wl["load"]
    batch = wl["load"][wl["load"].index("--batch") + 1]
    load = common + wl["load"] + ["--measure-ms", int(seconds * 1000), "--segments", SEGMENTS]
    if trace:
        load += ["--spans", ROOT / ".bench_work" / f"spans-{workload}-seed{seed}.load.jsonl"]
    steal0, cpu0 = steal_ticks(), server.cpu_s()
    got = run_tool(load, timeout=seconds + 90, nice=open_loop)
    serve_cpu_us = (server.cpu_s() - cpu0) * 1e6 / got["frames"]
    steal = steal_share(steal0, seconds)
    tools = [got]
    if trace:
        tools.append(run_tool(common + [
            "--mode", "open", "--batch", batch, "--measure-ms", 1000, "--segments", 1,
            "--rate", wl["ladder"][0], "--ladder", ",".join(map(str, wl["ladder"])),
            "--rung-ms", 1000, "--p99-limit-us", P99_LIMIT_US], timeout=120, nice=True))
    serve_rss = server.rss_mb()
    attempted = sum(t["attempted"] for t in tools) + SETUPS
    failed = sum(t["failed"] for t in tools)
    log(f"{workload}: {attempted} frames attempted, {failed} failed "
        f"(failed_frac {failed / attempted:.6f}); p50 {got['p50_us']:.1f}us, "
        f"p99 {got['p99_us']:.1f}us over {got['samples']} samples; "
        f"generator late by {got['late_max_ms']:.2f}ms at most; "
        f"hypervisor steal {steal:.1%} of the CPUs")
    # The setup probe adds one frame and one query on its own connection.
    stats = server.stop(frames=sum(t["frames"] for t in tools) + 1,
                        queries=sum(t["queries"] for t in tools) + 1,
                        connections=sum(t["connections"] for t in tools) + 1)
    if failed:
        raise Mismatch(f"{failed} of {attempted} frames failed: {got}")

    build(wl["builds"] // 2)
    if len(labels) != 1:
        raise Mismatch(f"builds of one graph disagree on the label count: {sorted(labels)}")
    build_s = statistics.median(walls)

    if not trace:
        return attempted, failed, {
            "setup_s": setup_s,
            "build_s": build_s,
            "build_peak_rss_mb": statistics.median(rss),
            "index_bytes": index.stat().st_size,
            "label_entries": labels.pop(),
            "serve_rss_mb": serve_rss,
            "serve_cpu_us": serve_cpu_us,
            "throughput_qps": got["throughput_qps"],
        }

    lay = run_tool([tool, "layers", "--graph", graph, "--dir", work, "--seed", seed,
                    "--batch", batch,
                    "--compress", int("--compress" in wl["build"]),
                    "--mmap", int("--mmap" in wl["serve"]),
                    "--spans", ROOT / ".bench_work" / f"spans-{workload}-seed{seed}.layers.jsonl"],
                   timeout=150)
    phase_sum = sum(lay[k] for k in (
        "graph.read_s", "ranking.resolve_s", "core.build_s", "flat.from_index_s",
        "persist.encode_s", "persist.write_s"))
    low, high = min(walls) * (1 - PHASE_SUM_TOLERANCE), max(walls) * (1 + PHASE_SUM_TOLERANCE)
    log(f"{workload}: traced build phases sum to {phase_sum:.3f}s; "
        f"chl build took {min(walls):.3f}s to {max(walls):.3f}s")
    if not low <= phase_sum <= high:
        raise Mismatch(f"traced build phases ({phase_sum:.3f}s) do not add up to chl build: "
                       f"outside {low:.3f}s to {high:.3f}s")
    if "p999_us" not in got:
        log("too few samples for p999 (ten must lie beyond it); reporting p99")
    _conns, _http, frames, _queries, batches, max_coalesced, _errors, _reloads = stats
    metrics = dict(lay)
    metrics.update({
        "server.frames_per_batch": frames / max(batches, 1),
        "server.max_coalesced": max_coalesced,
        "loadgen.late_max_ms": got["late_max_ms"],
        "loadgen.late_p99_ms": got["late_p99_ms"],
        "p50_us": got["p50_us"],
        "p99_us": got["p99_us"],
        "p999_us": got.get("p999_us", got["p99_us"]),
        "load.samples": got["samples"],
        "max_rate_rps": tools[1]["max_rate_rps"],
        "trace.phase_sum_s": phase_sum,
        "trace.overhead_build_s": lay["trace.build_s"] - build_s,
        "trace.overhead_p50_us": got["traced.p50_us"] - got["untraced.p50_us"],
    })
    return attempted, failed, metrics


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A terminated benchmark still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        attempted, failed, metrics = run(args.workload, args.seed, args.seconds, args.trace)
    except Mismatch as e:
        log(f"FAILED CHECK: {e}")
        sys.exit(1)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)
    units = declared_metrics(args.trace)
    missing = set(units) - set(metrics)
    if missing:
        log(f"error: no value measured for {sorted(missing)}")
        sys.exit(1)
    for name, unit in units.items():
        log(f"{name:>28} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
