"""The serve-mix workload: a seeded catalogue of small study jobs driven
through a fresh `capsim serve` over one client connection, closed loop,
with a fixed number of jobs in flight.  The server runs on a CPU of its
own, with one worker."""

import json
import os
import random
import socket
import subprocess
import time

from harness import OUT_DIR, child_env, fail

# capsim serve --jobs.  One worker on one CPU: with two, whether the
# guest scheduler runs them on one CPU or on two changes a round's wall
# by about 20%, from round to round, in a way no calibration follows.
SERVER_JOBS = 1
IN_FLIGHT = 2          # closed loop: jobs outstanding at any time
MAX_APPS = 4           # apps per sweep job: sizes cycle through 1..MAX_APPS
# Round r of a run with seed s submits the catalogue of seed
# (s + r) % CATALOGUES, so a run's latencies pool many job sequences,
# and every catalogue a run can submit has committed digests.
CATALOGUES = 64

# The paper's suite, in figure order; go is not in the cache study.
IQ_APPS = ("go m88ksim gcc compress li ijpeg perl vortex airshed stereo "
           "radar appcg tomcatv swim su2cor hydro2d mgrid applu turb3d "
           "apsi fpppp wave5").split()
CACHE_APPS = IQ_APPS[1:]

BOUNDARIES = 8  # boundaries / queue sizes a sweep job scores per app

# kind label -> (job fields, apps it draws from, simulated ops per cell,
# most apps per job).  The interval controller runs one app per job.
KINDS = {
    "cache-sweep": ({"kind": "cache-sweep", "refs": 150000},
                    CACHE_APPS, 150000 * BOUNDARIES, MAX_APPS),
    "iq-sweep": ({"kind": "iq-sweep", "instrs": 60000},
                 IQ_APPS, 60000 * BOUNDARIES, MAX_APPS),
    "interval-run": ({"kind": "interval-run", "instrs": 120000,
                      "trigger": "hybrid"},
                     IQ_APPS, 120000, 1),
    "sampled": ({"kind": "cache-sweep", "sampled": True, "refs": 150000},
                CACHE_APPS, 150000 * BOUNDARIES, MAX_APPS),
}
PARAMS = {
    "server_jobs": SERVER_JOBS, "in_flight": IN_FLIGHT,
    "max_apps": MAX_APPS, "kinds": {k: v[0] for k, v in KINDS.items()},
    "catalogues": CATALOGUES,
}


def kind_jobs(rng, kind):
    """App lists of one kind's jobs.  Every app of the kind's pool is
    requested cold exactly once, and the kind makes as many requests
    again for apps an earlier job already computed (cache hits), so half
    of all cells are hits and the simulated work is the same for every
    seed.  The seed picks the order, the grouping into jobs and which
    earlier cells the hits reuse."""
    _, pool, _, most = KINDS[kind]
    total = 2 * len(pool)
    if most == 1:
        sizes = [1] * total
    else:
        cycle = list(range(1, most + 1))
        sizes = cycle * (total // sum(cycle))
        if total % sum(cycle):
            sizes.append(total % sum(cycle))
    rng.shuffle(sizes)
    fresh = list(pool)
    rng.shuffle(fresh)
    hits_left = len(pool)
    served = []
    jobs = []
    for size in sizes:
        apps = []
        for _ in range(size):
            old = [a for a in served if a not in apps]
            hit = old and hits_left and (
                not fresh or rng.random() < hits_left / (hits_left + len(fresh)))
            if hit:
                hits_left -= 1
                apps.append(rng.choice(old))
            else:
                apps.append(fresh.pop())
        served += [a for a in apps if a not in served]
        jobs.append(apps)
    return jobs


def round_seed(seed, round_no):
    """Catalogue seed of round @p round_no of a run with @p seed."""
    return (seed + round_no) % CATALOGUES


def catalogue(seed):
    """The seeded job sequence of one round: [(kind label, job object)].
    Each kind's jobs keep their order (a hit follows the job that
    computed its cell); the kinds interleave at random."""
    rng = random.Random(seed)
    queues = {kind: kind_jobs(rng, kind) for kind in sorted(KINDS)}
    jobs = []
    while any(queues.values()):
        kinds = [k for k in sorted(queues) for _ in queues[k]]
        kind = rng.choice(kinds)
        job = dict(KINDS[kind][0])
        job["apps"] = queues[kind].pop(0)
        jobs.append((kind, job))
    return jobs


class Client:
    """One JSONL connection to the server."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def vm_hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def placement():
    """(server CPU, client CPUs): the server gets the last CPU to itself,
    so the driving client never takes its time; with a single CPU, both
    share it."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1], (cpus[:-1] or cpus)


def run_round(capsim, jobs, server_cpu=None, timeout=120.0):
    """Spawn a fresh server (pinned to @p server_cpu, if given), drive
    @p jobs through it closed loop, shut it down.  Returns the round's
    measurements and per-job records."""
    os.makedirs(OUT_DIR, exist_ok=True)
    sock_name = "serve-%d.sock" % os.getpid()
    sock_path = os.path.join(OUT_DIR, sock_name)
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    # Relative socket path (cwd = OUT_DIR) keeps sockaddr_un short.
    pin = None
    if server_cpu is not None:
        pin = lambda: os.sched_setaffinity(0, {server_cpu})  # noqa: E731
    spawn = time.perf_counter()
    server = subprocess.Popen(
        [capsim, "serve", "--socket", sock_name,
         "--jobs", str(SERVER_JOBS)],
        cwd=OUT_DIR, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=pin)
    client = None
    try:
        deadline = spawn + timeout
        while client is None:
            if server.poll() is not None:
                fail("capsim serve exited early (code %d)" % server.returncode)
            if time.perf_counter() > deadline:
                fail("capsim serve did not come up")
            try:
                client = Client(sock_path, timeout)
            except OSError:
                time.sleep(0.0002)
        client.send({"op": "stats"})
        while client.recv().get("event") != "stats":
            pass
        setup_s = time.perf_counter() - spawn

        records = drive(client, jobs)
        rss_kb = vm_hwm_kb(server.pid)
        client.send({"op": "shutdown"})
        while client.recv().get("event") != "bye":
            pass
        server.wait(timeout=timeout)
    finally:
        if client is not None:
            client.close()
        if server.poll() is None:
            server.kill()
            server.wait()
    first = min(r["submit"] for r in records)
    last = max(r["result"] for r in records)
    return {"setup_s": setup_s, "rss_kb": rss_kb, "wall_s": last - first,
            "jobs": records}


def drive(client, jobs):
    """Closed loop with IN_FLIGHT jobs outstanding; one record per job
    with its protocol timestamps (perf_counter seconds)."""
    records = [{"kind": kind, "submit": None, "ack": None, "cells": [],
                "result": None, "status": None, "output": None,
                "hits": 0, "misses": 0} for kind, _ in jobs]
    by_id = {}
    unacked = []
    next_job = 0
    outstanding = 0
    done = 0
    while done < len(jobs):
        while outstanding < IN_FLIGHT and next_job < len(jobs):
            records[next_job]["submit"] = time.perf_counter()
            client.send({"op": "submit", "job": jobs[next_job][1]})
            unacked.append(next_job)
            next_job += 1
            outstanding += 1
        event = client.recv()
        now = time.perf_counter()
        kind = event.get("event")
        if kind in ("ack", "overloaded", "error") and unacked:
            rec = records[unacked.pop(0)]
            if kind == "ack":
                rec["ack"] = now
                by_id[event["id"]] = rec
                continue
            # Shed or rejected: terminal without a result.
            rec["status"] = kind
            rec["result"] = now
        elif kind == "cell":
            by_id[event["id"]]["cells"].append((now, bool(event["cached"])))
            continue
        elif kind == "result":
            rec = by_id[event["id"]]
            rec["result"] = now
            rec["status"] = event.get("status")
            rec["output"] = event.get("output")
            rec["hits"] = event.get("cache_hits", 0)
            rec["misses"] = event.get("cache_misses", 0)
        else:
            continue
        outstanding -= 1
        done += 1
    return records


def oracle_outputs(capbench, jobs):
    """Each job's output computed cold by `capbench serve-oracle`."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "serve-oracle-%d.jsonl" % os.getpid())
    with open(path, "w") as f:
        for _, job in jobs:
            f.write(json.dumps(job) + "\n")
    proc = subprocess.run([capbench, "serve-oracle", "--jobs-file", path],
                          capture_output=True, text=True, env=child_env(),
                          timeout=170)
    os.unlink(path)
    if proc.returncode != 0:
        fail("serve-oracle failed: " + proc.stderr[-2000:])
    return [o["output"] if o["ok"] else None for o in json.loads(proc.stdout)]
