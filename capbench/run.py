#!/usr/bin/env python3
"""CAPsim host-time benchmark.

    python3 capbench/run.py --workload cache-sweep|iq-sweep|cache-dram|serve-mix
                            --seed N --seconds S --trace 0|1

Builds the simulator from this checkout, runs one workload for about
--seconds, checks every result against the committed reference digests
(or, for a seed without them, against an independent computation),
prints each metric with its unit, appends a run record to
capbench/history.jsonl, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 replays the
workload with a span around every layer call and reports the per-layer
metrics, writing the spans to .bench_out/<workload>-spans.json.
See capbench/README.md for every metric's definition.

    python3 capbench/run.py --record-references 0-31
re-records the reference digests (after a deliberate model change;
serve-mix always records all of its catalogues).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import harness as H
import serve_mix

# Fresh benchmark processes per sweep run; each pays set-up once.
SWEEP_ROUNDS = 5
# Fewest fresh servers per serve-mix run.
MIN_SERVE_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "sim_ops_per_s": "ops/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "trace.gen.self_s": "s",
    "trace.gen.ns_per_ref": "ns",
    "trace.refs": "count",
    "cache.stack.self_s": "s",
    "cache.stack.ns_per_ref": "ns",
    "cache.hier.self_s": "s",
    "cache.hier.ns_per_ref": "ns",
    "cache.miss_frac": "ratio",
    "mem.dram.self_s": "s",
    "mem.dram.ns_per_miss": "ns",
    "mem.row_hit_frac": "ratio",
    "mem.mshr_merge_frac": "ratio",
    "mem.full_stalls": "count",
    "ooo.gen.self_s": "s",
    "ooo.gen.ns_per_op": "ns",
    "ooo.lane.self_s": "s",
    "ooo.lane.ns_per_instr_lane": "ns",
    "ooo.unstalled_lane_frac": "ratio",
    "core.study.residual_s": "s",
    "serve.queue_wait_ms_p50": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.render_ms_p50": "ms",
    "serve.cell_hit_frac": "ratio",
    "serve.shed": "count",
    "serve.job_ms_p50.cache-sweep": "ms",
    "serve.job_ms_p50.iq-sweep": "ms",
    "serve.job_ms_p50.interval-run": "ms",
    "serve.job_ms_p50.sampled": "ms",
    "obs.span_disarmed_ns": "ns",
    "obs.trace_overhead_pct": "%",
}

# Layers whose self time the traced replay attributes (core.study and
# core.cell are the replay's own bookkeeping).
SIM_LAYERS = ("trace.gen", "cache.stack", "cache.hier", "mem.dram",
              "ooo.gen", "ooo.lane")


class Tally:
    """Ops checked against the expected digests, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, got, expected):
        self.attempted += len(expected)
        self.failed += H.count_mismatches(got, expected)

    def ok_frac(self):
        return 1.0 - H.ratio(self.failed, self.attempted)


def spans_path(workload):
    os.makedirs(H.OUT_DIR, exist_ok=True)
    return os.path.join(H.OUT_DIR, workload + "-spans.json")


def reference_rows(workload, seed):
    ref = H.load_reference(workload)
    return ref, (ref["seeds"].get(str(seed)) if ref else None)


# --------------------------------------------------------------- sweeps

def sweep_round(bdir, workload, seed, budget, extra=()):
    cmd = [os.path.join(bdir, "capbench"), "sweep", "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget)] + list(extra)
    spawn = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn)],
                          capture_output=True, text=True, env=H.child_env(),
                          timeout=170)
    if proc.returncode != 0:
        H.fail("capbench sweep failed (exit %d): %s"
               % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def app_row_seconds(rep, params):
    """Host seconds of each application's row: a sweep's job, at the
    reference speed.  The runner's cells are app-major; a per-config
    study has `configs` cells per row, a one-pass study one."""
    cells = rep["cell_s"]
    per = len(cells) // params["apps"]
    scale = H.speed_scale(rep["cal_s"])
    return [sum(cells[i:i + per]) * scale
            for i in range(0, len(cells), per)]


def scaled(rep, seconds):
    """@p seconds measured in @p rep, at the reference speed."""
    return seconds * H.speed_scale(rep["cal_s"])


def sweep_params(out):
    return {k: out[k] for k in ("apps", "configs", "length", "jobs")}


def run_sweep(bdir, workload, seed, seconds, trace, expected=None):
    """One sweep run: SWEEP_ROUNDS fresh processes splitting @p seconds.
    @p expected overrides the reference rows (harness self-test)."""
    ref, ref_rows = reference_rows(workload, seed)
    if expected is None:
        expected = ref_rows
    per = seconds / SWEEP_ROUNDS
    rounds = []
    for r in range(SWEEP_ROUNDS):
        extra = ["--traced"] if trace else []
        if trace and r == 0:
            extra += ["--spans", spans_path(workload)]
        if expected is None and r == 0:
            extra.append("--oracle")
        rounds.append(sweep_round(bdir, workload, seed, per, extra))
    params = sweep_params(rounds[0])
    if ref is not None and ref["params"] != params:
        H.stale_reference(workload, ref["params"], params)
    if expected is None:
        expected = rounds[0]["oracle_rows"]

    tally = Tally()
    untraced = [rep for rd in rounds for rep in rd["untraced"]]
    traced = [rep for rd in rounds for rep in rd["traced"]]
    for rep in untraced + traced:
        tally.check(rep["rows"], expected)

    wall = H.median([scaled(rep, rep["wall_s"]) for rep in untraced])
    if not trace:
        rows = [t for rep in untraced for t in app_row_seconds(rep, params)]
        ops = params["apps"] * params["configs"] * params["length"]
        # The cells' own time excludes the study's orchestration, which
        # the study wall (and so jobs_per_s) includes.
        cells = H.median([scaled(rep, sum(rep["cell_s"]))
                          for rep in untraced])
        metrics = {
            # Each process's set-up, at the speed of the calibration that
            # follows it.
            "setup_s": H.median([
                rd["setup_s"] * H.speed_scale(rd["untraced"][0]["cal_s"][:1])
                for rd in rounds]),
            "sim_ops_per_s": ops / cells,
            "jobs_per_s": params["apps"] / wall,
            "job_p50_ms": H.percentile(rows, 0.5) * 1e3,
            "job_p90_ms": H.percentile(rows, 0.9) * 1e3,
            "peak_rss_mb": H.median([rd["vmhwm_kb"] for rd in rounds]) / 1024,
            "ok_frac": tally.ok_frac(),
        }
        samples = {"studies": len(untraced), "jobs": len(rows),
                   "rounds": len(rounds), "study_wall_s": wall,
                   "raw_study_wall_s": H.median([rep["wall_s"]
                                                 for rep in untraced]),
                   "raw_study_cpu_s": H.median([rep["cpu_s"]
                                                for rep in untraced]),
                   "cal_s": H.median([c for rep in untraced
                                      for c in rep["cal_s"]])}
        return metrics, tally, params, samples

    self_s = {layer: H.median([scaled(rep, rep["self_s"][layer])
                               for rep in traced])
              for layer in SIM_LAYERS}
    layer_sum = H.median([scaled(rep, sum(rep["self_s"][l]
                                          for l in SIM_LAYERS))
                          for rep in traced])
    c = traced[0]["counts"]
    metrics = zero_layer_metrics()
    metrics.update({
        "trace.gen.self_s": self_s["trace.gen"],
        "trace.gen.ns_per_ref": H.ratio(self_s["trace.gen"], c["refs"]) * 1e9,
        "trace.refs": c["refs"],
        "cache.stack.self_s": self_s["cache.stack"],
        "cache.stack.ns_per_ref":
            H.ratio(self_s["cache.stack"], c["stack_refs"]) * 1e9,
        "cache.hier.self_s": self_s["cache.hier"],
        "cache.hier.ns_per_ref":
            H.ratio(self_s["cache.hier"], c["hier_refs"]) * 1e9,
        "cache.miss_frac": H.ratio(c["misses"], c["hier_refs"]),
        "mem.dram.self_s": self_s["mem.dram"],
        "mem.dram.ns_per_miss":
            H.ratio(self_s["mem.dram"], c["dram_misses"]) * 1e9,
        "mem.row_hit_frac": H.ratio(c["row_hits"], c["dram_accesses"]),
        "mem.mshr_merge_frac": H.ratio(c["mshr_merges"], c["dram_misses"]),
        "mem.full_stalls": c["full_stalls"],
        "ooo.gen.self_s": self_s["ooo.gen"],
        "ooo.gen.ns_per_op": H.ratio(self_s["ooo.gen"], c["ops"]) * 1e9,
        "ooo.lane.self_s": self_s["ooo.lane"],
        "ooo.lane.ns_per_instr_lane":
            H.ratio(self_s["ooo.lane"], c["instr_lanes"]) * 1e9,
        "ooo.unstalled_lane_frac": H.ratio(c["unstalled_lanes"], c["lanes"]),
        "core.study.residual_s": wall - layer_sum,
        "obs.span_disarmed_ns":
            H.median([rd["span_disarmed_ns"] for rd in rounds]),
        "obs.trace_overhead_pct":
            (H.median([scaled(rep, rep["wall_s"]) for rep in traced])
             / wall - 1) * 100,
    })
    samples = {"studies": len(untraced), "replays": len(traced),
               "rounds": len(rounds)}
    return metrics, tally, params, samples


def zero_layer_metrics():
    """Every per-layer metric at 0: a layer the workload bypasses does
    no work and takes no time."""
    return {name: 0 for name in PER_LAYER}


# ------------------------------------------------------------ serve-mix

def run_serve(bdir, seed, seconds, trace, expected=None):
    """One serve-mix run: fresh-server rounds, round r submitting the
    catalogue of serve_mix.round_seed(seed, r), until @p seconds are
    spent (at least MIN_SERVE_ROUNDS).  A traced run drives the same
    rounds: its spans come from the protocol events every round records.
    @p expected maps catalogue seeds to digests that override the
    reference (harness self-test)."""
    capsim = os.path.join(bdir, "capsim")
    ref = H.load_reference("serve-mix")
    if ref is not None and ref["params"] != serve_mix.PARAMS:
        H.stale_reference("serve-mix", ref["params"], serve_mix.PARAMS)
    digests = dict(ref["seeds"]) if ref else {}
    digests.update({str(k): v for k, v in (expected or {}).items()})

    # The server runs on a CPU of its own, and each round sits between
    # two calibrations on it.
    server_cpu, client_cpus = serve_mix.placement()
    os.sched_setaffinity(0, client_cpus)
    rounds = []
    with Calibrator(bdir, server_cpu) as calibrate:
        cal = calibrate()
        start = time.perf_counter()
        while True:
            begin = time.perf_counter()
            cat_seed = serve_mix.round_seed(seed, len(rounds))
            rounds.append(serve_mix.run_round(
                capsim, serve_mix.catalogue(cat_seed), server_cpu))
            after = calibrate()
            rounds[-1]["cal_s"] = [cal, after]
            rounds[-1]["catalogue"] = cat_seed
            cal = after
            now = time.perf_counter()
            # Stop before a round the last one says would overrun.
            if (len(rounds) >= MIN_SERVE_ROUNDS
                    and now + (now - begin) > start + seconds):
                break

    tally = Tally()
    for rd in rounds:
        key = str(rd["catalogue"])
        if key not in digests:
            digests[key] = [
                H.digest_bytes(o) if o is not None else None
                for o in serve_mix.oracle_outputs(
                    os.path.join(bdir, "capbench"),
                    serve_mix.catalogue(rd["catalogue"]))]
        got = [H.digest_bytes(j["output"]) if j["status"] == "ok" else None
               for j in rd["jobs"]]
        tally.check(got, digests[key])

    # Protocol timestamps at the reference speed: each round's own
    # calibration scales its times since the round's first submit.
    for rd in rounds:
        scale = H.speed_scale(rd["cal_s"])
        epoch = min(j["submit"] for j in rd["jobs"])
        for j in rd["jobs"]:
            for key in ("submit", "ack", "result"):
                if j[key] is not None:
                    j[key] = (j[key] - epoch) * scale
            j["cells"] = [((t - epoch) * scale, hit) for t, hit in j["cells"]]
        rd["raw_wall_s"] = rd["wall_s"]
        rd["wall_s"] *= scale

    records = [j for rd in rounds for j in rd["jobs"]]
    latency_ms = [(j["result"] - j["submit"]) * 1e3 for j in records]
    if not trace:
        metrics = {
            # Each server's set-up, at the speed of the calibration just
            # before it.
            "setup_s": H.median([rd["setup_s"] * H.speed_scale(rd["cal_s"][:1])
                                 for rd in rounds]),
            "sim_ops_per_s": H.median([serve_exec_rate(rd["jobs"])
                                       for rd in rounds]),
            "jobs_per_s": H.median([len(rd["jobs"]) / rd["wall_s"]
                                    for rd in rounds]),
            "job_p50_ms": H.percentile(latency_ms, 0.5),
            "job_p90_ms": H.percentile(latency_ms, 0.9),
            "peak_rss_mb": H.median([rd["rss_kb"] for rd in rounds]) / 1024,
            "ok_frac": tally.ok_frac(),
        }
        samples = {"jobs": len(records), "rounds": len(rounds),
                   "server_cpu": server_cpu,
                   "raw_wall_s": H.median([rd["raw_wall_s"]
                                           for rd in rounds]),
                   "cal_s": H.median([c for rd in rounds
                                      for c in rd["cal_s"]])}
        return metrics, tally, serve_mix.PARAMS, samples

    with_cells = [j for j in records if j["cells"] and j["ack"] is not None]
    hits = sum(j["hits"] for j in records)
    cells = hits + sum(j["misses"] for j in records)
    metrics = zero_layer_metrics()
    metrics.update({
        "serve.queue_wait_ms_p50": H.percentile(
            [(j["cells"][0][0] - j["ack"]) * 1e3 for j in with_cells], 0.5),
        # A one-cell job has no span between cells to observe.
        "serve.exec_ms_p50": H.percentile(
            [(j["cells"][-1][0] - j["cells"][0][0]) * 1e3
             for j in with_cells if len(j["cells"]) > 1], 0.5),
        "serve.render_ms_p50": H.percentile(
            [(j["result"] - j["cells"][-1][0]) * 1e3 for j in with_cells],
            0.5),
        "serve.cell_hit_frac": H.ratio(hits, cells),
        "serve.shed": sum(1 for j in records if j["status"] == "overloaded"),
        "obs.span_disarmed_ns": span_cost(bdir),
        # The serve spans cost the program nothing: every round records
        # the same protocol events, traced or not.
        "obs.trace_overhead_pct": 0,
    })
    for kind in serve_mix.KINDS:
        metrics["serve.job_ms_p50." + kind] = H.percentile(
            [(j["result"] - j["submit"]) * 1e3
             for j in records if j["kind"] == kind], 0.5)
    write_serve_spans(rounds[0], serve_mix.catalogue(rounds[0]["catalogue"]))
    samples = {"jobs": len(records), "rounds": len(rounds)}
    return metrics, tally, serve_mix.PARAMS, samples


def serve_exec_rate(records):
    """Simulated ops per second of the server's execute path: the
    reference-boundaries of the cold cells of `cache-sweep` jobs over
    the time the executor spent on those jobs.  The single executor
    runs jobs in submission order, so a job starts when it is acked or
    when the job before it ends, whichever is later; all-hit jobs and
    the other kinds (whose ops are not reference-boundaries, or, for
    sampled cells, not all simulated) are left out."""
    ops_per_cell = serve_mix.KINDS["cache-sweep"][2]
    ops = busy = 0.0
    prev_end = None
    for j in records:
        if j["ack"] is None:  # shed or rejected: never ran
            continue
        begin = j["ack"] if prev_end is None else max(j["ack"], prev_end)
        prev_end = j["result"]
        if j["kind"] == "cache-sweep" and j["misses"]:
            ops += j["misses"] * ops_per_cell
            busy += j["result"] - begin
    return H.ratio(ops, busy)


class Calibrator:
    """A `capbench calibrator` on @p cpu for the length of a `with`
    block; each call returns the median of three calibration kernel
    runs there, in seconds."""

    def __init__(self, bdir, cpu):
        self.proc = subprocess.Popen(
            [os.path.join(bdir, "capbench"), "calibrator", "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=H.child_env())

    def __enter__(self):
        return self

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            H.fail("capbench calibrator exited (code %s)" % self.proc.poll())
        return H.median(json.loads(line)["cal_s"])

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def span_cost(bdir):
    proc = subprocess.run([os.path.join(bdir, "capbench"), "span-cost"],
                          capture_output=True, text=True, env=H.child_env(),
                          timeout=60)
    if proc.returncode != 0:
        H.fail("capbench span-cost failed: " + proc.stderr[-2000:])
    return json.loads(proc.stdout)["span_disarmed_ns"]


def write_serve_spans(rd, jobs):
    """Chrome trace of one round: per job a serve.job span (submit to
    result) over serve.queue (ack to first cell), serve.exec (first to
    last cell) and serve.render (last cell to result)."""
    epoch = min(j["submit"] for j in rd["jobs"])
    events = []

    def span(name, begin, end, cell, parent):
        events.append({
            "name": name, "cat": "capbench", "ph": "X", "pid": 1, "tid": 1,
            "ts": (begin - epoch) * 1e6, "dur": (end - begin) * 1e6,
            "args": {"id": len(events), "parent": parent, "cell": cell}})
        return len(events) - 1

    for i, j in enumerate(rd["jobs"]):
        cell = "job%d:%s:%s" % (i, j["kind"], ",".join(jobs[i][1]["apps"]))
        root = span("serve.job", j["submit"], j["result"], cell, None)
        if j["cells"] and j["ack"] is not None:
            first, last = j["cells"][0][0], j["cells"][-1][0]
            span("serve.queue", j["ack"], first, cell, root)
            span("serve.exec", first, last, cell, root)
            span("serve.render", last, j["result"], cell, root)
    with open(spans_path("serve-mix"), "w") as f:
        json.dump({"displayTimeUnit": "ns", "traceEvents": events}, f)


# ----------------------------------------------------------- references

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_references(bdir, seeds, workloads):
    """Digest every row / job output per seed, after checking that the
    independent computations agree: the one-pass study, the benchmark's
    own replay and the per-config engines for the sweeps; the served
    bytes and a cold in-process run for serve-mix, which always records
    every catalogue a run can submit."""
    os.makedirs(H.REFERENCE_DIR, exist_ok=True)
    for workload in workloads:
        ref = {"seeds": {}}
        if workload == "serve-mix":
            seeds = range(serve_mix.CATALOGUES)
        for seed in seeds:
            if workload == "serve-mix":
                jobs = serve_mix.catalogue(seed)
                served = serve_mix.run_round(os.path.join(bdir, "capsim"), jobs)
                cold = serve_mix.oracle_outputs(
                    os.path.join(bdir, "capbench"), jobs)
                for j, o in zip(served["jobs"], cold):
                    if j["status"] != "ok" or o is None or j["output"] != o:
                        H.fail("serve-mix seed %d: served and cold outputs "
                               "differ" % seed)
                ref["params"] = serve_mix.PARAMS
                rows = [H.digest_bytes(o) for o in cold]
            else:
                out = sweep_round(bdir, workload, seed, 0.0,
                                  ["--oracle", "--check-engines"])
                rows = out["untraced"][0]["rows"]
                if rows != out["oracle_rows"] or rows != out["perconfig_rows"]:
                    H.fail("%s seed %d: engines disagree" % (workload, seed))
                ref["params"] = sweep_params(out)
            ref["seeds"][str(seed)] = rows
            H.log("recorded %s seed %d" % (workload, seed))
        with open(H.reference_path(workload), "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")


# ----------------------------------------------------------------- main

def run(bdir, workload, seed, seconds, trace):
    if workload == "serve-mix":
        return run_serve(bdir, seed, seconds, trace)
    return run_sweep(bdir, workload, seed, seconds, trace)


def main():
    # A terminated run still stops the servers and helpers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=H.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", metavar="SEEDS",
                    help="re-record reference digests, e.g. 0-31")
    args = ap.parse_args()
    if not args.workload and not args.record_references:
        ap.error("--workload is required")

    bdir = H.build()
    if args.record_references:
        record_references(bdir, parse_seeds(args.record_references),
                          [args.workload] if args.workload else H.WORKLOADS)
        return 0

    metrics, tally, params, samples = run(bdir, args.workload, args.seed,
                                          args.seconds, args.trace)
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace and H.samples_beyond(samples["jobs"], 0.9) < 10:
        H.log("fewer than 10 samples lie beyond job_p90_ms; "
              "raise --seconds")
    for name in units:
        print("%-32s %16.6g %s" % (name, metrics[name], units[name]))
    print("%-32s %16.6g %s  (%d of %d ops failed)"
          % ("fail_frac", 1.0 - tally.ok_frac(), "ratio", tally.failed,
             tally.attempted))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    H.append_history({
        "time": H.utc_now(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": params, "samples": samples,
        "host": H.host_fingerprint(bdir), **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
