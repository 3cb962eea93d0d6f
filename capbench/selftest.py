#!/usr/bin/env python3
"""Self-test of the benchmark harness (about half a minute):

    python3 capbench/selftest.py

Checks the percentile rule, that a corrupted reference digest shows up
as failed ops (ok_frac < 1) on a sweep and on serve-mix, that a single
failed op breaks ok_frac's bound, and that every emitted metric name is
well formed and declared in BENCHMARK.json.
Exits non-zero on the first failed check.
"""

import json
import os
import sys

import harness as H
import run

SEED = 1  # a seed with committed references


def check(cond, what):
    if not cond:
        H.fail("self-test FAILED: " + what, code=1)
    print("ok  " + what)


def test_percentile_rule():
    values = list(range(1, 101))
    check(H.percentile(values, 0.5) == 50, "nearest-rank p50 of 1..100 is 50")
    check(H.percentile(values, 0.9) == 90, "nearest-rank p90 of 1..100 is 90")
    check(sum(v > H.percentile(values, 0.9) for v in values) ==
          H.samples_beyond(len(values), 0.9) == 10,
          "100 samples leave exactly 10 beyond p90")
    check(H.samples_beyond(99, 0.9) < 10,
          "99 samples are too few to report p90")


def declared_metrics():
    with open(os.path.join(H.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return bench, e2e, layer


def test_metric_names():
    bench, e2e, layer = declared_metrics()
    check(e2e == run.END_TO_END,
          "run.py's end-to-end metrics and units match BENCHMARK.json")
    check(layer == run.PER_LAYER,
          "run.py's per-layer metrics and units match BENCHMARK.json")
    for name in list(e2e) + list(layer):
        check(H.METRIC_NAME.match(name) is not None,
              "metric name %r matches [A-Za-z0-9_.-]+" % name)
    check([w["name"] for w in bench["workloads"]] == list(H.WORKLOADS),
          "BENCHMARK.json names the four workloads")


def ok_frac_bound():
    bench, _, _ = declared_metrics()
    return next(m["bound"] for m in bench["end_to_end"]
                if m["name"] == "ok_frac")


def emitted(metrics, trace):
    _, e2e, layer = declared_metrics()
    return set(metrics) == set(layer if trace else e2e)


def test_corrupted_reference(bdir):
    for workload in ("cache-sweep", "serve-mix"):
        ref = H.load_reference(workload)
        check(ref is not None and str(SEED) in ref["seeds"],
              "%s has committed digests for seed %d" % (workload, SEED))
        good = ref["seeds"][str(SEED)]
        bad = list(good)
        bad[len(bad) // 2] = "0" * 16
        runner = run.run_serve if workload == "serve-mix" else run.run_sweep
        sweep_args = () if workload == "serve-mix" else (workload,)

        metrics, tally, _, samples = runner(bdir, *sweep_args, SEED, 1.5, 0)
        check(tally.failed == 0 and metrics["ok_frac"] == 1.0,
              "%s matches its committed digests" % workload)
        check(ok_frac_bound() < 1.0 / tally.attempted,
              "%s: one failed op of %d breaks the ok_frac bound"
              % (workload, tally.attempted))
        check(emitted(metrics, 0),
              "%s emits exactly the declared end-to-end metrics" % workload)
        if workload == "serve-mix":
            check(H.samples_beyond(samples["jobs"], 0.9) >= 10,
                  "serve-mix's shortest run leaves >= 10 jobs beyond p90")

        # A serve-mix run's first round submits the catalogue of SEED.
        if workload == "serve-mix":
            bad = {SEED: bad}
        metrics, tally, _, _ = runner(bdir, *sweep_args, SEED, 1.5, 0,
                                      expected=bad)
        check(tally.failed > 0 and metrics["ok_frac"] < 1.0,
              "%s: a corrupted reference digest gives fail_frac > 0"
              % workload)

        metrics, tally, _, _ = runner(bdir, *sweep_args, SEED, 1.5, 1)
        check(tally.failed == 0 and emitted(metrics, 1),
              "%s traced replay matches and emits every per-layer metric"
              % workload)


def main():
    test_percentile_rule()
    test_metric_names()
    test_corrupted_reference(H.build())
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
