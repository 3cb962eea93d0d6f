/**
 * @file
 * Banked DRAM backend tests: spec parsing, backend timing
 * semantics, blocking-miss stall accounting, the flat-default
 * byte-identity contract of the study verbs, dram-mode study
 * invariants (including the one-pass sweep against per-boundary
 * evaluation), the serve cell-key sensitivity, and the shared
 * missCycles / clock-switch-penalty regressions (docs/MEMORY.md).
 */

#include <bit>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/adaptive_cache.h"
#include "core/concert.h"
#include "core/experiment.h"
#include "core/interval_cache.h"
#include "core/machine.h"
#include "core/multiprogram.h"
#include "core/profile_guided.h"
#include "mem/mem_model.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/trace_reader.h"
#include "serve/job.h"
#include "trace/workloads.h"
#include "util/json.h"

namespace cap {
namespace {

/** Every CachePerf field equal, the doubles bit for bit. */
void
expectSamePerf(const core::CachePerf &a, const core::CachePerf &b)
{
    EXPECT_EQ(a.l1_increments, b.l1_increments);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.l1_miss_ratio),
              std::bit_cast<uint64_t>(b.l1_miss_ratio));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.global_miss_ratio),
              std::bit_cast<uint64_t>(b.global_miss_ratio));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.tpi_ns),
              std::bit_cast<uint64_t>(b.tpi_ns));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.tpi_miss_ns),
              std::bit_cast<uint64_t>(b.tpi_miss_ns));
}

mem::MemConfig
parseOrDie(const std::string &spec)
{
    mem::MemConfig config;
    std::string error;
    EXPECT_TRUE(mem::parseMemSpec(spec, config, error)) << error;
    return config;
}

TEST(MemSpec, FlatIsTheDefaultConfig)
{
    mem::MemConfig config;
    EXPECT_FALSE(config.isDram());
    EXPECT_FALSE(parseOrDie("flat").isDram());
}

TEST(MemSpec, DramDefaultsScaleFromRowHit)
{
    mem::MemConfig config = parseOrDie("dram");
    EXPECT_TRUE(config.isDram());
    EXPECT_EQ(config.dram.banks, 8u);
    EXPECT_EQ(config.dram.row_bytes, 2048u);
    EXPECT_DOUBLE_EQ(config.dram.row_hit_ns, 15.0);
    // The idle-bank access reproduces the historical flat edge.
    EXPECT_DOUBLE_EQ(config.dram.row_miss_ns,
                     core::CacheMachine::kL2MissNs);
    EXPECT_DOUBLE_EQ(config.dram.row_conflict_ns, 45.0);
    EXPECT_EQ(config.dram.page_policy, mem::PagePolicy::Open);
}

TEST(MemSpec, ParsesEveryKnob)
{
    mem::MemConfig config = parseOrDie(
        "dram:banks=4,row=1024,hit=10,miss=20,conflict=40,burst=2,"
        "policy=closed");
    EXPECT_EQ(config.dram.banks, 4u);
    EXPECT_EQ(config.dram.row_bytes, 1024u);
    EXPECT_DOUBLE_EQ(config.dram.row_hit_ns, 10.0);
    EXPECT_DOUBLE_EQ(config.dram.row_miss_ns, 20.0);
    EXPECT_DOUBLE_EQ(config.dram.row_conflict_ns, 40.0);
    EXPECT_DOUBLE_EQ(config.dram.burst_ns, 2.0);
    EXPECT_EQ(config.dram.page_policy, mem::PagePolicy::Closed);
}

TEST(MemSpec, RejectsMalformedSpecsAndLeavesConfigUntouched)
{
    mem::MemConfig config = parseOrDie("dram:banks=2");
    std::string error;
    for (const char *bad :
         {"sdram", "dram:banks", "dram:banks=0", "dram:row=100",
          "dram:mshr=8", "dram:policy=wombat", "dram:wombat=1",
          "dram:hit=20,miss=10", "dram:miss=50,conflict=40"}) {
        EXPECT_FALSE(mem::parseMemSpec(bad, config, error)) << bad;
        EXPECT_FALSE(error.empty());
    }
    // Failures never clobber the previously parsed config.
    EXPECT_TRUE(config.isDram());
    EXPECT_EQ(config.dram.banks, 2u);
    // Misses block, so there is no MSHR file to size.
    EXPECT_FALSE(mem::parseMemSpec("dram:mshr=8", config, error));
    EXPECT_EQ(error, "unknown --mem knob 'mshr'");
}

TEST(MemDram, OpenPolicyRowHitMissConflict)
{
    mem::DramParams params;
    params.banks = 1;
    mem::DramBackend backend(params);

    // Idle bank: row miss.  Far-apart arrival times keep each access
    // independent (no queueing, no overlap).
    backend.onMiss(0, 0.0);
    // Same row (block 1 of row 0): row hit.
    backend.onMiss(64, 1000.0);
    // Different row: conflict against the open row.
    backend.onMiss(params.row_bytes, 2000.0);

    const mem::DramStats &stats = backend.dramStats();
    EXPECT_EQ(stats.accesses, 3u);
    EXPECT_EQ(stats.row_misses, 1u);
    EXPECT_EQ(stats.row_hits, 1u);
    EXPECT_EQ(stats.row_conflicts, 1u);
    EXPECT_DOUBLE_EQ(stats.service_ns,
                     params.row_miss_ns + params.row_hit_ns +
                         params.row_conflict_ns);
    EXPECT_DOUBLE_EQ(stats.queue_ns, 0.0);
}

TEST(MemDram, ClosedPolicyNeverHitsOrConflicts)
{
    mem::DramParams params;
    params.banks = 1;
    params.page_policy = mem::PagePolicy::Closed;
    mem::DramBackend backend(params);
    backend.onMiss(0, 0.0);
    backend.onMiss(64, 1000.0);
    backend.onMiss(params.row_bytes, 2000.0);
    EXPECT_EQ(backend.dramStats().row_misses, 3u);
    EXPECT_EQ(backend.dramStats().row_hits, 0u);
    EXPECT_EQ(backend.dramStats().row_conflicts, 0u);
}

TEST(MemDram, ServiceLatencyFloorsAtRowHit)
{
    mem::DramParams params;
    mem::DramBackend backend(params);
    Nanoseconds now = 0.0;
    for (uint64_t i = 0; i < 500; ++i) {
        // A stride that mixes row hits, misses and conflicts.
        backend.onMiss(i * 1337 * 32, now);
        now += 3.0;
    }
    const mem::DramStats &stats = backend.dramStats();
    EXPECT_EQ(stats.accesses, 500u);
    EXPECT_GE(stats.service_ns,
              static_cast<double>(stats.accesses) * params.row_hit_ns);
}

TEST(MemDram, BusyBankQueuesLaterAccess)
{
    mem::DramParams params;
    params.banks = 1;
    mem::DramBackend backend(params);
    // Two back-to-back misses to different rows of the one bank: the
    // second cannot issue until the first completes.
    backend.onMiss(0, 0.0);
    backend.onMiss(params.row_bytes, 0.0);
    EXPECT_GE(backend.dramStats().queue_ns, params.row_miss_ns);
}

TEST(MemDram, OnMissChargesCompletionMinusNow)
{
    mem::DramParams params;
    params.banks = 1;
    mem::DramBackend backend(params);
    // Idle bank: the access completes a row miss after arrival.
    EXPECT_EQ(backend.onMiss(0, 0.0), params.row_miss_ns);
    // Another row at 10 ns waits for the bank (busy until 30 ns), then
    // pays a conflict: completion 30 + 45 = 75 ns.
    EXPECT_EQ(backend.onMiss(params.row_bytes, 10.0), 65.0);
    // The same block again at 50 ns, before that access completes, is
    // a new access queued behind it (a row hit from 75 ns), not a
    // merge: 75 + 15 - 50 ns.
    EXPECT_EQ(backend.onMiss(params.row_bytes + 8, 50.0), 40.0);

    const mem::MshrStats &mshr = backend.mshrStats();
    EXPECT_EQ(mshr.allocs, 3u);
    EXPECT_EQ(mshr.merges, 0u);
    EXPECT_EQ(mshr.full_stalls, 0u);
    EXPECT_EQ(mshr.stall_ns, params.row_miss_ns + 65.0 + 40.0);
    EXPECT_EQ(backend.dramStats().queue_ns, 20.0 + 25.0);
}

// ---------------------------------------------------------------------
// The shared missCycles helper and clock-switch penalty knobs
// (the "no hard-coded 30" satellites).
// ---------------------------------------------------------------------

TEST(MemPenalty, MissCyclesIsExactAtExactDivision)
{
    // 30 ns at a 1.0 ns clock is exactly 30 cycles -- the epsilon
    // guard keeps ceil() from reading 30.000000000000004 as 31
    // (previously concert.cc lacked the guard).
    EXPECT_EQ(core::missCycles(30.0, 1.0), 30u);
    EXPECT_EQ(core::missCycles(30.0, 1.5), 20u);
    EXPECT_EQ(core::missCycles(core::CacheMachine::kL2MissNs, 0.75),
              40u);
    // Non-exact division still rounds up.
    EXPECT_EQ(core::missCycles(30.0, 0.7), 43u);
    EXPECT_EQ(core::missCycles(31.0, 2.0), 16u);
}

TEST(MemPenalty, MultiprogramSwitchPenaltyIsAParameter)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("compress")};
    core::MultiprogramParams params;
    params.quantum_refs = 5000;
    params.boundaries = {2, 6};

    auto overheadWith = [&](Cycles penalty) {
        core::MultiprogramParams p = params;
        p.clock_switch_penalty_cycles = penalty;
        return core::runMultiprogram(model, apps, 20000, p)
            .switch_overhead_ns;
    };
    double at0 = overheadWith(0);
    double at30 = overheadWith(core::kClockSwitchPenaltyCycles);
    double at60 = overheadWith(2 * core::kClockSwitchPenaltyCycles);
    EXPECT_LT(at0, at30);
    // Linear in the penalty: each switch pays penalty * cycle_ns.
    EXPECT_NEAR(at60 - at30, at30 - at0, 1e-6);
}

TEST(MemPenalty, ProfileGuidedSwitchPenaltyIsAParameter)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("gcc");
    // A hand-authored schedule guarantees reconfigurations happen.
    core::ConfigSchedule schedule = {{0, 64}, {5, 16}, {12, 64}};

    auto timeWith = [&](Cycles penalty) {
        return core::runWithSchedule(model, app, 60000, schedule,
                                     core::kIntervalInstructions,
                                     penalty);
    };
    core::IntervalRunResult at0 = timeWith(0);
    core::IntervalRunResult at30 =
        timeWith(core::kClockSwitchPenaltyCycles);
    core::IntervalRunResult at60 =
        timeWith(2 * core::kClockSwitchPenaltyCycles);
    ASSERT_GT(at30.reconfigurations, 0);
    EXPECT_LT(at0.total_time_ns, at30.total_time_ns);
    EXPECT_NEAR(at60.total_time_ns - at30.total_time_ns,
                at30.total_time_ns - at0.total_time_ns, 1e-6);
}

// ---------------------------------------------------------------------
// The --mem=flat byte-identity contract and dram-mode CLI wiring.
// ---------------------------------------------------------------------

std::string
runCli(const std::vector<std::string> &args, int expect_code = 0)
{
    std::ostringstream out, err;
    int code = cli::runCommand(args, out, err);
    EXPECT_EQ(code, expect_code)
        << "stderr: " << err.str() << "\nargs[0]: " << args[0];
    return out.str();
}

TEST(MemFlatIdentity, CacheSweepBytesMatchWithoutTheFlag)
{
    std::string implicit =
        runCli({"cache-sweep", "li", "--refs", "30000"});
    std::string explicit_flat = runCli(
        {"cache-sweep", "li", "--refs", "30000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);
    EXPECT_FALSE(implicit.empty());

    std::string jobs2 = runCli({"cache-sweep", "li", "--refs", "30000",
                                "--mem", "flat", "--jobs", "2"});
    EXPECT_EQ(implicit, jobs2);
}

TEST(MemFlatIdentity, IqSweepBytesMatchWithoutTheFlag)
{
    std::string implicit = runCli({"iq-sweep", "li", "--instrs", "20000"});
    std::string explicit_flat = runCli(
        {"iq-sweep", "li", "--instrs", "20000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);
    EXPECT_FALSE(implicit.empty());
}

TEST(MemFlatIdentity, SampleRunAcceptsFlatRejectsDramOnCacheSide)
{
    std::string implicit = runCli({"sample-run", "li", "--study",
                                   "cache", "--refs", "30000"});
    std::string explicit_flat =
        runCli({"sample-run", "li", "--study", "cache", "--refs",
                "30000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);

    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"sample-run", "li", "--study", "cache",
                               "--refs", "30000", "--mem", "dram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("--mem=flat"), std::string::npos);
}

TEST(MemFlatIdentity, SampledCacheSweepRejectsDram)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"cache-sweep", "li", "--refs", "30000",
                               "--sample", "--mem", "dram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("--mem=flat"), std::string::npos);
}

TEST(MemFlatIdentity, BadSpecIsAUsageError)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"cache-sweep", "li", "--mem", "sdram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("unknown --mem kind"), std::string::npos);
}

TEST(MemFlatIdentity, DramCacheSweepRunsAndDiffersFromFlat)
{
    std::string flat = runCli({"cache-sweep", "li", "--refs", "30000"});
    std::string dram = runCli(
        {"cache-sweep", "li", "--refs", "30000", "--mem", "dram"});
    EXPECT_FALSE(dram.empty());
    EXPECT_NE(flat, dram);
}

// ---------------------------------------------------------------------
// Dram-mode study invariants.
// ---------------------------------------------------------------------

TEST(MemDramStudy, CountersConserveMissesAndFloorTheStall)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie("dram"));
    const trace::AppProfile &app = trace::findApp("compress");
    obs::CounterRegistry registry;
    core::CachePerf perf =
        model.evaluateObserved(app, 4, 40000, nullptr, &registry);
    EXPECT_GT(perf.tpi_ns, 0.0);

    uint64_t misses = registry.counterValue("cache.misses");
    ASSERT_GT(misses, 0u);
    // Misses block: each one is an allocation, none merges or waits
    // for a free entry.
    EXPECT_EQ(registry.counterValue("mshr.allocs"), misses);
    EXPECT_EQ(registry.counterValue("mshr.merges"), 0u);
    EXPECT_EQ(registry.counterValue("mshr.full_stalls"), 0u);
    EXPECT_EQ(registry.counterValue("dram.accesses"),
              registry.counterValue("mshr.allocs"));
    EXPECT_EQ(registry.counterValue("dram.row_hits") +
                  registry.counterValue("dram.row_misses") +
                  registry.counterValue("dram.row_conflicts"),
              registry.counterValue("dram.accesses"));
    // Service time floors at row-hit latency per access.
    const mem::DramParams &d = model.memConfig().dram;
    EXPECT_GE(static_cast<double>(
                  registry.counterValue("dram.service_ns")),
              static_cast<double>(
                  registry.counterValue("dram.accesses")) *
                  d.row_hit_ns -
                  1.0);
}

TEST(MemDramStudy, StudyIsJobAndEngineInvariant)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie("dram"));
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("gcc")};
    core::CacheStudy serial =
        core::runCacheStudy(model, apps, 25000, 8, 1, {}, true);
    core::CacheStudy fanned =
        core::runCacheStudy(model, apps, 25000, 8, 3, {}, false);
    ASSERT_EQ(serial.perf.size(), fanned.perf.size());
    for (size_t a = 0; a < serial.perf.size(); ++a) {
        ASSERT_EQ(serial.perf[a].size(), fanned.perf[a].size());
        for (size_t c = 0; c < serial.perf[a].size(); ++c)
            expectSamePerf(serial.perf[a][c], fanned.perf[a][c]);
    }
}

TEST(MemDramStudy, OnePassSweepWalksOnceUnderDram)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie("dram"));
    const trace::AppProfile &app = trace::findApp("li");
    obs::CounterRegistry registry;
    std::vector<core::CachePerf> swept =
        model.sweepOnePassObserved(app, 8, 20000, nullptr, &registry);
    EXPECT_EQ(swept.size(), 8u);
    EXPECT_EQ(registry.counterValue("stacksim.sweeps"), 1u);
    EXPECT_EQ(registry.counterValue("stacksim.refs"), 20000u);
    EXPECT_EQ(registry.counterValue("stacksim.dram_fallbacks"), 0u);
    // The one walk produces the same numbers as evaluate().
    for (int k = 1; k <= 8; ++k)
        expectSamePerf(swept[k - 1], model.evaluate(app, k, 20000));
}

// The one-pass dram sweep against one evaluateObserved() per boundary:
// every CachePerf field bit for bit, the same cache.*, dram.* and
// mshr.* counters (the one-pass side records no service_way
// histogram), and the same Cell trace records.  Each memory spec
// covers every cache-study application at two seeds.
struct DramSpecCase
{
    const char *name;
    const char *spec;
};

void
PrintTo(const DramSpecCase &c, std::ostream *os)
{
    *os << c.spec;
}

class MemDramOnePassDifferential
    : public ::testing::TestWithParam<DramSpecCase>
{
};

TEST_P(MemDramOnePassDifferential, MatchesPerBoundaryEvaluate)
{
    const char *const kCounters[] = {
        "cache.refs",         "cache.l1_hits",      "cache.l2_hits",
        "cache.misses",       "cache.writebacks",   "cache.swaps",
        "dram.accesses",      "dram.row_hits",      "dram.row_misses",
        "dram.row_conflicts", "dram.service_ns",    "dram.queue_ns",
        "mshr.allocs",        "mshr.merges",        "mshr.full_stalls",
        "mshr.stall_ns"};
    // Not a multiple of the trace batch, so the tail batch is covered.
    constexpr uint64_t kRefs = 16000;
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie(GetParam().spec));
    for (const trace::AppProfile &base : trace::cacheStudyApps()) {
        for (uint64_t seed : {base.seed, base.seed + 7919}) {
            trace::AppProfile app = base;
            app.seed = seed;
            SCOPED_TRACE(app.name + " seed " + std::to_string(seed));
            obs::DecisionTrace one_pass_trace;
            obs::CounterRegistry one_pass;
            std::vector<core::CachePerf> swept = model.sweepOnePassObserved(
                app, 8, kRefs, &one_pass_trace, &one_pass);
            obs::DecisionTrace per_config_trace;
            obs::CounterRegistry per_config;
            ASSERT_EQ(swept.size(), 8u);
            for (int k = 1; k <= 8; ++k) {
                expectSamePerf(swept[k - 1],
                               model.evaluateObserved(app, k, kRefs,
                                                      &per_config_trace,
                                                      &per_config));
            }
            std::ostringstream one_pass_jsonl, per_config_jsonl;
            one_pass_trace.writeJsonl(one_pass_jsonl);
            per_config_trace.writeJsonl(per_config_jsonl);
            EXPECT_EQ(one_pass_jsonl.str(), per_config_jsonl.str());
            for (const char *name : kCounters)
                EXPECT_EQ(one_pass.counterValue(name),
                          per_config.counterValue(name))
                    << name;
            // The counters above plus stacksim.{sweeps,refs,boundaries}.
            EXPECT_EQ(per_config.counterCount(), std::size(kCounters));
            EXPECT_EQ(one_pass.counterCount(), std::size(kCounters) + 3);
            EXPECT_EQ(one_pass.histogramCount(), 0u);
            EXPECT_NE(per_config.findHistogram("cache.service_way"),
                      nullptr);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, MemDramOnePassDifferential,
    ::testing::Values(
        DramSpecCase{"Default", "dram"},
        DramSpecCase{"ClosedPage", "dram:policy=closed"},
        DramSpecCase{"TwoBanks",
                     "dram:banks=2,hit=10,miss=40,conflict=80"}),
    [](const ::testing::TestParamInfo<DramSpecCase> &info) {
        return std::string(info.param.name);
    });

TEST(MemDramStudy, MissCostBecomesPhaseDependent)
{
    // Under flat every miss costs the same; under dram its cost
    // depends on row locality and overlap, so the interval oracle
    // can prefer a different boundary in some interval.  One
    // application suffices; scan the cache suite for a divergence.
    core::AdaptiveCacheModel flat_model;
    core::AdaptiveCacheModel dram_model;
    dram_model.setMemConfig(
        parseOrDie("dram:banks=2,hit=10,miss=40,conflict=80"));
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    bool diverged = false;
    for (const trace::AppProfile &app : trace::cacheStudyApps()) {
        core::CacheIntervalResult flat = core::runCacheIntervalOracle(
            flat_model, app, 40000, boundaries, 4000, true);
        core::CacheIntervalResult dram = core::runCacheIntervalOracle(
            dram_model, app, 40000, boundaries, 4000, true);
        if (flat.boundary_trace != dram.boundary_trace) {
            diverged = true;
            break;
        }
    }
    EXPECT_TRUE(diverged);
}

TEST(MemDramStudy, ConcertHonoursTheBackend)
{
    std::vector<trace::AppProfile> apps = {trace::findApp("li")};
    core::ConcertStudy flat = core::runConcertStudy(apps, 20000);
    core::ConcertStudy dram =
        core::runConcertStudy(apps, 20000, parseOrDie("dram"));
    ASSERT_EQ(flat.perf.size(), dram.perf.size());
    bool any_diff = false;
    for (size_t c = 0; c < flat.perf[0].size(); ++c)
        any_diff |= flat.perf[0][c].tpi_ns != dram.perf[0][c].tpi_ns;
    EXPECT_TRUE(any_diff);
}

TEST(MemDramStudy, IntervalTraceCarriesMemStallAndRoundTrips)
{
    const trace::AppProfile &app = trace::findApp("compress");
    std::vector<int> boundaries = {1, 4, 8};

    core::AdaptiveCacheModel dram_model;
    dram_model.setMemConfig(parseOrDie("dram"));
    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    obs::Hooks hooks{&trace, &registry};
    core::runCacheIntervalOracle(dram_model, app, 40000, boundaries,
                                 4000, true,
                                 core::kClockSwitchPenaltyCycles, 1,
                                 hooks);

    double total_stall = 0.0;
    for (const obs::TraceEvent &e : trace.events())
        if (e.kind == obs::EventKind::Interval)
            total_stall += e.mem_stall_ns;
    EXPECT_GT(total_stall, 0.0);

    std::ostringstream os;
    trace.writeJsonl(os);
    EXPECT_NE(os.str().find("\"mem_stall_ns\""), std::string::npos);
    std::istringstream is(os.str());
    obs::DecisionTrace back;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, back, error)) << error;
    ASSERT_EQ(back.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_DOUBLE_EQ(back.events()[i].mem_stall_ns,
                         trace.events()[i].mem_stall_ns);

    // Flat traces never carry the field (byte-identity with pre-dram
    // output depends on the omission).
    core::AdaptiveCacheModel flat_model;
    obs::DecisionTrace flat_trace;
    obs::CounterRegistry flat_registry;
    obs::Hooks flat_hooks{&flat_trace, &flat_registry};
    core::runCacheIntervalOracle(flat_model, app, 40000, boundaries,
                                 4000, true,
                                 core::kClockSwitchPenaltyCycles, 1,
                                 flat_hooks);
    std::ostringstream flat_os;
    flat_trace.writeJsonl(flat_os);
    EXPECT_EQ(flat_os.str().find("mem_stall_ns"), std::string::npos);
}

// ---------------------------------------------------------------------
// Serve: the memory config is part of the dram cell key.
// ---------------------------------------------------------------------

serve::JobSpec
cacheJob(const std::string &mem_spec)
{
    serve::JobSpec spec;
    spec.kind = serve::JobKind::CacheSweep;
    spec.apps = {"li"};
    if (!mem_spec.empty())
        spec.mem = parseOrDie(mem_spec);
    return spec;
}

TEST(MemServe, DramChangesTheCellKeyFlatDoesNot)
{
    const trace::AppProfile &app = trace::findApp("li");
    uint64_t flat_default = serve::cellKey(cacheJob(""), app);
    uint64_t flat_explicit = serve::cellKey(cacheJob("flat"), app);
    uint64_t dram = serve::cellKey(cacheJob("dram"), app);
    uint64_t dram_tuned =
        serve::cellKey(cacheJob("dram:banks=2"), app);
    // A cached flat row keeps its pre-dram key...
    EXPECT_EQ(flat_default, flat_explicit);
    // ...and can never answer a dram query, nor one dram config
    // another.
    EXPECT_NE(flat_default, dram);
    EXPECT_NE(dram, dram_tuned);
}

TEST(MemServe, JobParsesMemAndRejectsSampledDram)
{
    auto parseJob = [](const std::string &text, serve::JobSpec &spec,
                       std::string &error) {
        json::Value parsed;
        EXPECT_TRUE(json::parse(text, parsed, error)) << error;
        return serve::jobFromJson(parsed, spec, error);
    };

    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                             "mem": "dram:banks=4"})",
                         spec, error))
        << error;
    EXPECT_TRUE(spec.mem.isDram());
    EXPECT_EQ(spec.mem.dram.banks, 4u);

    serve::JobSpec rejected;
    EXPECT_FALSE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                              "sampled": true, "mem": "dram"})",
                          rejected, error));
    EXPECT_NE(error.find("mem=flat"), std::string::npos);

    serve::JobSpec bad_spec;
    EXPECT_FALSE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                              "mem": "sdram"})",
                          bad_spec, error));

    serve::JobSpec mshr_spec;
    EXPECT_FALSE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                              "mem": "dram:mshr=2"})",
                          mshr_spec, error));
    EXPECT_NE(error.find("unknown --mem knob 'mshr'"), std::string::npos)
        << error;
}

} // namespace
} // namespace cap
