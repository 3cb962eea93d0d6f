/**
 * @file
 * Golden bits of every DRAM-priced result.  Each study path that
 * prices L2 misses through mem::DramBackend is run under three memory
 * specs, and every number it returns is folded, bit for bit, into one
 * FNV-1a digest per path.  The digests pin the bits each path's own
 * blocking-clock loop produced; a change to a clock step, its
 * floating-point order or the backend's timing moves them.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_cache.h"
#include "core/async_cache.h"
#include "core/concert.h"
#include "core/interval_cache.h"
#include "core/latency_adaptive.h"
#include "core/multiprogram.h"
#include "mem/mem_model.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "trace/workloads.h"

namespace cap {
namespace {

/** FNV-1a over the exact bits of every value folded in. */
class Digest
{
  public:
    void add(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }
    void add(int value) { add(static_cast<uint64_t>(value)); }
    void add(double value) { add(std::bit_cast<uint64_t>(value)); }
    void add(const std::string &text)
    {
        add(static_cast<uint64_t>(text.size()));
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

void
addPerf(Digest &d, const core::CachePerf &perf)
{
    d.add(perf.l1_increments);
    d.add(perf.refs);
    d.add(perf.instructions);
    d.add(perf.l1_miss_ratio);
    d.add(perf.global_miss_ratio);
    d.add(perf.tpi_ns);
    d.add(perf.tpi_miss_ns);
}

void
addInterval(Digest &d, const core::CacheIntervalResult &result)
{
    d.add(result.refs);
    d.add(result.instructions);
    d.add(result.total_time_ns);
    d.add(result.reconfigurations);
    d.add(result.committed_moves);
    for (int boundary : result.boundary_trace)
        d.add(boundary);
}

void
addCounters(Digest &d, const obs::CounterRegistry &registry)
{
    for (const char *name :
         {"cache.refs", "cache.l1_hits", "cache.l2_hits", "cache.misses",
          "dram.accesses", "dram.row_hits", "dram.row_misses",
          "dram.row_conflicts", "dram.service_ns", "dram.queue_ns",
          "mshr.allocs", "mshr.merges", "mshr.full_stalls",
          "mshr.stall_ns"})
        d.add(registry.counterValue(name));
}

std::string
jsonl(const obs::DecisionTrace &trace)
{
    std::ostringstream os;
    trace.writeJsonl(os);
    return os.str();
}

const std::vector<const char *> &
goldenApps()
{
    static const std::vector<const char *> apps = {"li", "compress",
                                                   "gcc"};
    return apps;
}

/** One digest per DRAM-priced study path. */
struct PathDigests
{
    uint64_t evaluate;
    uint64_t interval;
    uint64_t phase;
    uint64_t oracle;
    uint64_t latency;
    uint64_t async;
    uint64_t concert;
    uint64_t multiprogram;
};

PathDigests
measure(const mem::MemConfig &config)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(config);
    PathDigests out{};

    // Per-config evaluation at every boundary, with its counters.
    {
        Digest d;
        for (const char *name : goldenApps()) {
            const trace::AppProfile &app = trace::findApp(name);
            for (int k = 1; k <= 8; ++k) {
                addPerf(d, model.evaluate(app, k, 16000));
                obs::CounterRegistry registry;
                addPerf(d, model.evaluateObserved(app, k, 16000, nullptr,
                                                  &registry));
                addCounters(d, registry);
            }
        }
        out.evaluate = d.value();
    }

    // The two interval controllers.
    {
        Digest interval, phase;
        core::CacheIntervalParams params;
        core::PhasePredictorParams phase_params;
        for (const char *name : goldenApps()) {
            const trace::AppProfile &app = trace::findApp(name);
            addInterval(interval,
                        core::IntervalAdaptiveCache(model, params)
                            .run(app, 40000, 4));
            addInterval(phase,
                        core::PhasePredictiveCache(model, phase_params)
                            .run(app, 40000, 4));
        }
        out.interval = interval.value();
        out.phase = phase.value();
    }

    // The interval oracle's lane engine, with a tail interval and its
    // trace records (mem_stall_ns included).
    {
        Digest d;
        std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
        for (const char *name : goldenApps()) {
            const trace::AppProfile &app = trace::findApp(name);
            obs::DecisionTrace trace;
            obs::CounterRegistry registry;
            obs::Hooks hooks{&trace, &registry};
            addInterval(d, core::runCacheIntervalOracle(
                               model, app, 41000, boundaries, 4000, true,
                               core::kClockSwitchPenaltyCycles, 1, hooks,
                               false));
            d.add(jsonl(trace));
        }
        out.oracle = d.value();
    }

    // The latency-varying and handshaking cache variants.
    {
        Digest latency, async;
        core::LatencyAdaptiveCache latency_model(model);
        core::AsyncCacheModel async_model(model);
        for (const char *name : goldenApps()) {
            const trace::AppProfile &app = trace::findApp(name);
            for (int k = 1; k <= 8; ++k) {
                addPerf(latency, latency_model.evaluate(app, k, 16000));
                core::AsyncCachePerf perf =
                    async_model.evaluate(app, k, 16000);
                async.add(perf.l1_increments);
                async.add(perf.refs);
                async.add(perf.instructions);
                async.add(perf.avg_access_ns);
                async.add(perf.worst_access_ns);
                async.add(perf.tpi_ns);
            }
        }
        out.latency = latency.value();
        out.async = async.value();
    }

    // The joint cache/TLB/predictor study.
    {
        Digest d;
        std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                               trace::findApp("gcc")};
        core::ConcertStudy study = core::runConcertStudy(apps, 16000,
                                                         config);
        for (const std::vector<core::ConcertPerf> &row : study.perf) {
            for (const core::ConcertPerf &perf : row) {
                d.add(perf.cycle_ns);
                d.add(perf.tpi_ns);
                d.add(perf.base_ns);
                d.add(perf.cache_miss_ns);
                d.add(perf.tlb_walk_ns);
                d.add(perf.mispredict_ns);
            }
        }
        out.concert = d.value();
    }

    // Time-shared hierarchy and backend: fixed and profiled boundaries.
    {
        Digest d;
        std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                               trace::findApp("compress"),
                                               trace::findApp("gcc")};
        core::MultiprogramParams fixed;
        fixed.quantum_refs = 3000;
        fixed.boundaries = {2, 6, 4};
        core::MultiprogramParams adaptive;
        adaptive.quantum_refs = 3000;
        adaptive.profile_refs = 12000;
        for (const core::MultiprogramParams &params : {fixed, adaptive}) {
            core::MultiprogramResult result =
                core::runMultiprogram(model, apps, 20000, params);
            for (const core::MultiprogramAppResult &app : result.apps) {
                d.add(app.name);
                d.add(app.boundary);
                d.add(app.refs);
                d.add(app.instructions);
                d.add(app.time_ns);
            }
            d.add(result.switches);
            d.add(result.switch_overhead_ns);
            d.add(result.total_time_ns);
        }
        out.multiprogram = d.value();
    }
    return out;
}

struct GoldenCase
{
    const char *name;
    const char *spec;
    PathDigests expected;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.spec;
}

class MemDramGolden : public ::testing::TestWithParam<GoldenCase>
{
};

std::string
hex(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

TEST_P(MemDramGolden, EveryPathKeepsItsBits)
{
    mem::MemConfig config;
    std::string error;
    ASSERT_TRUE(mem::parseMemSpec(GetParam().spec, config, error))
        << error;
    PathDigests got = measure(config);
    const PathDigests &want = GetParam().expected;
    EXPECT_EQ(hex(got.evaluate), hex(want.evaluate)) << "evaluate";
    EXPECT_EQ(hex(got.interval), hex(want.interval)) << "interval";
    EXPECT_EQ(hex(got.phase), hex(want.phase)) << "phase";
    EXPECT_EQ(hex(got.oracle), hex(want.oracle)) << "oracle";
    EXPECT_EQ(hex(got.latency), hex(want.latency)) << "latency";
    EXPECT_EQ(hex(got.async), hex(want.async)) << "async";
    EXPECT_EQ(hex(got.concert), hex(want.concert)) << "concert";
    EXPECT_EQ(hex(got.multiprogram), hex(want.multiprogram))
        << "multiprogram";
}

INSTANTIATE_TEST_SUITE_P(
    Specs, MemDramGolden,
    ::testing::Values(
        GoldenCase{"Default", "dram",
                   {0x4e2852c739e88e4cull, 0x52531eb915a2e17eull,
                    0x718ba45c247c072eull, 0x03e41b88cb16cd16ull,
                    0x882eff549ae1a987ull, 0xfeffb6d7d902dc57ull,
                    0x4c7fdd06cfdc68bbull, 0xa74d37faebf92c6aull}},
        GoldenCase{"ClosedPage", "dram:policy=closed",
                   {0x27e1dae7c04f93afull, 0xc0342437042c1aa6ull,
                    0x1a403fff5f2743a5ull, 0x5d18ae807f06940bull,
                    0x6d4e068e9c31ee23ull, 0xb6ef20b55b40833aull,
                    0xf2f1db4a27fc4a15ull, 0xcc6a1d0d147df698ull}},
        GoldenCase{"OneBank",
                   "dram:banks=1,burst=8,hit=10,miss=40,conflict=80",
                   {0xee27d7635100aabfull, 0x617e74555167eaefull,
                    0xc58470dc149e4ae6ull, 0x6991176cb296dddaull,
                    0x319e6d8cbede6b9aull, 0x62fd073cf8623c7full,
                    0xb5a2b1f80133872dull, 0x5cdb6e8a392d39abull}}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace cap
