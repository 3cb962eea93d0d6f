/**
 * @file
 * Tests for the trace substrate: pattern generators, synthetic trace
 * sources and the 22-application workload suite.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_bpred.h"
#include "core/adaptive_tlb.h"
#include "core/adaptive_vpred.h"
#include "ooo/uop.h"
#include "rng_reference.h"
#include "trace/file_trace.h"
#include "trace/patterns.h"
#include "trace/profile.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/rng.h"

namespace cap::trace {
namespace {

constexpr uint64_t kBlock = kBlockBytes;

// ---------------------------------------------------------------------
// ZipfResident
// ---------------------------------------------------------------------

TEST(ZipfResidentTest, AddressesStayInRegion)
{
    Region region{0x100000, kib(16)};
    ZipfResident pattern(region, kBlock, 1.0, 7);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        Addr addr = pattern.next(rng);
        ASSERT_GE(addr, region.base);
        ASSERT_LT(addr, region.base + region.size_bytes);
    }
}

TEST(ZipfResidentTest, SkewConcentratesMass)
{
    Region region{0, kib(32)};
    ZipfResident pattern(region, kBlock, 1.3, 7);
    Rng rng(2);
    std::map<uint64_t, int> block_counts;
    const int draws = 40000;
    for (int i = 0; i < draws; ++i)
        ++block_counts[pattern.next(rng) / kBlock];
    std::vector<int> counts;
    for (auto &[block, count] : block_counts)
        counts.push_back(count);
    std::sort(counts.rbegin(), counts.rend());
    // The hottest 10% of blocks must take well over 10% of accesses.
    size_t top = counts.size() / 10;
    int top_mass = 0, total = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < top)
            top_mass += counts[i];
    }
    EXPECT_GT(static_cast<double>(top_mass) / total, 0.4);
}

TEST(ZipfResidentTest, ShuffleScattersHotBlocks)
{
    Region region{0, kib(64)};
    // Two different shuffle seeds must map rank 0 to different blocks.
    ZipfResident a(region, kBlock, 2.0, 1);
    ZipfResident b(region, kBlock, 2.0, 2);
    Rng rng_a(5), rng_b(5);
    std::map<uint64_t, int> count_a, count_b;
    for (int i = 0; i < 4000; ++i) {
        ++count_a[a.next(rng_a) / kBlock];
        ++count_b[b.next(rng_b) / kBlock];
    }
    auto hottest = [](const std::map<uint64_t, int> &counts) {
        uint64_t best = 0;
        int best_count = -1;
        for (auto &[block, count] : counts) {
            if (count > best_count) {
                best_count = count;
                best = block;
            }
        }
        return best;
    };
    EXPECT_NE(hottest(count_a), hottest(count_b));
}

// ---------------------------------------------------------------------
// CyclicSweep
// ---------------------------------------------------------------------

TEST(CyclicSweepTest, VisitsSequentiallyAndWraps)
{
    Region region{0x200000, 4 * kBlock};
    CyclicSweep sweep(region, kBlock);
    Rng rng(1);
    std::vector<Addr> seen;
    for (int i = 0; i < 8; ++i)
        seen.push_back(sweep.next(rng));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seen[i], region.base + static_cast<uint64_t>(i) * kBlock);
        EXPECT_EQ(seen[i + 4], seen[i]);
    }
}

// ---------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------

TEST(StreamTest, TouchesBlockThenAdvances)
{
    Region region{0x300000, kib(1)};
    Stream stream(region, kBlock, 3);
    Rng rng(1);
    std::vector<uint64_t> blocks;
    for (int i = 0; i < 9; ++i)
        blocks.push_back(stream.next(rng) / kBlock);
    EXPECT_EQ(blocks[0], blocks[1]);
    EXPECT_EQ(blocks[1], blocks[2]);
    EXPECT_EQ(blocks[3], blocks[0] + 1);
    EXPECT_EQ(blocks[6], blocks[0] + 2);
}

TEST(StreamTest, WrapsAtRegionEnd)
{
    Region region{0, 2 * kBlock};
    Stream stream(region, kBlock, 1);
    Rng rng(1);
    std::set<uint64_t> blocks;
    for (int i = 0; i < 6; ++i)
        blocks.insert(stream.next(rng) / kBlock);
    EXPECT_EQ(blocks.size(), 2u);
}

// ---------------------------------------------------------------------
// SyntheticTraceSource
// ---------------------------------------------------------------------

CacheBehavior
twoComponentBehavior()
{
    CacheBehavior behavior;
    PatternSpec hot;
    hot.kind = PatternKind::ZipfResident;
    hot.weight = 0.7;
    hot.region_bytes = kib(8);
    hot.zipf_s = 1.0;
    PatternSpec cold;
    cold.kind = PatternKind::Stream;
    cold.weight = 0.3;
    cold.region_bytes = kib(512);
    behavior.mix = {hot, cold};
    behavior.write_fraction = 0.25;
    behavior.refs_per_instr = 0.4;
    return behavior;
}

TEST(SyntheticTraceSourceTest, DeterministicForEqualSeeds)
{
    CacheBehavior behavior = twoComponentBehavior();
    SyntheticTraceSource a(behavior, 99, 2000);
    SyntheticTraceSource b(behavior, 99, 2000);
    TraceRecord ra, rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.is_write, rb.is_write);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(SyntheticTraceSourceTest, DifferentSeedsDiffer)
{
    CacheBehavior behavior = twoComponentBehavior();
    SyntheticTraceSource a(behavior, 1, 500);
    SyntheticTraceSource b(behavior, 2, 500);
    TraceRecord ra, rb;
    int equal = 0;
    for (int i = 0; i < 500; ++i) {
        a.next(ra);
        b.next(rb);
        equal += ra.addr == rb.addr ? 1 : 0;
    }
    EXPECT_LT(equal, 100);
}

TEST(SyntheticTraceSourceTest, HonorsLimit)
{
    SyntheticTraceSource source(twoComponentBehavior(), 5, 123);
    TraceRecord record;
    uint64_t produced = 0;
    while (source.next(record))
        ++produced;
    EXPECT_EQ(produced, 123u);
    EXPECT_EQ(source.produced(), 123u);
}

TEST(SyntheticTraceSourceTest, ComponentsLiveInDisjointRegions)
{
    SyntheticTraceSource source(twoComponentBehavior(), 5, 20000);
    TraceRecord record;
    std::set<uint64_t> megabytes;
    while (source.next(record))
        megabytes.insert(record.addr / mib(1));
    // Component one occupies one 1 MiB-aligned region; component two
    // occupies one as well (8 KB region) -- no overlap.
    EXPECT_GE(megabytes.size(), 2u);
}

TEST(SyntheticTraceSourceTest, WriteFractionApproximate)
{
    SyntheticTraceSource source(twoComponentBehavior(), 5, 20000);
    TraceRecord record;
    int writes = 0;
    while (source.next(record))
        writes += record.is_write ? 1 : 0;
    EXPECT_NEAR(writes / 20000.0, 0.25, 0.02);
}

// ---------------------------------------------------------------------
// Phase schedule + generator cursors (sampled-simulation substrate)
// ---------------------------------------------------------------------

CacheBehavior
phasedBehavior()
{
    CacheBehavior behavior = twoComponentBehavior();
    PatternSpec hot;
    hot.kind = PatternKind::ZipfResident;
    hot.weight = 1.0;
    hot.region_bytes = kib(8);
    hot.zipf_s = 1.0;
    PatternSpec cold;
    cold.kind = PatternKind::Stream;
    cold.weight = 1.0;
    cold.region_bytes = kib(256);
    CachePhase a;
    a.mix = {hot};
    a.length_refs = 100;
    CachePhase b;
    b.mix = {cold};
    b.length_refs = 150;
    behavior.phases = {a, b};
    return behavior;
}

TEST(SyntheticTraceSourceTest, PhaseSwitchesExactlyAtScheduledLength)
{
    SyntheticTraceSource source(phasedBehavior(), 11, 1000);
    TraceRecord record;
    EXPECT_EQ(source.currentPhase(), 0u);
    for (int i = 0; i < 99; ++i)
        ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 0u); // reference 100 still phase A
    ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 1u); // switches exactly at 100
    for (int i = 0; i < 149; ++i)
        ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 1u);
    ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 0u); // schedule wraps at 100+150
}

TEST(SyntheticTraceSourceTest, CursorRoundTripIsIdentity)
{
    SyntheticTraceSource source(phasedBehavior(), 11, 1000);
    TraceRecord record;
    for (int i = 0; i < 60; ++i)
        ASSERT_TRUE(source.next(record));
    SyntheticTraceSource::Cursor cursor = source.saveCursor();
    std::vector<TraceRecord> first;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(source.next(record));
        first.push_back(record);
    }
    source.restoreCursor(cursor);
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(source.next(record));
        ASSERT_EQ(record.addr, first[i].addr);
        ASSERT_EQ(record.is_write, first[i].is_write);
    }
}

TEST(SyntheticTraceSourceTest, MidPhaseCursorResumesInFreshSource)
{
    SyntheticTraceSource source(phasedBehavior(), 11, 1000);
    TraceRecord record;
    for (int i = 0; i < 137; ++i) // 100 of phase A + 37 into phase B
        ASSERT_TRUE(source.next(record));
    SyntheticTraceSource::Cursor cursor = source.saveCursor();
    std::vector<TraceRecord> tail;
    while (source.next(record))
        tail.push_back(record);

    SyntheticTraceSource replay(phasedBehavior(), 11, 1000);
    replay.restoreCursor(cursor);
    EXPECT_EQ(replay.produced(), 137u);
    EXPECT_EQ(replay.currentPhase(), 1u);
    for (const TraceRecord &expected : tail) {
        ASSERT_TRUE(replay.next(record));
        ASSERT_EQ(record.addr, expected.addr);
        ASSERT_EQ(record.is_write, expected.is_write);
    }
    EXPECT_FALSE(replay.next(record));
}

TEST(SyntheticTraceSourceDeathTest, CursorShapeMismatchIsFatal)
{
    // Stream patterns carry cursor words, ZipfResident does not: the
    // phased source (one Stream phase) and a zipf-only source disagree
    // on pattern-state shape, so the restore must refuse.
    SyntheticTraceSource phased(phasedBehavior(), 11, 1000);
    SyntheticTraceSource::Cursor cursor = phased.saveCursor();
    CacheBehavior zipf_only = twoComponentBehavior();
    zipf_only.mix.resize(1); // drop the Stream component
    SyntheticTraceSource flat(zipf_only, 11, 1000);
    EXPECT_DEATH(flat.restoreCursor(cursor), "shape");
}

TEST(FileTraceSourceTest, CursorRoundTripResumesExactPosition)
{
    const AppProfile &app = findApp("li");
    std::string path = testing::TempDir() + "/capsim_cursor_test.din";
    SyntheticTraceSource writer(app.cache, app.seed, 3000);
    ASSERT_EQ(writeTraceFile(path, writer, 3000), 3000u);

    FileTraceSource source(path);
    TraceRecord record;
    for (int i = 0; i < 1234; ++i)
        ASSERT_TRUE(source.next(record));
    FileTraceSource::Cursor cursor = source.saveCursor();
    std::vector<TraceRecord> tail;
    while (source.next(record))
        tail.push_back(record);
    EXPECT_EQ(tail.size(), 3000u - 1234u);

    FileTraceSource replay(path);
    replay.restoreCursor(cursor);
    EXPECT_EQ(replay.produced(), 1234u);
    for (const TraceRecord &expected : tail) {
        ASSERT_TRUE(replay.next(record));
        ASSERT_EQ(record.addr, expected.addr);
        ASSERT_EQ(record.is_write, expected.is_write);
    }
    EXPECT_FALSE(replay.next(record));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Workload suite
// ---------------------------------------------------------------------

TEST(WorkloadsTest, SuiteHasAllTwentyTwoApplications)
{
    const auto &suite = workloadSuite();
    EXPECT_EQ(suite.size(), 22u);
    std::set<std::string> names;
    for (const AppProfile &app : suite)
        names.insert(app.name);
    EXPECT_EQ(names.size(), 22u);
    for (const char *expected :
         {"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex", "airshed", "stereo", "radar", "appcg", "tomcatv",
          "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d", "apsi",
          "fpppp", "wave5"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
}

TEST(WorkloadsTest, GoExcludedFromCacheStudyOnly)
{
    // The paper could not instrument go with Atom: 21 cache apps,
    // 22 IQ apps.
    EXPECT_EQ(cacheStudyApps().size(), 21u);
    EXPECT_EQ(iqStudyApps().size(), 22u);
    for (const AppProfile &app : cacheStudyApps())
        EXPECT_NE(app.name, "go");
}

TEST(WorkloadsTest, FindAppReturnsMatch)
{
    const AppProfile &app = findApp("stereo");
    EXPECT_EQ(app.name, "stereo");
    EXPECT_EQ(app.suite, Suite::Cmu);
}

TEST(WorkloadsDeathTest, FindAppUnknownIsFatal)
{
    EXPECT_EXIT(findApp("doom"), testing::ExitedWithCode(1), "unknown");
}

TEST(WorkloadsTest, ProfilesAreInternallyConsistent)
{
    for (const AppProfile &app : workloadSuite()) {
        EXPECT_FALSE(app.cache.mix.empty()) << app.name;
        EXPECT_GT(app.cache.refs_per_instr, 0.0) << app.name;
        EXPECT_LE(app.cache.refs_per_instr, 1.0) << app.name;
        EXPECT_GE(app.cache.write_fraction, 0.0) << app.name;
        EXPECT_LE(app.cache.write_fraction, 1.0) << app.name;
        double total_weight = 0.0;
        for (const PatternSpec &spec : app.cache.mix) {
            EXPECT_GT(spec.weight, 0.0) << app.name;
            EXPECT_GE(spec.region_bytes, kBlock) << app.name;
            total_weight += spec.weight;
        }
        EXPECT_NEAR(total_weight, 1.0, 0.01) << app.name;

        EXPECT_FALSE(app.ilp.phases.empty()) << app.name;
        EXPECT_FALSE(app.ilp.schedule.empty()) << app.name;
        for (const PhaseSegment &seg : app.ilp.schedule) {
            EXPECT_GE(seg.phase, 0) << app.name;
            EXPECT_LT(static_cast<size_t>(seg.phase),
                      app.ilp.phases.size()) << app.name;
            EXPECT_GT(seg.length_instrs, 0u) << app.name;
        }
        for (const IlpPhase &phase : app.ilp.phases) {
            EXPECT_GE(phase.min_dep_distance, 1u) << app.name;
            EXPECT_GE(phase.mean_dep_distance, 1.0) << app.name;
            EXPECT_GE(phase.short_lat_cycles, 1) << app.name;
            EXPECT_GE(phase.long_lat_cycles, phase.short_lat_cycles)
                << app.name;
        }
    }
}

TEST(WorkloadsTest, SeedsAreUnique)
{
    std::set<uint64_t> seeds;
    for (const AppProfile &app : workloadSuite())
        seeds.insert(app.seed);
    EXPECT_EQ(seeds.size(), workloadSuite().size());
}

TEST(WorkloadsTest, SuiteNames)
{
    EXPECT_STREQ(suiteName(Suite::SpecInt), "SPECint95");
    EXPECT_STREQ(suiteName(Suite::SpecFp), "SPECfp95");
    EXPECT_STREQ(suiteName(Suite::Cmu), "CMU");
    EXPECT_STREQ(suiteName(Suite::Nas), "NAS");
}

TEST(WorkloadsTest, PhasedAppsHaveMultiplePhases)
{
    // turb3d and vortex carry the Figure 12/13 phase structure.
    EXPECT_GE(findApp("turb3d").ilp.phases.size(), 2u);
    EXPECT_GE(findApp("turb3d").ilp.schedule.size(), 2u);
    EXPECT_GE(findApp("vortex").ilp.phases.size(), 2u);
    EXPECT_GT(findApp("vortex").ilp.schedule.size(), 20u);
}

// ---------------------------------------------------------------------
// Generator exactness: every distribution the shipped profiles, the
// predictor streams and the TLB model draw from matches the per-draw
// reference bodies (rng_reference.h), and the cache-study streams
// match digests recorded before those distributions were hoisted.
// ---------------------------------------------------------------------

/** Every mix of a cache behaviour: the flat mix or each phase's. */
std::vector<std::vector<PatternSpec>>
mixesOf(const CacheBehavior &cache)
{
    if (cache.phases.empty())
        return {cache.mix};
    std::vector<std::vector<PatternSpec>> mixes;
    for (const CachePhase &phase : cache.phases)
        mixes.push_back(phase.mix);
    return mixes;
}

/** The suite plus the phased demo, with short phases so a 200k-ref
 *  prefix crosses several phase switches. */
std::vector<AppProfile>
shippedCacheProfiles()
{
    std::vector<AppProfile> apps = workloadSuite();
    AppProfile phased = phasedCacheDemo();
    phased.cache.phases[0].length_refs = 30'000;
    phased.cache.phases[1].length_refs = 45'000;
    apps.push_back(phased);
    return apps;
}

TEST(GeneratorExactnessTest, ZipfMatchesReferenceOnCacheProfiles)
{
    std::set<std::pair<uint64_t, double>> shapes;
    for (const AppProfile &app : shippedCacheProfiles()) {
        for (const auto &mix : mixesOf(app.cache)) {
            for (const PatternSpec &spec : mix) {
                if (spec.kind == PatternKind::ZipfResident)
                    shapes.insert({spec.region_bytes / kBlockBytes,
                                   spec.zipf_s});
            }
        }
    }
    EXPECT_GE(shapes.size(), 15u);
    for (const auto &[n, s] : shapes)
        reference::expectZipfExact(n, s);
}

TEST(GeneratorExactnessTest, ZipfMatchesReferenceOnPredictorAndTlbSites)
{
    std::set<std::pair<uint64_t, double>> shapes;
    for (const AppProfile &app : workloadSuite()) {
        shapes.insert(
            {core::bpredBehaviorFor(app.name).stream.static_branches,
             ooo::BranchStream::kSiteZipfS});
        ooo::ValueBehavior value = core::vpredBehaviorFor(app.name);
        shapes.insert({value.static_sites, value.popularity_s});
        core::TlbBehavior tlb = core::tlbBehaviorFor(app.name);
        shapes.insert({tlb.pages, tlb.zipf_s});
    }
    EXPECT_GE(shapes.size(), 25u);
    for (const auto &[n, s] : shapes)
        reference::expectZipfExact(n, s);
}

TEST(GeneratorExactnessTest, WeightedMatchesReferenceOnCacheMixes)
{
    std::set<std::vector<double>> mixes;
    for (const AppProfile &app : shippedCacheProfiles()) {
        for (const auto &mix : mixesOf(app.cache)) {
            std::vector<double> weights;
            for (const PatternSpec &spec : mix)
                weights.push_back(spec.weight);
            mixes.insert(weights);
        }
    }
    for (const std::vector<double> &weights : mixes)
        reference::expectWeightedExact(weights);
}

TEST(GeneratorExactnessTest, GeometricMatchesReferenceOnIlpPhases)
{
    std::set<std::pair<double, uint64_t>> shapes;
    for (const AppProfile &app : workloadSuite()) {
        for (const IlpPhase &phase : app.ilp.phases) {
            uint64_t floor = std::max<uint32_t>(1, phase.min_dep_distance);
            uint64_t cap = ooo::kMaxDepDistance - floor;
            shapes.insert(
                {1.0 / std::max(1.0, phase.mean_dep_distance), cap});
            shapes.insert(
                {1.0 / std::max(1.0, phase.mean_dep_distance2), cap});
        }
    }
    for (const auto &[p, cap] : shapes)
        reference::expectGeometricExact(p, cap);
}

/** FNV-1a over the 8 little-endian bytes of @p word. */
uint64_t
fnvWord(uint64_t h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
fnvRecords(uint64_t h, const TraceRecord *records, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        h = fnvWord(h, records[i].addr);
        h = fnvWord(h, records[i].is_write ? 1 : 0);
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Drain @p source with nextBatch() into the running digest @p h. */
uint64_t
fnvBatched(uint64_t h, SyntheticTraceSource &source)
{
    std::vector<TraceRecord> batch(kTraceBatch);
    while (uint64_t n = source.nextBatch(batch.data(), kTraceBatch))
        h = fnvRecords(h, batch.data(), n);
    return h;
}

TEST(GeneratorExactnessTest, CacheStudyStreamsMatchGoldenDigests)
{
    // Digests of the first 200k references of each stream, recorded
    // with the per-draw Zipf/weighted generator.
    const std::map<std::string, uint64_t> golden = {
        {"m88ksim", 0x757bdc504b1c8c4fULL},
        {"gcc", 0x9e1a12ab0cb88095ULL},
        {"compress", 0x8cdfc60f969947cbULL},
        {"li", 0x0110c588f157d879ULL},
        {"ijpeg", 0xe958fdceefb8f6d1ULL},
        {"perl", 0x3d4824a188f5c980ULL},
        {"vortex", 0xe4d1ef01352b8ee0ULL},
        {"airshed", 0xde64fa4a17ddcc69ULL},
        {"stereo", 0x923301e6cefe0136ULL},
        {"radar", 0xb892134c3151d828ULL},
        {"appcg", 0x9a3717668116e2c1ULL},
        {"tomcatv", 0xf8abf83f240222a1ULL},
        {"swim", 0x0536628bfb334fb3ULL},
        {"su2cor", 0x818a826a8ba40850ULL},
        {"hydro2d", 0xc44744e41a8f0329ULL},
        {"mgrid", 0x9c6352215d36535eULL},
        {"applu", 0x427c0f0879662d9eULL},
        {"turb3d", 0xd7fd28e7a340f22eULL},
        {"apsi", 0xd12d05acdc92b839ULL},
        {"fpppp", 0xda7d854eeb5eeab5ULL},
        {"wave5", 0x4c84d0c5c98ff2e7ULL},
        {"phased-demo", 0x2aefb5ebf040561bULL}
    };
    constexpr uint64_t kRefs = 200'000;
    constexpr uint64_t kSplit = 100'003;

    std::vector<AppProfile> apps = cacheStudyApps();
    apps.push_back(shippedCacheProfiles().back()); // the phased demo
    ASSERT_EQ(apps.size(), golden.size());
    for (const AppProfile &app : apps) {
        SCOPED_TRACE(app.name);
        const uint64_t want = golden.at(app.name);

        SyntheticTraceSource single(app.cache, app.seed, kRefs);
        uint64_t h = kFnvBasis;
        TraceRecord record;
        while (single.next(record))
            h = fnvRecords(h, &record, 1);
        EXPECT_EQ(h, want) << "next()";

        SyntheticTraceSource batched(app.cache, app.seed, kRefs);
        EXPECT_EQ(fnvBatched(kFnvBasis, batched), want) << "nextBatch()";

        // First part by next(), the rest by nextBatch() in a fresh
        // source restored from the cursor.
        SyntheticTraceSource head(app.cache, app.seed, kRefs);
        h = kFnvBasis;
        for (uint64_t i = 0; i < kSplit; ++i) {
            ASSERT_TRUE(head.next(record));
            h = fnvRecords(h, &record, 1);
        }
        SyntheticTraceSource tail(app.cache, app.seed, kRefs);
        tail.restoreCursor(head.saveCursor());
        EXPECT_EQ(fnvBatched(h, tail), want) << "cursor split";
    }
}

} // namespace
} // namespace cap::trace
