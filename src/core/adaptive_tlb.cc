#include "adaptive_tlb.h"

#include <map>

#include "cache/tlb.h"
#include "util/rng.h"
#include "util/status.h"

namespace cap::core {

namespace {

// CAM match-path constants at the 0.25 um reference, ns.  Calibrated
// so 128 entries fit under the smallest cache cycle (~0.62 ns at
// 0.18 um) while 256 entries force a slower clock.
constexpr double kLookupFixed = 0.30;
constexpr double kLookupPerEntry = 0.0042;

} // namespace

TlbBehavior
tlbBehaviorFor(const std::string &app_name)
{
    // Defaults cover the compact-working-set majority; exceptions are
    // the scientific codes with page-rich or streaming behaviour.
    static const std::map<std::string, TlbBehavior> exceptions = {
        // Large scattered data structures: page-hungry.
        {"stereo", {130, 1.05, 0.0008, 256}},
        {"appcg", {150, 1.0, 0.0005, 256}},
        {"airshed", {96, 1.1, 0.0010, 256}},
        {"swim", {110, 1.05, 0.0010, 256}},
        {"wave5", {88, 1.1, 0.0010, 256}},
        // Streaming codes: compulsory page misses dominate.
        {"applu", {40, 1.1, 0.0030, 256}},
        {"tomcatv", {36, 1.1, 0.0025, 256}},
        {"mgrid", {36, 1.1, 0.0020, 256}},
        {"su2cor", {56, 1.1, 0.0012, 256}},
        {"hydro2d", {56, 1.1, 0.0012, 256}},
        // gcc touches many small regions (text+data mix).
        {"gcc", {72, 1.15, 0.0008, 256}},
        {"vortex", {68, 1.15, 0.0008, 256}},
    };
    auto it = exceptions.find(app_name);
    if (it != exceptions.end())
        return it->second;
    return TlbBehavior{};
}

AdaptiveTlbModel::AdaptiveTlbModel(const timing::Technology &tech)
    : tech_(&tech)
{
}

std::vector<int>
AdaptiveTlbModel::studySizes()
{
    return {32, 64, 128, 256};
}

Nanoseconds
AdaptiveTlbModel::lookupNs(int entries) const
{
    capAssert(entries >= 1, "TLB needs entries");
    return tech_->deviceScale() *
           (kLookupFixed + kLookupPerEntry * static_cast<double>(entries));
}

TlbPerf
AdaptiveTlbModel::evaluate(const trace::AppProfile &app, int entries,
                           uint64_t accesses) const
{
    capAssert(accesses > 0, "evaluation needs accesses");
    TlbBehavior behavior = tlbBehaviorFor(app.name);

    cache::Tlb tlb(entries);
    Rng rng(app.seed ^ 0x71b7a6b1ULL);
    const Rng::ZipfDist resident_pages(
        static_cast<uint64_t>(behavior.pages), behavior.zipf_s);
    // Streamed pages live far above the resident set and advance one
    // fresh page every stream_touches streaming references.
    const uint64_t stream_base = 1'000'000;
    uint64_t stream_count = 0;
    for (uint64_t i = 0; i < accesses; ++i) {
        uint64_t page;
        if (rng.chance(behavior.stream_fraction)) {
            page = stream_base +
                   stream_count /
                       static_cast<uint64_t>(behavior.stream_touches);
            ++stream_count;
        } else {
            page = resident_pages(rng);
        }
        tlb.accessPage(page);
    }

    TlbPerf perf;
    perf.entries = entries;
    perf.miss_ratio = tlb.stats().missRatio();
    perf.lookup_ns = lookupNs(entries);
    return perf;
}

} // namespace cap::core
