/**
 * @file
 * The complexity-adaptive D-cache hierarchy: timing derivation plus
 * trace-driven performance evaluation (paper Section 5.2).
 *
 * Timing follows the paper's methodology: increment delays come from
 * the CACTI-style model, global address/data bus delays from Bakoglu
 * optimal buffering, the L1 increment delay sets the processor cycle
 * (pipelined over three cycles), L2 hit latency is
 * ceil(L2 access / cycle), and the average L2 miss costs 30 ns.
 */

#ifndef CAPSIM_CORE_ADAPTIVE_CACHE_H
#define CAPSIM_CORE_ADAPTIVE_CACHE_H

#include <vector>

#include "cache/exclusive_hierarchy.h"
#include "core/machine.h"
#include "mem/mem_model.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "timing/cacti.h"
#include "timing/clock_table.h"
#include "timing/technology.h"
#include "timing/wire.h"
#include "trace/profile.h"
#include "util/units.h"

namespace cap::core {

/** Timing of one boundary placement. */
struct CacheBoundaryTiming
{
    /** Increments assigned to L1. */
    int l1_increments;
    /** L1 capacity, bytes. */
    uint64_t l1_bytes;
    /** L1 associativity under the mapping rule. */
    int l1_assoc;
    /** Processor cycle time, ns. */
    Nanoseconds cycle_ns;
    /** L2 hit latency, cycles. */
    Cycles l2_hit_cycles;
    /** L2 miss service latency, cycles. */
    Cycles miss_cycles;
};

namespace detail {
/** Fold one dram backend's `dram.*`/`mshr.*` statistics into a
 *  counter registry (shared by every dram-mode evaluation loop). */
void foldMemCounters(obs::CounterRegistry &registry,
                     const mem::DramBackend &backend);
} // namespace detail

/**
 * The blocking pipeline clock of a dram-priced walk, shared by every
 * per-config engine.  It is the paper's TPI model run forward: each
 * reference advances the clock by its base time, an L2 hit adds the
 * L2 access, and a miss adds the stall the backend charges at the
 * clock's current time, so misses reach the backend at their real
 * spacing.  step() performs those additions in that order; every
 * dram result's bits depend on it.  The one-pass DramLanes repeat the
 * same steps lane by lane from stack depths.
 */
class DramClock
{
  public:
    explicit DramClock(const mem::DramParams &params) : backend_(params)
    {
    }

    /** Set the per-reference time @p ref_ns and the L2-hit time
     *  @p l2_hit_ns; the clock and the backend state carry on. */
    void setSteps(Nanoseconds ref_ns, Nanoseconds l2_hit_ns)
    {
        ref_ns_ = ref_ns;
        l2_hit_ns_ = l2_hit_ns;
    }

    /** The steps of a walk at @p timing's clock. */
    void setSteps(const CacheBoundaryTiming &timing, double refs_per_instr)
    {
        setSteps(timing.cycle_ns /
                     (CacheMachine::kBaseIpc * refs_per_instr),
                 timing.cycle_ns *
                     static_cast<double>(timing.l2_hit_cycles));
    }

    /** Advance past one reference to @p addr that ended in
     *  @p outcome; returns the stall a miss charged, else 0. */
    Nanoseconds step(cache::AccessOutcome outcome, Addr addr)
    {
        now_ns_ += ref_ns_;
        if (outcome == cache::AccessOutcome::L2Hit) {
            now_ns_ += l2_hit_ns_;
        } else if (outcome == cache::AccessOutcome::Miss) {
            Nanoseconds stall = backend_.onMiss(addr, now_ns_);
            now_ns_ += stall;
            return stall;
        }
        return 0.0;
    }

    const mem::DramBackend &backend() const { return backend_; }

  private:
    mem::DramBackend backend_;
    Nanoseconds now_ns_ = 0.0;
    Nanoseconds ref_ns_ = 0.0;
    Nanoseconds l2_hit_ns_ = 0.0;
};

/** Performance of one application under one boundary placement. */
struct CachePerf
{
    int l1_increments = 0;
    uint64_t refs = 0;
    uint64_t instructions = 0;
    double l1_miss_ratio = 0.0;
    double global_miss_ratio = 0.0;
    /** Average time per instruction, ns. */
    double tpi_ns = 0.0;
    /** Miss-stall component of TPI, ns. */
    double tpi_miss_ns = 0.0;
};

/**
 * Binds geometry, timing and the exclusive-hierarchy simulator into
 * the adaptive cache CAS.
 */
class AdaptiveCacheModel
{
  public:
    /**
     * @param geometry Increment-pool geometry (default: the paper's
     *        128 KB pool of 16 8KB 2-way increments).
     * @param tech Implementation technology (paper: 0.18 um).
     */
    explicit AdaptiveCacheModel(
        const cache::HierarchyGeometry &geometry = {},
        const timing::Technology &tech = timing::Technology::um180());

    const cache::HierarchyGeometry &geometry() const { return geometry_; }

    /** Access time of one increment (local tag+data), ns. */
    Nanoseconds incrementAccessNs() const { return increment_access_ns_; }

    /** Global bus delay to reach increment @p n (1-based), ns. */
    Nanoseconds busDelayNs(int n) const;

    /** Timing of a boundary placement (1..increments-1). */
    CacheBoundaryTiming boundaryTiming(int l1_increments) const;

    /** Timings of every boundary the study sweeps. */
    std::vector<CacheBoundaryTiming> allBoundaryTimings() const;

    /** The clock table (exposed for quantization experiments). */
    timing::ClockTable &clockTable() { return clock_table_; }

    /**
     * Select the memory backend serving L2 misses.  The default Flat
     * config reproduces the historical fixed kL2MissNs edge exactly;
     * Dram routes misses through a mem::DramBackend, making miss cost
     * depend on row locality and bank and channel contention
     * (docs/MEMORY.md).
     */
    void setMemConfig(const mem::MemConfig &config) { mem_ = config; }
    const mem::MemConfig &memConfig() const { return mem_; }

    /**
     * Trace-driven evaluation: run @p refs references of @p app with
     * the boundary fixed at @p l1_increments and derive TPI/TPImiss
     * (under dram, from a DramClock walk).
     */
    CachePerf evaluate(const trace::AppProfile &app, int l1_increments,
                       uint64_t refs) const;

    /**
     * As evaluate(), additionally recording observability: the
     * hierarchy's hit/miss/writeback counters and service-way
     * histogram into @p registry, and one Cell summary record into
     * @p trace.  Both observers null reduces to evaluate(); the
     * performance result is always bit-identical to evaluate().
     */
    CachePerf evaluateObserved(const trace::AppProfile &app,
                               int l1_increments, uint64_t refs,
                               obs::DecisionTrace *trace,
                               obs::CounterRegistry *registry) const;

    /** Evaluate every boundary in [1, max_l1_increments]. */
    std::vector<CachePerf> sweep(const trace::AppProfile &app,
                                 int max_l1_increments,
                                 uint64_t refs) const;

    /**
     * One-pass counterpart of sweep(): a single stack-distance pass
     * over the trace (cache::StackSimulator) scores every boundary in
     * [1, max_l1_increments] at once.  Bit-identical to sweep() --
     * the reconstruction is exact, not approximate (docs/PERF.md) --
     * at ~1/max_l1_increments the simulation cost.  Under a dram
     * backend the walk also emits each reference's recency depth, and
     * one lane per boundary replays evaluate()'s DramClock steps
     * from it, step for step (docs/PERF.md section 13).
     */
    std::vector<CachePerf> sweepOnePass(const trace::AppProfile &app,
                                        int max_l1_increments,
                                        uint64_t refs) const;

    /**
     * As sweepOnePass(), recording observability: per-boundary Cell
     * trace records and `cache.*` counters identical to what
     * evaluateObserved() would emit for each boundary (except the
     * `cache.service_way` histogram, whose physical-way breakdown is
     * path-dependent and not reconstructible from stack depths), plus
     * `stacksim.*` counters describing the one-pass run itself.  Under
     * dram each boundary's `dram.*`/`mshr.*` counters are folded too,
     * equal to evaluateObserved()'s.
     */
    std::vector<CachePerf>
    sweepOnePassObserved(const trace::AppProfile &app,
                         int max_l1_increments, uint64_t refs,
                         obs::DecisionTrace *trace,
                         obs::CounterRegistry *registry) const;

    /**
     * Derive TPI from raw event counts (shared by evaluate() and the
     * latency-adaptive variant; also used by tests to check the
     * accounting identity).
     */
    CachePerf perfFromStats(const cache::CacheStats &stats,
                            const CacheBoundaryTiming &timing,
                            double refs_per_instr) const;

    /**
     * Dram-mode counterpart of perfFromStats(): the miss term is the
     * backend-measured stall @p dram_stall_ns instead of
     * misses * miss_cycles (L2 hits still cost l2_hit_cycles each).
     */
    CachePerf perfFromDram(const cache::CacheStats &stats,
                           const CacheBoundaryTiming &timing,
                           double refs_per_instr,
                           Nanoseconds dram_stall_ns) const;

  private:
    cache::HierarchyGeometry geometry_;
    const timing::Technology *tech_;
    timing::WireModel wires_;
    timing::ClockTable clock_table_;
    Nanoseconds increment_access_ns_;
    /** Physical pitch of one increment along the bus, mm. */
    double increment_pitch_mm_;
    mem::MemConfig mem_;
};

} // namespace cap::core

#endif // CAPSIM_CORE_ADAPTIVE_CACHE_H
