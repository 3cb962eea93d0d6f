#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace cap::mem {

/** Which memory backend serves L2 misses. Flat is the historical
 *  fixed-latency edge (CacheMachine::kL2MissNs per miss) and the
 *  differential-test reference; Dram is the banked row-buffer model
 *  with blocking misses. */
enum class MemKind { Flat, Dram };

/** Row-buffer management policy. Open keeps the row latched after an
 *  access (hits are cheap, conflicts pay precharge+activate); Closed
 *  precharges eagerly, so every access pays activate+read but never a
 *  conflict. */
enum class PagePolicy { Open, Closed };

/** Timing knobs for the banked DRAM backend. The defaults are chosen
 *  so that a fully row-conflicting, bank-serial workload degrades
 *  toward (and past) the historical 30 ns flat edge while streaming
 *  row hits run about twice as fast. */
struct DramParams {
    /** Number of independent banks (row IDs interleave across them). */
    uint32_t banks = 8;
    /** Row-buffer size in bytes; consecutive addresses share a row. */
    uint64_t row_bytes = 2048;
    /** Access that hits the open row: column access + transfer. */
    Nanoseconds row_hit_ns = 15.0;
    /** Access to an idle (precharged) bank: activate + column; the
     *  default matches the historical flat edge (kL2MissNs). */
    Nanoseconds row_miss_ns = 2.0 * row_hit_ns;
    /** Access that must close another row first: precharge +
     *  activate + column. */
    Nanoseconds row_conflict_ns = 3.0 * row_hit_ns;
    /** Channel occupancy per transfer; back-to-back accesses to
     *  different banks still serialize on this. */
    Nanoseconds burst_ns = 4.0;
    /** Row-buffer management policy. */
    PagePolicy page_policy = PagePolicy::Open;
};

/** Full memory configuration as selected by `--mem=...`. */
struct MemConfig {
    MemKind kind = MemKind::Flat;
    DramParams dram;

    bool isDram() const { return kind == MemKind::Dram; }
};

/** Parse a `--mem` spec: "flat", "dram", or "dram:" followed by
 *  comma-separated knobs (banks, row, hit, miss, conflict, burst,
 *  policy=open|closed). Returns false and fills @p error on a
 *  malformed spec; @p config is untouched on failure. */
bool parseMemSpec(const std::string &spec, MemConfig &config,
                  std::string &error);

/** Aggregate DRAM-side statistics for one backend instance. */
struct DramStats {
    uint64_t accesses = 0;
    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t row_conflicts = 0;
    /** Sum of pure service latencies (completion - issue); each term
     *  is at least row_hit_ns, the model's latency floor. */
    Nanoseconds service_ns = 0.0;
    /** Sum of queueing waits (issue - arrival) lost to busy banks and
     *  channel contention. */
    Nanoseconds queue_ns = 0.0;
};

/** Aggregate miss-side statistics, kept under the historical `mshr.*`
 *  counter names. Misses block, so every miss is one allocation and
 *  nothing ever merges or waits for a free entry: allocs equals the
 *  misses presented, merges and full_stalls stay 0. */
struct MshrStats {
    uint64_t allocs = 0;
    uint64_t merges = 0;
    uint64_t full_stalls = 0;
    /** Pipeline stall charged across all misses (what the perf models
     *  add to compute time in place of misses * kL2MissNs). */
    Nanoseconds stall_ns = 0.0;
};

/** Banked DRAM timing backend with blocking misses.
 *
 *  Deterministic and trace-ordered: the caller walks the reference
 *  stream maintaining a running pipeline clock `now_ns` and presents
 *  each L2 miss in order; onMiss() returns the stall to charge the
 *  pipeline, which is the miss's whole wait (queueing behind a busy
 *  bank or the channel, plus service). The paper prices a miss as a
 *  blocking stall, and every caller adds the stall to its clock before
 *  the next reference, so no miss is ever in flight when the next one
 *  arrives (docs/MEMORY.md section 1). */
class DramBackend {
public:
    explicit DramBackend(const DramParams &params);

    /** Present one L2 miss for @p addr at pipeline time @p now_ns;
     *  returns the stall (>= 0) to charge the pipeline: its completion
     *  time minus @p now_ns. */
    Nanoseconds onMiss(Addr addr, Nanoseconds now_ns);

    const DramParams &params() const { return params_; }
    const DramStats &dramStats() const { return dram_; }
    const MshrStats &mshrStats() const { return mshr_; }

private:
    struct Bank {
        uint64_t open_row = 0;
        bool row_valid = false;
        Nanoseconds busy_until = 0.0;
    };
    /** Issue one DRAM access and return its completion time. */
    Nanoseconds serviceAccess(Addr addr, Nanoseconds ready_ns);

    DramParams params_;
    std::vector<Bank> banks_;
    Nanoseconds channel_free_ = 0.0;
    DramStats dram_;
    MshrStats mshr_;
};

} // namespace cap::mem
