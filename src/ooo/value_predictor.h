/**
 * @file
 * Stride value predictor and synthetic value streams.
 *
 * The paper lists "structures required for proposed new mechanisms
 * such as value prediction [16]" among the RAM-based candidates for
 * complexity adaptation (Section 2).  A value-prediction table trades
 * capacity (coverage of the instruction working set) against read
 * delay, exactly like the branch predictor -- and value prediction is
 * the one mechanism that lets dependent instructions issue *before*
 * their producers, "exceeding the dataflow limit".
 *
 * The predictor is a tag-less last-value + stride table with 2-bit
 * confidence; only confident predictions count as coverage (the
 * standard high-confidence filter, which keeps mispredictions
 * negligible).
 */

#ifndef CAPSIM_OOO_VALUE_PREDICTOR_H
#define CAPSIM_OOO_VALUE_PREDICTOR_H

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace cap::ooo {

/** One value-producing dynamic instruction. */
struct ValueRecord
{
    Addr pc = 0;
    uint64_t value = 0;
};

/** Coverage statistics of a value predictor. */
struct ValuePredictorStats
{
    uint64_t lookups = 0;
    /** Confident predictions made. */
    uint64_t predictions = 0;
    /** Confident predictions that were correct. */
    uint64_t correct = 0;

    /** Fraction of lookups covered by a confident correct prediction. */
    double coverage() const
    {
        return lookups ? static_cast<double>(correct) /
                         static_cast<double>(lookups)
                       : 0.0;
    }

    /** Accuracy of the confident predictions. */
    double accuracy() const
    {
        return predictions ? static_cast<double>(correct) /
                             static_cast<double>(predictions)
                           : 0.0;
    }
};

/** Tag-less last-value + stride table with 2-bit confidence. */
class StrideValuePredictor
{
  public:
    /** @param entries Table entries (power of two). */
    explicit StrideValuePredictor(int entries);

    int entries() const { return static_cast<int>(table_.size()); }

    /**
     * Predict-and-update for one dynamic value.
     * @retval true A confident, correct prediction was made.
     */
    bool predictAndUpdate(const ValueRecord &record);

    const ValuePredictorStats &stats() const { return stats_; }
    void resetStats() { stats_ = ValuePredictorStats(); }

  private:
    struct Entry
    {
        uint64_t last_value = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
    };

    size_t indexOf(Addr pc) const;

    std::vector<Entry> table_;
    ValuePredictorStats stats_;
};

/**
 * Character of an application's value-producing instructions: a
 * fraction of the static sites produce stride-predictable sequences
 * (loop counters, array addresses); the rest are effectively random.
 */
struct ValueBehavior
{
    /** Static value-producing sites. */
    int static_sites = 1024;
    /** Fraction of sites with stride-predictable values. */
    double predictable_fraction = 0.55;
    /** Zipf exponent of site popularity. */
    double popularity_s = 0.8;
};

/** Deterministic generator of an application's value stream. */
class ValueStream
{
  public:
    ValueStream(const ValueBehavior &behavior, uint64_t seed);

    ValueRecord next();

  private:
    ValueBehavior behavior_;
    Rng rng_;
    Rng::ZipfDist site_popularity_;
    std::vector<uint64_t> site_value_;
    std::vector<int64_t> site_stride_;
    std::vector<uint8_t> site_predictable_;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_VALUE_PREDICTOR_H
