/**
 * @file
 * Branch predictors and synthetic branch streams.
 *
 * Branch predictor tables are another RAM structure the paper marks
 * as a complexity-adaptation candidate (Section 5.4): bigger tables
 * reduce aliasing but lengthen the lookup.  CAPsim provides the two
 * classic table predictors of the era (bimodal and gshare) plus a
 * deterministic synthetic branch stream whose predictability is
 * controlled per application.
 */

#ifndef CAPSIM_OOO_BRANCH_PREDICTOR_H
#define CAPSIM_OOO_BRANCH_PREDICTOR_H

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace cap::ooo {

/** One dynamic conditional branch. */
struct BranchRecord
{
    Addr pc = 0;
    bool taken = false;
};

/** Predictor accuracy counters. */
struct PredictorStats
{
    uint64_t branches = 0;
    uint64_t mispredictions = 0;

    double mispredictRatio() const
    {
        return branches ? static_cast<double>(mispredictions) /
                          static_cast<double>(branches)
                        : 0.0;
    }
};

/** Common predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict, update, and record accuracy for one branch. */
    bool predictAndUpdate(const BranchRecord &branch);

    const PredictorStats &stats() const { return stats_; }
    void resetStats() { stats_ = PredictorStats(); }

  protected:
    virtual bool predict(Addr pc) = 0;
    virtual void update(Addr pc, bool taken) = 0;

  private:
    PredictorStats stats_;
};

/** Table of 2-bit saturating counters indexed by PC. */
class BimodalPredictor : public BranchPredictor
{
  public:
    /** @param entries Counter-table entries (power of two). */
    explicit BimodalPredictor(int entries);

    int entries() const { return static_cast<int>(table_.size()); }

  protected:
    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;

  private:
    size_t indexOf(Addr pc) const;
    std::vector<uint8_t> table_;
};

/** Global-history-xor-PC indexed table of 2-bit counters. */
class GsharePredictor : public BranchPredictor
{
  public:
    /**
     * @param entries Counter-table entries (power of two).
     * @param history_bits Global history length.
     */
    GsharePredictor(int entries, int history_bits);

    int entries() const { return static_cast<int>(table_.size()); }

  protected:
    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;

  private:
    size_t indexOf(Addr pc) const;
    std::vector<uint8_t> table_;
    uint64_t history_ = 0;
    uint64_t history_mask_;
};

/**
 * Character of an application's conditional branches.  A fraction of
 * the static branches is strongly biased (predictable with any
 * table); the rest follow a periodic taken-pattern with noise, so
 * accuracy depends on whether the table can keep the working set of
 * static branches apart (aliasing).
 */
struct BranchBehavior
{
    /** Static conditional branch sites. */
    int static_branches = 512;
    /** Fraction of sites that are strongly biased. */
    double biased_fraction = 0.7;
    /** Probability a biased site's branch goes against its bias. */
    double bias_noise = 0.03;
    /** Pattern period of the unbiased sites. */
    int pattern_period = 4;
    /** Probability an unbiased branch deviates from its pattern. */
    double pattern_noise = 0.10;
};

/** Deterministic generator of an application's branch stream. */
class BranchStream
{
  public:
    /** Zipf exponent of branch-site popularity. */
    static constexpr double kSiteZipfS = 0.8;

    BranchStream(const BranchBehavior &behavior, uint64_t seed);

    BranchRecord next();

  private:
    BranchBehavior behavior_;
    Rng rng_;
    Rng::ZipfDist site_popularity_;
    /** Per-site state: bias direction or pattern phase. */
    std::vector<uint8_t> site_bias_;
    std::vector<uint32_t> site_phase_;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_BRANCH_PREDICTOR_H
