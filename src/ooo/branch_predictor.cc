#include "branch_predictor.h"

#include "util/status.h"

namespace cap::ooo {

namespace {

/** 2-bit saturating counter transitions. */
uint8_t
bump(uint8_t counter, bool taken)
{
    if (taken)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

/** Site count as a draw range, checked before the Zipf table is built. */
uint64_t
siteCount(int sites)
{
    capAssert(sites >= 1, "need branch sites");
    return static_cast<uint64_t>(sites);
}

} // namespace

bool
BranchPredictor::predictAndUpdate(const BranchRecord &branch)
{
    bool prediction = predict(branch.pc);
    ++stats_.branches;
    if (prediction != branch.taken)
        ++stats_.mispredictions;
    update(branch.pc, branch.taken);
    return prediction;
}

BimodalPredictor::BimodalPredictor(int entries)
    : table_(static_cast<size_t>(entries), 2)
{
    capAssert(entries >= 2 && isPowerOfTwo(static_cast<uint64_t>(entries)),
              "table entries must be a power of two");
}

size_t
BimodalPredictor::indexOf(Addr pc) const
{
    return static_cast<size_t>((pc >> 2) & (table_.size() - 1));
}

bool
BimodalPredictor::predict(Addr pc)
{
    return table_[indexOf(pc)] >= 2;
}

void
BimodalPredictor::update(Addr pc, bool taken)
{
    uint8_t &counter = table_[indexOf(pc)];
    counter = bump(counter, taken);
}

GsharePredictor::GsharePredictor(int entries, int history_bits)
    : table_(static_cast<size_t>(entries), 2)
{
    capAssert(entries >= 2 && isPowerOfTwo(static_cast<uint64_t>(entries)),
              "table entries must be a power of two");
    capAssert(history_bits >= 1 && history_bits <= 24,
              "history length out of range");
    history_mask_ = (1ULL << history_bits) - 1;
}

size_t
GsharePredictor::indexOf(Addr pc) const
{
    return static_cast<size_t>(((pc >> 2) ^ history_) &
                               (table_.size() - 1));
}

bool
GsharePredictor::predict(Addr pc)
{
    return table_[indexOf(pc)] >= 2;
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    uint8_t &counter = table_[indexOf(pc)];
    counter = bump(counter, taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & history_mask_;
}

BranchStream::BranchStream(const BranchBehavior &behavior, uint64_t seed)
    : behavior_(behavior),
      rng_(seed),
      site_popularity_(siteCount(behavior.static_branches), kSiteZipfS)
{
    capAssert(behavior.pattern_period >= 2, "pattern period too short");
    site_bias_.resize(static_cast<size_t>(behavior.static_branches));
    site_phase_.assign(static_cast<size_t>(behavior.static_branches), 0);
    Rng setup = rng_.split();
    for (uint8_t &bias : site_bias_)
        bias = setup.chance(0.6) ? 1 : 0;
}

BranchRecord
BranchStream::next()
{
    // Sites are accessed with Zipf popularity: a few hot loops plus a
    // long tail, which is what makes table capacity matter.
    uint64_t site = site_popularity_(rng_);
    BranchRecord record;
    record.pc = 0x400000 + site * 4;

    bool biased_site =
        static_cast<double>(site % 100) <
        behavior_.biased_fraction * 100.0;
    if (biased_site) {
        bool outcome = site_bias_[site] != 0;
        if (rng_.chance(behavior_.bias_noise))
            outcome = !outcome;
        record.taken = outcome;
    } else {
        // Periodic pattern: taken except once per period.
        uint32_t phase = site_phase_[site]++;
        bool outcome =
            (phase % static_cast<uint32_t>(behavior_.pattern_period)) != 0;
        if (rng_.chance(behavior_.pattern_noise))
            outcome = !outcome;
        record.taken = outcome;
    }
    return record;
}

} // namespace cap::ooo
