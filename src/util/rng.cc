#include "rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "status.h"

namespace cap {

namespace {

/** splitmix64: expands a single seed into well-mixed state words. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro's all-zero state is absorbing; splitmix64 cannot produce
    // four zero words from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    capAssert(lo <= hi, "Rng::range requires lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(below(span));
}

Rng::GeometricDist::GeometricDist(double p)
    : p_(p), log1m_p_(std::log1p(-p))
{
    capAssert(p > 0.0 && p <= 1.0, "geometric requires p in (0,1]");
}

uint64_t
Rng::GeometricDist::operator()(Rng &rng, uint64_t cap) const
{
    if (p_ >= 1.0)
        return 0;
    double u = rng.uniform();
    // Inverse CDF; u == 0 maps to 0 failures.
    double draw = std::floor(std::log1p(-u) / log1m_p_);
    if (draw < 0.0)
        draw = 0.0;
    uint64_t k = static_cast<uint64_t>(draw);
    return k > cap ? cap : k;
}

Rng::WeightedDist::WeightedDist(const std::vector<double> &weights)
{
    capAssert(!weights.empty(), "weighted draw over empty weights");
    cum_.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
        capAssert(w >= 0.0, "negative weight");
        total += w;
        cum_.push_back(total);
    }
    capAssert(total > 0.0, "weighted draw needs a positive total");
}

Rng::ZipfDist::ZipfDist(uint64_t n, double s)
    : n_(n),
      s_(s),
      log_form_(std::abs(s - 1.0) < 1e-9),
      total_(0.0),
      one_minus_s_(1.0 - s),
      inv_one_minus_s_(1.0 / (1.0 - s))
{
    capAssert(n > 0, "zipf over empty range");
    if (s <= 0.0)
        return;
    // Rejection-inversion would be overkill; workloads use small s and
    // moderate n, so inverting the integral approximation of the
    // generalized harmonic number is adequate and deterministic.
    double x = static_cast<double>(n);
    total_ = log_form_ ? std::log(x + 1.0)
                       : (std::pow(x + 1.0, one_minus_s_) - 1.0) /
                             one_minus_s_;

    // Bucket b holds the mantissas [b, b + 1) * 2^kShift.  u -> power(u)
    // is monotone in exact arithmetic and every step before pow/exp is
    // a monotone rounded operation, so power() of any mantissa between
    // two bucket edges lies between the two edge values up to libm's
    // < 1 ulp error.  Widening those values by a relative kMargin (far
    // above that error) and requiring both widened ends to give one
    // rank proves the rank of every bucket between the edges.  A range
    // whose edges disagree is halved, down to single buckets, which
    // stay kNoRank; edges are shared, so the table costs at most
    // kBuckets + 1 pow/exp calls, and far fewer where one rank spans
    // many buckets.
    table_.assign(kBuckets, kNoRank);
    std::vector<double> edges(kBuckets + 1,
                              std::numeric_limits<double>::quiet_NaN());
    fillTable(0, kBuckets, edges);
}

void
Rng::ZipfDist::fillTable(size_t lo, size_t hi, std::vector<double> &edges)
{
    constexpr double kMargin = 1e-12;
    // NaN marks an edge not yet computed (a NaN power() is recomputed,
    // and its ranges fall back).
    auto edge = [&](size_t e) {
        if (std::isnan(edges[e]))
            edges[e] = power(static_cast<double>(e << kShift) * 0x1.0p-53);
        return edges[e];
    };
    double v_lo = edge(lo);
    double v_hi = edge(hi);
    double a = std::min(v_lo, v_hi) * (1.0 - kMargin);
    double z = std::max(v_lo, v_hi) * (1.0 + kMargin);
    if (std::isfinite(a) && std::isfinite(z)) {
        uint64_t rank = rankOfPower(a);
        if (rank == rankOfPower(z) && rank < kNoRank) {
            std::fill(table_.begin() + static_cast<ptrdiff_t>(lo),
                      table_.begin() + static_cast<ptrdiff_t>(hi),
                      static_cast<uint32_t>(rank));
            return;
        }
    }
    if (hi - lo == 1)
        return;
    size_t mid = lo + (hi - lo) / 2;
    fillTable(lo, mid, edges);
    fillTable(mid, hi, edges);
}

double
Rng::ZipfDist::power(double u) const
{
    double target = u * total_;
    if (log_form_)
        return std::exp(target);
    return std::pow(target * one_minus_s_ + 1.0, inv_one_minus_s_);
}

uint64_t
Rng::ZipfDist::rankOfPower(double v) const
{
    double x = v - 1.0;
    if (x < 0.0)
        x = 0.0;
    uint64_t k = static_cast<uint64_t>(x);
    return k >= n_ ? n_ - 1 : k;
}

uint64_t
Rng::ZipfDist::invert(double u) const
{
    return rankOfPower(power(u));
}

double
Rng::ZipfDist::fallbackShare() const
{
    if (table_.empty())
        return 0.0;
    size_t misses = 0;
    for (uint32_t rank : table_)
        misses += rank == kNoRank ? 1 : 0;
    return static_cast<double>(misses) / static_cast<double>(table_.size());
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd3833e804f4c574bULL);
}

Rng::State
Rng::saveState() const
{
    return {s_[0], s_[1], s_[2], s_[3]};
}

void
Rng::restoreState(const State &state)
{
    capAssert((state[0] | state[1] | state[2] | state[3]) != 0,
              "all-zero Rng state is absorbing");
    for (size_t i = 0; i < 4; ++i)
        s_[i] = state[i];
}

} // namespace cap
