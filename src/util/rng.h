/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every synthetic trace and instruction stream in CAPsim is produced
 * from an explicitly seeded generator so that experiments are
 * bit-reproducible across runs and platforms.  We use xoshiro256**,
 * which has excellent statistical quality at trivial cost and a fully
 * specified algorithm (unlike std::default_random_engine).
 */

#ifndef CAPSIM_UTIL_RNG_H
#define CAPSIM_UTIL_RNG_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cap {

/**
 * Deterministic xoshiro256** generator with convenience draws used by
 * the workload generators.  Distribution mappings are implemented here
 * (not via <random>) because libstdc++ distribution algorithms are not
 * specified and may change between releases.
 */
class Rng
{
  public:
    /** Seed the generator; equal seeds yield equal sequences forever. */
    explicit Rng(uint64_t seed);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound), bound > 0. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive, lo <= hi. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p);

    /**
     * Distributions over this generator, each built once per parameter
     * set (pattern, phase or site table) with its constants hoisted.
     */
    class GeometricDist;
    class WeightedDist;
    class ZipfDist;

    /** Derive an independent child generator (for sub-streams). */
    Rng split();

    /** The four xoshiro256** state words, for checkpointing. */
    using State = std::array<uint64_t, 4>;

    /** Snapshot the generator state. */
    State saveState() const;

    /**
     * Restore a state saved by saveState(); the sequence continues
     * exactly where the snapshot was taken.
     */
    void restoreState(const State &state);

  private:
    uint64_t s_[4];
};

// The per-draw primitives are inline: every generated reference and
// micro-op makes several of them.

inline uint64_t
Rng::next()
{
    uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline uint64_t
Rng::below(uint64_t bound)
{
    capAssert(bound > 0, "Rng::below requires a positive bound");
    // Debiased multiply-shift (Lemire).
    while (true) {
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t low = static_cast<uint64_t>(m);
        if (low >= bound || low >= (-bound) % bound)
            return static_cast<uint64_t>(m >> 64);
    }
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

/**
 * Geometric-ish draw: number of failures before the first success
 * with success probability p in (0, 1], capped per draw to keep tails
 * bounded for dependency distances.  log1p(-p) is taken once here, so
 * a draw costs one uniform and one log1p.
 */
class Rng::GeometricDist
{
  public:
    explicit GeometricDist(double p);

    /** Draw, clamped to @p cap; p == 1 returns 0 without a draw. */
    uint64_t operator()(Rng &rng, uint64_t cap) const;

  private:
    double p_;
    double log1m_p_;
};

/**
 * Draw an index from a discrete distribution given by non-negative
 * weights (need not be normalized).  Holds the running sums, taken in
 * index order, so a draw is one uniform and a scan with no adds.
 */
class Rng::WeightedDist
{
  public:
    explicit WeightedDist(const std::vector<double> &weights);

    size_t operator()(Rng &rng) const
    {
        double target = rng.uniform() * cum_.back();
        for (size_t i = 0; i < cum_.size(); ++i) {
            if (target < cum_[i])
                return i;
        }
        return cum_.size() - 1;
    }

  private:
    std::vector<double> cum_;
};

/**
 * Zipf-like draw over [0, n): element k has weight 1/(k+1)^s, drawn by
 * inverting the integral approximation of the harmonic CDF.  Used for
 * hot/cold block popularity inside working-set regions and for site
 * popularity in the predictor and TLB models.
 *
 * The normalizer and exponents are taken once at construction, and a
 * table keyed by the top kTableBits of the 53-bit uniform mantissa
 * holds the rank of every bucket whose whole mantissa range provably
 * maps to one rank (docs/PERF.md §14).  Draws that land
 * in any other bucket run the inversion, so every draw equals the
 * inversion of the same uniform.
 */
class Rng::ZipfDist
{
  public:
    static constexpr int kTableBits = 12;

    /** @param s Exponent; s <= 0 draws uniformly via Rng::below(n). */
    ZipfDist(uint64_t n, double s);

    uint64_t operator()(Rng &rng) const
    {
        // One uniform draw either way, as the s <= 0 path always made.
        uint64_t m = rng.next() >> 11;
        if (s_ <= 0.0)
            return rng.below(n_);
        return rankOf(m);
    }

    /** Rank for a 53-bit uniform mantissa @p m (u = m * 2^-53);
     *  s > 0 only. */
    uint64_t rankOf(uint64_t m) const
    {
        uint32_t rank = table_[m >> kShift];
        if (rank != kNoRank)
            return rank;
        return invert(static_cast<double>(m) * 0x1.0p-53);
    }

    /** Share of table buckets that fall back to the inversion. */
    double fallbackShare() const;

  private:
    /** Mantissa bits below the table key. */
    static constexpr int kShift = 53 - kTableBits;
    static constexpr size_t kBuckets = size_t{1} << kTableBits;
    static constexpr uint32_t kNoRank = UINT32_MAX;

    /** Fill the table's buckets [lo, hi); @p edges caches power() at
     *  bucket edges (NaN = not yet computed). */
    void fillTable(size_t lo, size_t hi, std::vector<double> &edges);

    /** Inverse-CDF image of u before the floor (the pow/exp value). */
    double power(double u) const;
    /** Floor and clamp of a power() value: monotone in @p v. */
    uint64_t rankOfPower(double v) const;
    /** The rank of u by inversion. */
    uint64_t invert(double u) const;

    uint64_t n_;
    double s_;
    bool log_form_;
    double total_;
    double one_minus_s_;
    double inv_one_minus_s_;
    std::vector<uint32_t> table_;
};

} // namespace cap

#endif // CAPSIM_UTIL_RNG_H
