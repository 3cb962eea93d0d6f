/**
 * @file
 * Reference draws for the generator exactness tests: the per-draw
 * Zipf, weighted and geometric mappings exactly as Rng computed them
 * before their constants were hoisted into Rng::ZipfDist,
 * Rng::WeightedDist and Rng::GeometricDist.  Every synthetic stream
 * (and every cursor and replay) depends on those objects drawing the
 * same values with the same Rng calls as these bodies.
 */

#ifndef CAPSIM_TESTS_RNG_REFERENCE_H
#define CAPSIM_TESTS_RNG_REFERENCE_H

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cap::reference {

/** Zipf rank of the uniform @p u for s > 0 (per-draw normalizer). */
inline uint64_t
zipfRank(double u, uint64_t n, double s)
{
    auto hInt = [s](double x) {
        if (std::abs(s - 1.0) < 1e-9)
            return std::log(x + 1.0);
        return (std::pow(x + 1.0, 1.0 - s) - 1.0) / (1.0 - s);
    };
    double total = hInt(static_cast<double>(n));
    double target = u * total;
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
        x = std::exp(target) - 1.0;
    } else {
        x = std::pow(target * (1.0 - s) + 1.0, 1.0 / (1.0 - s)) - 1.0;
    }
    if (x < 0.0)
        x = 0.0;
    uint64_t k = static_cast<uint64_t>(x);
    return k >= n ? n - 1 : k;
}

inline uint64_t
zipf(Rng &rng, uint64_t n, double s)
{
    double u = rng.uniform();
    if (s <= 0.0)
        return rng.below(n);
    return zipfRank(u, n, s);
}

inline size_t
weighted(Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double target = rng.uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (target < acc)
            return i;
    }
    return weights.size() - 1;
}

inline uint64_t
geometric(Rng &rng, double p, uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    double u = rng.uniform();
    double draw = std::floor(std::log1p(-u) / std::log1p(-p));
    if (draw < 0.0)
        draw = 0.0;
    uint64_t k = static_cast<uint64_t>(draw);
    return k > cap ? cap : k;
}

/** Draws per exactness check. */
constexpr int kExactDraws = 1'000'000;

/**
 * Rng::ZipfDist(n, s) against zipf(): kExactDraws equal draws from one
 * seed and equal Rng states after; for s > 0 also rankOf() at both
 * edges, the second mantissa and the midpoint of every table bucket.
 */
inline void
expectZipfExact(uint64_t n, double s, uint64_t seed = 1)
{
    SCOPED_TRACE(testing::Message() << "zipf n=" << n << " s=" << s);
    const Rng::ZipfDist dist(n, s);
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < kExactDraws; ++i) {
        uint64_t got = dist(a);
        uint64_t want = zipf(b, n, s);
        if (got != want) {
            ADD_FAILURE() << "draw " << i << ": " << got << " != " << want;
            return;
        }
    }
    EXPECT_EQ(a.saveState(), b.saveState());
    if (s <= 0.0)
        return;
    constexpr int kShift = 53 - Rng::ZipfDist::kTableBits;
    constexpr uint64_t kBucket = uint64_t{1} << kShift;
    for (uint64_t bucket = 0;
         bucket < (uint64_t{1} << Rng::ZipfDist::kTableBits); ++bucket) {
        uint64_t base = bucket << kShift;
        for (uint64_t m : {base, base + 1, base + kBucket / 2,
                           base + kBucket - 1}) {
            uint64_t want = zipfRank(static_cast<double>(m) * 0x1.0p-53,
                                     n, s);
            if (dist.rankOf(m) != want) {
                ADD_FAILURE() << "mantissa " << m << ": " << dist.rankOf(m)
                              << " != " << want;
                return;
            }
        }
    }
}

/** Rng::WeightedDist against weighted(), as expectZipfExact. */
inline void
expectWeightedExact(const std::vector<double> &weights, uint64_t seed = 1)
{
    SCOPED_TRACE(testing::Message()
                 << "weighted over " << weights.size() << " weights");
    const Rng::WeightedDist dist(weights);
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < kExactDraws; ++i) {
        size_t got = dist(a);
        size_t want = weighted(b, weights);
        if (got != want) {
            ADD_FAILURE() << "draw " << i << ": " << got << " != " << want;
            return;
        }
    }
    EXPECT_EQ(a.saveState(), b.saveState());
}

/** Rng::GeometricDist against geometric(), as expectZipfExact. */
inline void
expectGeometricExact(double p, uint64_t cap, uint64_t seed = 1)
{
    SCOPED_TRACE(testing::Message() << "geometric p=" << p
                                    << " cap=" << cap);
    const Rng::GeometricDist dist(p);
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < kExactDraws; ++i) {
        uint64_t got = dist(a, cap);
        uint64_t want = geometric(b, p, cap);
        if (got != want) {
            ADD_FAILURE() << "draw " << i << ": " << got << " != " << want;
            return;
        }
    }
    EXPECT_EQ(a.saveState(), b.saveState());
}

} // namespace cap::reference

#endif // CAPSIM_TESTS_RNG_REFERENCE_H
