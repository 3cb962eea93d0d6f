#include "cluster.h"

#include <algorithm>
#include <limits>

#include "util/rng.h"
#include "util/status.h"

namespace cap::sample {

namespace {

/** Assign every point to its nearest medoid (ties: lowest cluster). */
double
assignPoints(const std::vector<std::vector<double>> &dist,
             const std::vector<size_t> &medoids,
             std::vector<int> &assignment)
{
    double cost = 0.0;
    for (size_t i = 0; i < dist.size(); ++i) {
        int best = 0;
        double best_d = dist[i][medoids[0]];
        for (size_t c = 1; c < medoids.size(); ++c) {
            double d = dist[i][medoids[c]];
            if (d < best_d) {
                best_d = d;
                best = static_cast<int>(c);
            }
        }
        assignment[i] = best;
        cost += best_d;
    }
    // A medoid always owns its own point, even when a duplicate point
    // serves as a lower-indexed medoid (distance ties would otherwise
    // leave the higher cluster empty).  Its self-distance is zero, so
    // the cost is unaffected.
    for (size_t c = 0; c < medoids.size(); ++c)
        assignment[medoids[c]] = static_cast<int>(c);
    return cost;
}

} // namespace

Clustering
kMedoids(const std::vector<IntervalSignature> &signatures, size_t k,
         uint64_t seed, int max_sweeps)
{
    size_t n = signatures.size();
    capAssert(n > 0, "clustering needs signatures");
    capAssert(k > 0, "clustering needs at least one cluster");
    capAssert(max_sweeps >= 1, "clustering needs at least one sweep");

    Clustering result;
    if (k >= n) {
        // Every interval is its own representative: sampling reduces
        // to full simulation (exact, no speedup).
        result.assignment.resize(n);
        for (size_t i = 0; i < n; ++i) {
            result.assignment[i] = static_cast<int>(i);
            result.medoids.push_back(i);
            result.sizes.push_back(1);
        }
        return result;
    }

    // Pairwise distances; interval counts are small (hundreds), so
    // the O(n^2) matrix keeps the sweeps cheap.
    std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            double d = signatureDistance(signatures[i], signatures[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }

    // k-medoids++ seeding: first medoid uniform, then D^2 weighting.
    Rng rng(seed);
    std::vector<size_t> medoids;
    std::vector<bool> is_medoid(n, false);
    size_t first = static_cast<size_t>(rng.below(n));
    medoids.push_back(first);
    is_medoid[first] = true;
    std::vector<double> nearest(n);
    while (medoids.size() < k) {
        double mass = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double d = std::numeric_limits<double>::infinity();
            for (size_t m : medoids)
                d = std::min(d, dist[i][m]);
            nearest[i] = is_medoid[i] ? 0.0 : d * d;
            mass += nearest[i];
        }
        // Zero mass means every point coincides with a medoid; fall
        // through to the lowest-index non-medoid below.
        size_t pick = mass > 0.0 ? Rng::WeightedDist(nearest)(rng) : medoids[0];
        if (is_medoid[pick]) {
            // All remaining mass is on existing medoids (duplicate
            // points); take the lowest-index non-medoid instead.
            pick = n;
            for (size_t i = 0; i < n; ++i) {
                if (!is_medoid[i]) {
                    pick = i;
                    break;
                }
            }
            capAssert(pick < n, "no non-medoid point left");
        }
        medoids.push_back(pick);
        is_medoid[pick] = true;
    }

    // Voronoi iteration: reassign, then move each medoid to the
    // member minimizing the in-cluster distance sum.
    std::vector<int> assignment(n, 0);
    double cost = assignPoints(dist, medoids, assignment);
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        bool moved = false;
        for (size_t c = 0; c < k; ++c) {
            size_t best_medoid = medoids[c];
            double best_sum = std::numeric_limits<double>::infinity();
            for (size_t candidate = 0; candidate < n; ++candidate) {
                if (assignment[candidate] != static_cast<int>(c))
                    continue;
                double sum = 0.0;
                for (size_t member = 0; member < n; ++member) {
                    if (assignment[member] == static_cast<int>(c))
                        sum += dist[candidate][member];
                }
                // Strict < keeps the lowest candidate index on ties.
                if (sum < best_sum) {
                    best_sum = sum;
                    best_medoid = candidate;
                }
            }
            if (best_medoid != medoids[c]) {
                medoids[c] = best_medoid;
                moved = true;
            }
        }
        if (!moved)
            break;
        cost = assignPoints(dist, medoids, assignment);
    }

    result.assignment = std::move(assignment);
    result.medoids = std::move(medoids);
    result.sizes.assign(k, 0);
    for (int c : result.assignment)
        ++result.sizes[static_cast<size_t>(c)];
    for (uint64_t size : result.sizes)
        capAssert(size > 0, "empty cluster after Voronoi iteration");
    result.total_cost = cost;
    return result;
}

} // namespace cap::sample
