/**
 * @file
 * The benchmark's own arithmetic: order statistics of host-time
 * samples, the Fig. 11 summary figures and the serving hit rate.
 * Header-only so perfbench_tests checks exactly what perfbench runs.
 */

#ifndef PERFBENCH_BENCH_MATH_HH
#define PERFBENCH_BENCH_MATH_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pb {

/** Median: the middle sample, or the mean of the middle two. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        throw std::invalid_argument("geomean of no values");
    double logSum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            throw std::invalid_argument("geomean of a non-positive value");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

/**
 * Accuracy against a reference: mean |ln(measured / reference)| over
 * paired values. 0 means every value matches; 0.1 is a typical 10%
 * miss in either direction.
 */
inline double
meanAbsLogError(const std::vector<double>& measured,
                const std::vector<double>& reference)
{
    if (measured.empty() || measured.size() != reference.size())
        throw std::invalid_argument("meanAbsLogError needs equal, "
                                    "non-empty value lists");
    double sum = 0.0;
    for (std::size_t i = 0; i < measured.size(); ++i) {
        if (!(measured[i] > 0.0) || !(reference[i] > 0.0))
            throw std::invalid_argument("meanAbsLogError of a "
                                        "non-positive value");
        sum += std::fabs(std::log(measured[i] / reference[i]));
    }
    return sum / static_cast<double>(measured.size());
}

/**
 * Deadline hit rate over offered requests: a shed, an unfinished and
 * a late request all count as misses, so admission control cannot
 * raise the rate by refusing work.
 */
inline double
offeredHitRate(std::uint64_t offered, std::uint64_t completed,
               std::uint64_t deadlineMisses)
{
    if (offered == 0)
        throw std::invalid_argument("hit rate of no offered requests");
    if (deadlineMisses > completed || completed > offered)
        throw std::invalid_argument("hit rate counts out of order");
    return static_cast<double>(completed - deadlineMisses)
        / static_cast<double>(offered);
}

/**
 * Factor that converts host seconds measured while the reference loop
 * took @p refSamples seconds to a host on which it takes @p nominal:
 * nominal / median(samples). Multiply times by it, divide rates.
 */
inline double
referenceScale(const std::vector<double>& refSamples, double nominal)
{
    double m = median(refSamples);
    if (!(m > 0.0) || !(nominal > 0.0))
        throw std::invalid_argument("reference times must be positive");
    return nominal / m;
}

} // namespace pb

#endif // PERFBENCH_BENCH_MATH_HH
