/**
 * @file
 * Small numeric helpers shared across the library.
 */

#ifndef PROCRUSTES_COMMON_MATH_UTILS_H_
#define PROCRUSTES_COMMON_MATH_UTILS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace procrustes {

/** Ceiling division for non-negative integers. */
constexpr int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Round a up to the next multiple of b. */
constexpr int64_t
roundUp(int64_t a, int64_t b)
{
    return ceilDiv(a, b) * b;
}

/** Arithmetic mean of a sample; 0 for an empty sample. */
double mean(const std::vector<double> &xs);

/** Population standard deviation of a sample; 0 for size < 2. */
double stddev(const std::vector<double> &xs);

/**
 * Exact empirical quantile via nth_element (copies the input).
 * q in [0, 1]; q = 0 is the minimum, q = 1 the maximum.
 */
double exactQuantile(std::vector<double> xs, double q);

/**
 * Run body(i) for every i in [0, n): whole blocks of eight, then a
 * scalar tail. GCC's -O2 cost model vectorizes a loop only when the
 * vector body replaces it entirely and needs no runtime alias check;
 * the fixed eight-trip inner loop, declared free of cross-index memory
 * dependences, is such a loop, so each block compiles to one 8-lane
 * operation per statement and no per-element branch. body(i) must
 * touch no memory that another index writes.
 */
template <typename Body>
inline void
forEachBlocked8(int64_t n, Body body)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
#pragma GCC ivdep
        for (int64_t k = 0; k < 8; ++k)
            body(i + k);
    }
    for (; i < n; ++i)
        body(i);
}

/** Clamp helper mirroring std::clamp with deduced double args. */
inline double
clampd(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

} // namespace procrustes

#endif // PROCRUSTES_COMMON_MATH_UTILS_H_
