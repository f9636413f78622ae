/**
 * @file
 * Load generation and latency accounting for the serving benchmark,
 * kept free of the program under test so the self-tests can drive it
 * on a synthetic clock.
 *
 * Times are seconds since the start of the measured loop. A Clock
 * provides `double now()` and `void sleepUntil(double t)`; the
 * benchmark passes a steady_clock-backed one, the self-tests one that
 * only advances when told to.
 */

#ifndef EXMA_PERFBENCH_LOOP_HH
#define EXMA_PERFBENCH_LOOP_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace perfbench {

using exma::u64;

/** Samples a tail percentile must leave above its rank to be reported. */
constexpr size_t kTailBeyond = 10;

/** Nearest-rank percentile @p p (integer, 1..100) of sorted samples. */
inline double
nearestRank(const std::vector<double> &sorted, unsigned p)
{
    if (sorted.empty())
        return 0.0;
    const size_t n = sorted.size();
    const size_t rank = std::max<size_t>((p * n + 99) / 100, 1);
    return sorted[rank - 1];
}

/** A tail latency together with what it was computed from. */
struct Tail
{
    unsigned percentile = 0; ///< the percentile actually reported
    double value = 0.0;
    size_t samples = 0;
};

/**
 * The highest integer percentile, at most @p target, whose nearest
 * rank leaves at least kTailBeyond samples above it. Below 20 samples
 * no tail is resolvable and the median is returned; no samples give 0.
 */
inline Tail
tailPercentile(std::vector<double> samples, unsigned target = 99)
{
    std::sort(samples.begin(), samples.end());
    Tail t;
    t.samples = samples.size();
    const size_t n = samples.size();
    if (n == 0)
        return t;
    unsigned p = target;
    while (p > 50 && n - std::max<size_t>((p * n + 99) / 100, 1) <
                         kTailBeyond)
        --p;
    t.percentile = p;
    t.value = nearestRank(samples, p);
    return t;
}

inline double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return nearestRank(samples, 50);
}

/**
 * Due times of a seeded Poisson process at @p rate per second over
 * [0, @p duration): exponential gaps drawn from exma::Rng.
 */
inline std::vector<double>
poissonArrivals(double rate, double duration, u64 seed)
{
    exma::Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= duration)
            return due;
        due.push_back(t);
    }
}

/** What one measured loop observed, index-aligned per batch sent. */
struct LoopRecord
{
    std::vector<double> latency_s; ///< completion minus due (open) or send
    std::vector<double> late_s;    ///< send minus due (0 in a closed loop)
    size_t backlog_max = 0; ///< batches already due, waiting behind a send
    size_t unsent = 0;      ///< due batches dropped at the hard stop
    /** Timed wall time: first due to last completion (open), or the
     *  sum of the calls (closed; the client's checks are not timed). */
    double elapsed_s = 0.0;
};

/**
 * Open loop: send batch i at due[i] (or as soon as the previous call
 * returns, if that is later) and time it from due[i], so a stall is
 * charged to every batch queued behind it. Sending stops at
 * @p hard_stop; batches due but not sent by then are counted in
 * LoopRecord::unsent. serve(i) performs batch i synchronously;
 * check(i) runs after it is timed, in the slack before the next due
 * time (a check that overruns the slack makes later sends late).
 */
template <class Clock, class Serve, class Check>
LoopRecord
runOpenLoop(Clock &clock, const std::vector<double> &due, double hard_stop,
            Serve &&serve, Check &&check)
{
    LoopRecord rec;
    rec.latency_s.reserve(due.size());
    rec.late_s.reserve(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
        if (clock.now() < due[i])
            clock.sleepUntil(due[i]);
        const double send = clock.now();
        if (send >= hard_stop) {
            rec.unsent = due.size() - i;
            break;
        }
        const auto waiting =
            std::upper_bound(due.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                             due.end(), send) -
            (due.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        rec.backlog_max =
            std::max(rec.backlog_max, static_cast<size_t>(waiting));
        rec.late_s.push_back(send - due[i]);
        serve(i);
        const double done = clock.now();
        rec.latency_s.push_back(done - due[i]);
        rec.elapsed_s = done - due.front();
        check(i);
    }
    return rec;
}

/**
 * Closed loop with one client: send the next batch as soon as the
 * previous one (and its untimed check) returns, until the calls have
 * taken @p duration in total.
 */
template <class Clock, class Serve, class Check>
LoopRecord
runClosedLoop(Clock &clock, double duration, Serve &&serve, Check &&check)
{
    LoopRecord rec;
    for (size_t i = 0; rec.elapsed_s < duration; ++i) {
        const double send = clock.now();
        serve(i);
        const double took = clock.now() - send;
        rec.latency_s.push_back(took);
        rec.late_s.push_back(0.0);
        rec.elapsed_s += took;
        check(i);
    }
    return rec;
}

} // namespace perfbench

#endif // EXMA_PERFBENCH_LOOP_HH
