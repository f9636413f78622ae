/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one public call into a layer: its name, start, end, the
 * span that caused it and the batch it belongs to. Spans are kept in
 * memory while the run measures and written out once at exit, so the
 * recorder costs two clock reads and one vector append per call.
 */

#ifndef EXMA_PERFBENCH_TRACE_HH
#define EXMA_PERFBENCH_TRACE_HH

#include <chrono>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace perfbench {

using exma::u32;
using exma::u64;

struct Span
{
    const char *name = ""; ///< static string: the layer call
    u32 parent = 0;        ///< index + 1 of the causing span; 0 = root
    u32 batch = 0;
    double start_s = 0.0; ///< seconds since the tracer was created
    double end_s = 0.0;
};

/** Per-name totals computed from the recorded spans. */
struct SpanTotals
{
    u64 calls = 0;
    double total_s = 0.0; ///< summed durations
    double self_s = 0.0;  ///< durations minus time covered by children
};

class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** Open a span; returns its handle (index + 1) for end()/parents. */
    u32 begin(const char *name, u32 parent, u32 batch)
    {
        spans_.push_back({name, parent, batch, now(), 0.0});
        return static_cast<u32>(spans_.size());
    }

    /** Close a span; returns its duration in seconds. */
    double end(u32 handle)
    {
        Span &s = spans_[handle - 1];
        s.end_s = now();
        return s.end_s - s.start_s;
    }

    /** Run @p fn inside a span and return its result. */
    template <class Fn>
    auto span(const char *name, u32 parent, u32 batch, Fn &&fn)
    {
        const u32 h = begin(name, parent, batch);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            end(h);
        } else {
            auto out = fn();
            end(h);
            return out;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Totals per span name. A span's self time is its duration minus
     * the union of its children's intervals.
     */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as one JSON object per line; false on error. */
    bool write(const std::string &path) const;

  private:
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // EXMA_PERFBENCH_TRACE_HH
