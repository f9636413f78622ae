/**
 * @file
 * Self-tests of the benchmark's own accounting, run before every
 * measurement: tail percentiles and their sample rule, the seeded
 * arrival schedule, the open- and closed-loop drivers' lateness,
 * backlog and latency bookkeeping on a synthetic clock, and span
 * self time. Exits non-zero if any check fails.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "loop.hh"
#include "trace.hh"

namespace {

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest line %d: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

/** Time moves only when the loop sleeps or a served batch takes time. */
struct FakeClock
{
    double t = 0.0;
    double now() const { return t; }
    void sleepUntil(double until) { t = std::max(t, until); }
};

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    auto t = perfbench::tailPercentile(v, 99);
    CHECK(t.percentile == 99 && t.value == 990 && t.samples == 1000);

    // 180 samples: p95's rank 171 leaves 9 above it, p94's rank 170
    // leaves 10.
    v.resize(180);
    t = perfbench::tailPercentile(v, 99);
    CHECK(t.percentile == 94 && t.value == 170 && t.samples == 180);

    v.resize(100);
    CHECK(perfbench::tailPercentile(v, 99).percentile == 90);

    // Too few samples for any tail: the median.
    v.resize(12);
    t = perfbench::tailPercentile(v, 99);
    CHECK(t.percentile == 50 && t.value == 6);

    t = perfbench::tailPercentile({}, 99);
    CHECK(t.samples == 0 && t.value == 0);

    // Order of the input does not matter.
    std::vector<double> rev(v.rbegin(), v.rend());
    CHECK(perfbench::median(rev) == 6);
}

void
testArrivals()
{
    const auto a = perfbench::poissonArrivals(2000.0, 5.0, 7);
    const auto b = perfbench::poissonArrivals(2000.0, 5.0, 7);
    const auto c = perfbench::poissonArrivals(2000.0, 5.0, 8);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(!a.empty() && a.back() < 5.0);
    bool sorted = true;
    for (size_t i = 1; i < a.size(); ++i)
        sorted &= a[i] > a[i - 1];
    CHECK(sorted);
    // 10,000 expected arrivals: within 3% of the rate.
    CHECK(std::fabs(static_cast<double>(a.size()) - 10000.0) < 300.0);
}

void
testOpenLoop()
{
    // Batch 1 overruns its slot, so batch 2 goes out 1 s late with
    // batch 3 already due behind it.
    const std::vector<double> due = {0.0, 1.0, 2.0, 2.5, 10.0};
    const std::vector<double> service = {0.5, 2.0, 0.1, 0.1, 0.1};
    FakeClock clock;
    std::vector<size_t> checked;
    const auto rec = perfbench::runOpenLoop(
        clock, due, 100.0, [&](size_t i) { clock.t += service[i]; },
        [&](size_t i) { checked.push_back(i); });
    const std::vector<double> late = {0.0, 0.0, 1.0, 0.6, 0.0};
    const std::vector<double> lat = {0.5, 2.0, 1.1, 0.7, 0.1};
    CHECK(rec.latency_s.size() == 5 && rec.late_s.size() == 5);
    for (size_t i = 0; i < 5 && i < rec.latency_s.size(); ++i) {
        CHECK(near(rec.late_s[i], late[i]));
        CHECK(near(rec.latency_s[i], lat[i]));
    }
    CHECK(rec.backlog_max == 1);
    CHECK(rec.unsent == 0);
    CHECK(near(rec.elapsed_s, 10.1));
    CHECK((checked == std::vector<size_t>{0, 1, 2, 3, 4}));

    // A stalled server: sends stop at the hard stop and the rest count
    // as unsent; the backlog is everything due behind the stall.
    FakeClock slow;
    const std::vector<double> due2 = {0.0, 0.1, 0.2, 0.3, 0.4, 5.0};
    const auto rec2 = perfbench::runOpenLoop(
        slow, due2, 1.5, [&](size_t) { slow.t += 1.0; }, [](size_t) {});
    CHECK(rec2.latency_s.size() == 2);
    CHECK(rec2.unsent == 4);
    CHECK(rec2.backlog_max == 3);
    CHECK(near(rec2.late_s[1], 0.9));
}

void
testClosedLoop()
{
    // Checks take 5 s of wall time each but are not timed: the loop
    // stops once the calls themselves have taken 1 s.
    FakeClock clock;
    const auto rec = perfbench::runClosedLoop(
        clock, 1.0, [&](size_t) { clock.t += 0.3; },
        [&](size_t) { clock.t += 5.0; });
    CHECK(rec.latency_s.size() == 4);
    CHECK(near(rec.elapsed_s, 1.2));
    CHECK(near(rec.latency_s[0], 0.3));
}

void
testSelfTime()
{
    // A root span with one child: the root's self time is its
    // duration less the child's.
    perfbench::Tracer tr;
    const auto root = tr.begin("root", 0, 1);
    const auto kid = tr.begin("kid", root, 1);
    tr.end(kid);
    tr.end(root);
    const auto totals = tr.totals();
    CHECK(totals.at("root").calls == 1 && totals.at("kid").calls == 1);
    CHECK(totals.at("root").self_s <= totals.at("root").total_s);
    CHECK(near(totals.at("root").self_s + totals.at("kid").total_s,
               totals.at("root").total_s));
    CHECK(near(totals.at("kid").self_s, totals.at("kid").total_s));
}

} // namespace

int
main()
{
    testPercentiles();
    testArrivals();
    testOpenLoop();
    testClosedLoop();
    testSelfTime();
    if (failures != 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return 1;
    }
    return 0;
}
