/**
 * @file
 * The serving benchmark: one workload through the deployed stack.
 *
 * Untraced (--trace 0): bring up a kmerPrefix plan of 2 shards served
 * by socket exma-worker children, 2 replicas per shard, supervisor on;
 * drive the workload through ShardRouter::search from this one thread;
 * check every hit against the monolithic ExmaTable; print the
 * end-to-end metrics.
 *
 * Traced (--trace 1): the same inputs, plus a pass that feeds them
 * through each layer's public call in turn with a span around every
 * call, and prints the per-layer metrics derived from the spans and
 * the returned stats. README.md beside this file says why each
 * workload exists and what each metric should move.
 */

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_searcher.hh"
#include "common/thread_pool.hh"
#include "core/exma_table.hh"
#include "genome/reads.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"
#include "route/shard_router.hh"
#include "transport/socket_transport.hh"
#include "transport/wire.hh"

#include "loop.hh"
#include "trace.hh"

using namespace exma;
using perfbench::LoopRecord;
using perfbench::Tracer;

namespace {

using SteadyClock = std::chrono::steady_clock;
using Batch = std::vector<std::vector<Base>>;

/** One workload; README.md gives the reason for each. */
struct Workload
{
    const char *name;
    const char *dataset;
    double scale;       ///< makeDataset scale
    bool reads;         ///< Illumina reads, else exact seeds
    u64 query_len;      ///< read length or seed length
    u64 batch;          ///< queries per ShardRouter::search call
    double rate;        ///< traced open-loop probe, batches/s; 0 = none
    u64 pool_batches;   ///< distinct seeded batches, served in turn
    u64 trace_batches;  ///< batches fed layer by layer when traced
};

constexpr Workload kWorkloads[] = {
    {"reads-bulk", "pinus", 1.0, true, 101, 16384, 0.0, 12, 4},
    {"seeds-locate", "human", 1.0, false, 19, 4096, 0.0, 48, 16},
    {"online-small", "human", 0.05, true, 101, 64, 2000.0, 512, 256},
};

constexpr unsigned kShards = 2;
constexpr unsigned kReplicas = 2;
/** Cold set-ups per untraced run: at least kMinSetups, and enough to
 *  take about kSetupBudgetS at the first one's pace, capped. */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 20;
constexpr double kSetupBudgetS = 3.0;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(1);
}

double
since(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/** The loop clock: seconds since construction, sleeping then spinning
 *  the last 200 us so open-loop sends leave on time. */
struct WallClock
{
    SteadyClock::time_point epoch = SteadyClock::now();

    double now() const { return since(epoch); }

    void sleepUntil(double t) const
    {
        constexpr double kSpin = 200e-6;
        const double ahead = t - now() - kSpin;
        if (ahead > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
        while (now() < t) {
        }
    }
};

struct Args
{
    const Workload *workload = nullptr;
    u64 seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    a.workload = &w;
            if (a.workload == nullptr)
                die("unknown workload '" + v + "'");
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            die("unknown argument '" + k + "'");
        }
    }
    if (a.workload == nullptr || !have_seed || !(a.seconds > 0))
        die("usage: exma-perfbench --workload NAME --seed N --seconds S "
            "[--trace 0|1] [--trace-out PATH]");
    return a;
}

/**
 * Refuse to measure anything but the deployed program: no injected
 * faults, no transport override, and the exma-worker built beside
 * this binary.
 */
void
pinProgramUnderTest()
{
    for (const char *var : {"EXMA_FAULTS", "EXMA_TRANSPORT"})
        if (const char *v = std::getenv(var); v != nullptr)
            die(std::string(var) + " is set ('" + v +
                "'); the benchmark measures the unmodified stack");
    namespace fs = std::filesystem;
    const fs::path self = fs::read_symlink("/proc/self/exe");
    const fs::path want =
        self.parent_path().parent_path() / "tools" / "exma-worker" /
        "exma-worker";
    std::error_code ec;
    const std::string got = discoverWorkerBinary("");
    if (!fs::exists(want) || !fs::equivalent(got, want, ec) || ec)
        die("exma-worker resolves to '" + got + "', not the build tree's '" +
            want.string() + "'");
}

/** Table configuration scaled with the dataset, as the figure benches
 *  scale theirs (bench/bench_util.cc, exmaConfig). */
ExmaTable::Config
tableConfig(const Dataset &ds, double scale)
{
    ExmaTable::Config cfg;
    cfg.k = ds.exma_k;
    cfg.mode = OccIndexMode::Mtl;
    cfg.mtl.leaf_size = std::max<u64>(32, static_cast<u64>(512.0 * scale));
    cfg.mtl.min_increments =
        std::max<u64>(32, static_cast<u64>(256.0 * scale));
    cfg.mtl.epochs = 120;
    cfg.mtl.samples_per_class = 4096;
    return cfg;
}

/** The workload's queries for @p seed, untrimmed and unfiltered. */
std::vector<std::vector<Base>>
makeQueries(const Workload &w, const Dataset &ds, u64 seed)
{
    const u64 n = w.batch * w.pool_batches;
    if (!w.reads)
        return samplePatterns(ds.ref, n, w.query_len, seed);
    ReadSimSpec spec;
    spec.read_len = w.query_len;
    spec.max_reads = n;
    spec.seed = seed;
    std::vector<std::vector<Base>> out;
    out.reserve(n);
    for (Read &r : simulateReads(ds.ref, illuminaProfile(), spec))
        out.push_back(std::move(r.seq));
    return out;
}

/** Seeded batches with the monolith's answer for every query. */
struct Pool
{
    std::vector<Batch> batches;
    std::vector<std::vector<std::vector<u64>>> expect;
    std::vector<u64> bases; ///< per batch
    u64 max_len = 0;
};

Pool
makePool(const Workload &w, const Dataset &ds, u64 seed,
         const ExmaTable::Config &cfg)
{
    std::vector<std::vector<Base>> queries = makeQueries(w, ds, seed);
    Pool p;
    for (const auto &q : queries)
        p.max_len = std::max<u64>(p.max_len, q.size());

    std::vector<std::vector<u64>> hits(queries.size());
    {
        const ExmaTable oracle(ds.ref, cfg);
        parallelFor(queries.size(), 64, [&](u64 b, u64 e, unsigned) {
            for (u64 i = b; i < e; ++i)
                hits[i] = oracle.locateAllGlobal(
                    oracle.search(queries[i]), queries[i].size());
        });
    }

    for (u64 b = 0; b < w.pool_batches; ++b) {
        Batch batch;
        std::vector<std::vector<u64>> expect;
        u64 bases = 0;
        for (u64 i = b * w.batch; i < (b + 1) * w.batch; ++i) {
            bases += queries[i].size();
            batch.push_back(std::move(queries[i]));
            expect.push_back(std::move(hits[i]));
        }
        p.batches.push_back(std::move(batch));
        p.expect.push_back(std::move(expect));
        p.bases.push_back(bases);
    }
    return p;
}

/**
 * Cold start to a ready router: shard builds, the self-save, worker
 * spawn, and one empty round trip per replica, which returns only once
 * the child has mapped its shard.
 */
std::unique_ptr<ShardRouter>
deploy(const Dataset &ds, const ShardPlan &plan,
       const ExmaTable::Config &table, unsigned replicas, double *seconds)
{
    RouterConfig rc;
    rc.table = table;
    rc.failover.replicas = replicas;
    rc.transport.kind = TransportKind::Socket;
    const auto t0 = SteadyClock::now();
    auto router = std::make_unique<ShardRouter>(ds.ref, plan, rc);
    if (router->transportKind() != TransportKind::Socket)
        die("router is not serving over the socket transport");
    std::vector<std::future<WorkerResponse>> hello;
    for (size_t s = 0; s < router->shardCount(); ++s)
        for (unsigned j = 0; j < replicas; ++j)
            hello.push_back(
                router->replicaSet(s).replica(j)->submit(WorkerRequest{}));
    for (auto &f : hello) {
        const WorkerResponse r = f.get();
        if (!r.ok())
            die("a worker did not come up: " + r.error);
    }
    *seconds = since(t0);
    return router;
}

/** Outcome accounting across every routed call of the run. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0; ///< degraded, unsent, or mismatched queries
    u64 mismatched = 0;
    FailoverStats failover;
};

/** Diff one routed result against the oracle; mismatches are loud. */
void
account(const RoutedResult &r, const std::vector<std::vector<u64>> &expect,
        const char *who, Tally &t)
{
    t.attempted += expect.size();
    t.failover += r.failover;
    for (size_t i = 0; i < expect.size(); ++i) {
        if (r.degraded[i]) {
            ++t.failed;
        } else if (r.hits[i] != expect[i]) {
            ++t.failed;
            if (t.mismatched++ < 5)
                std::fprintf(stderr,
                             "perfbench: MISMATCH (%s) query %zu: %zu hits "
                             "routed, %zu from the monolith\n",
                             who, i, r.hits[i].size(), expect[i].size());
        }
    }
}

/**
 * Drive @p router from this thread: a closed loop with one client
 * when @p rate is 0, else an open loop of seeded Poisson arrivals at
 * @p rate batches/s, starting at pool batch @p first. Every result is
 * diffed against the oracle.
 */
LoopRecord
serveLoop(const Workload &w, const ShardRouter &router, const Pool &pool,
          double seconds, double rate, u64 seed, size_t first, Tally &tally,
          u64 *bases, Tracer *tracer)
{
    const size_t n = pool.batches.size();
    RoutedResult last;
    auto serve = [&](size_t i) {
        const Batch &b = pool.batches[(first + i) % n];
        if (tracer != nullptr)
            last = tracer->span("route.search", 0, static_cast<u32>(i),
                                [&] { return router.search(b); });
        else
            last = router.search(b);
    };
    auto check = [&](size_t i) {
        account(last, pool.expect[(first + i) % n], "serve", tally);
        *bases += pool.bases[(first + i) % n];
        last = RoutedResult{};
    };
    WallClock clock;
    if (rate <= 0)
        return perfbench::runClosedLoop(clock, seconds, serve, check);
    const auto due = perfbench::poissonArrivals(
        rate, seconds, seed * 0x9E3779B97F4A7C15ULL + 1);
    LoopRecord rec =
        perfbench::runOpenLoop(clock, due, 2 * seconds + 1, serve, check);
    tally.attempted += rec.unsent * w.batch;
    tally.failed += rec.unsent * w.batch;
    return rec;
}

/** Bytes of the `.exma.` files under @p dir whose name contains
 *  @p ext. */
u64
indexBytes(const std::string &dir, const std::string &ext = ".exma.")
{
    u64 n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.find(".exma.") != std::string::npos &&
            name.find(ext) != std::string::npos)
            n += e.file_size();
    }
    return n;
}

/** Total resident set of this process's exma-worker children, in MB. */
double
workerRssMb()
{
    double kb = 0;
    DIR *proc = ::opendir("/proc");
    if (proc == nullptr)
        return 0;
    while (const dirent *d = ::readdir(proc)) {
        if (d->d_name[0] < '0' || d->d_name[0] > '9')
            continue;
        const std::string base = std::string("/proc/") + d->d_name;
        std::ifstream stat(base + "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        const size_t open = line.find('(');
        const size_t close = line.rfind(')');
        if (open == std::string::npos || close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 2));
        char state = 0;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid != ::getpid() ||
            line.substr(open + 1, close - open - 1) != "exma-worker")
            continue;
        std::ifstream status(base + "/status");
        while (std::getline(status, line))
            if (line.rfind("VmRSS:", 0) == 0)
                kb += std::atof(line.c_str() + 6);
    }
    ::closedir(proc);
    return kb / 1024.0;
}

std::string
scratchDir(const char *what)
{
    static int seq = 0;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("perfbench-" + std::to_string(::getpid()) + "-" +
                      what + "-" + std::to_string(seq++));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += t.mismatched == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(t.attempted);
    out += ", \"failed\": " + std::to_string(t.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!std::isfinite(m.value))
            die("metric " + m.name + " is not finite");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return ratio(s, static_cast<double>(v.size()));
}

/** The router's classification, repeated so each shard's slice can be
 *  fed to the layers below the router directly. */
std::vector<std::vector<u32>>
routeIds(const ShardPlan &plan, const Batch &batch)
{
    std::vector<std::vector<u32>> ids(plan.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const PrefixRange r =
            plan.queryPrefixRange(batch[i].data(), batch[i].size());
        const auto [first, last] = plan.ownersOfRange(r.lo, r.hi);
        for (size_t s = first; s <= last; ++s)
            ids[s].push_back(static_cast<u32>(i));
    }
    return ids;
}

/** Accumulators of the layer-by-layer pass not kept in spans. */
struct LayerCounts
{
    u64 batches = 0;
    u64 queries = 0;     ///< batch queries
    u64 shard_calls = 0; ///< (query, owner shard) pairs
    u64 shard_bases = 0;
    u64 fm_hits = 0;
    u64 hits = 0;
    SearchStats stats; ///< ExmaTable::search over every shard call
    u64 submits = 0;
    double worker_s = 0.0;
    u64 frame_bytes = 0;
    double route_over_s = 0.0; ///< in-process router minus slowest worker
    std::vector<u64> shard_kstep;
    u64 broadcast = 0;
};

/**
 * Feed the first trace_batches of the pool through every layer's
 * public call, one call per span and one layer at a time, so each
 * layer runs in its own steady state: the FM-index kernel and
 * ExmaTable per query, BatchSearcher per shard slice, the in-process
 * R=1 router, a direct Transport::submit per shard slice, then the
 * socket routers at R=1 and R=2. Each layer's spans hang off one pass
 * span. @p inproc is the router loaded from the saved index.
 */
LayerCounts
layerPass(const Workload &w, const Pool &pool, const ShardRouter &r2,
          const ShardRouter &r1, const ShardRouter &inproc, Tracer &tr,
          Tally &tally)
{
    LayerCounts c;
    const u64 nb = std::min<u64>(w.trace_batches, pool.batches.size());
    const size_t ns = r2.shardCount();
    c.batches = nb;
    c.shard_kstep.assign(ns, 0);
    std::vector<std::vector<std::vector<u32>>> ids(nb);
    for (u64 b = 0; b < nb; ++b) {
        ids[b] = routeIds(r2.plan(), pool.batches[b]);
        c.queries += pool.batches[b].size();
    }

    // Calls fn(b, s, table, query ids) for every shard slice that has
    // a table to search directly. The tables are the in-process
    // router's, mapped from the saved index as the socket workers map
    // theirs, so the kernel passes and that router read the same memory.
    const auto eachSlice = [&](auto &&fn) {
        for (u64 b = 0; b < nb; ++b)
            for (size_t s = 0; s < ns; ++s)
                if (inproc.shardTable(s) != nullptr && !ids[b][s].empty())
                    fn(b, s, *inproc.shardTable(s), ids[b][s]);
    };
    const auto pass = [&](const char *name, auto &&body) {
        const u32 root = tr.begin(name, 0, 0);
        body(root);
        tr.end(root);
    };

    std::vector<std::vector<std::vector<Interval>>> fm(
        nb, std::vector<std::vector<Interval>>(ns));
    auto iv = fm;
    pass("pass.fmindex.search", [&](u32 root) {
        eachSlice([&](u64 b, size_t s, const ExmaTable &t, const auto &q) {
            for (const u32 id : q) {
                const auto &query = pool.batches[b][id];
                c.shard_bases += query.size();
                fm[b][s].push_back(
                    tr.span("fmindex.search", root, static_cast<u32>(b),
                            [&] { return t.fmIndex().search(query); }));
            }
        });
    });
    pass("pass.fmindex.locate", [&](u32 root) {
        eachSlice([&](u64 b, size_t s, const ExmaTable &t, const auto &q) {
            for (size_t j = 0; j < q.size(); ++j)
                c.fm_hits +=
                    tr.span("fmindex.locate", root, static_cast<u32>(b), [&] {
                        return t.fmIndex().locateAll(fm[b][s][j]).size();
                    });
        });
    });
    pass("pass.core.search", [&](u32 root) {
        eachSlice([&](u64 b, size_t s, const ExmaTable &t, const auto &q) {
            c.shard_calls += q.size();
            for (const u32 id : q)
                iv[b][s].push_back(
                    tr.span("core.search", root, static_cast<u32>(b), [&] {
                        return t.search(pool.batches[b][id], &c.stats);
                    }));
        });
    });
    pass("pass.core.locate", [&](u32 root) {
        eachSlice([&](u64 b, size_t s, const ExmaTable &t, const auto &q) {
            for (size_t j = 0; j < q.size(); ++j)
                c.hits +=
                    tr.span("core.locate", root, static_cast<u32>(b), [&] {
                        return t.locateAllGlobal(iv[b][s][j],
                                                 pool.batches[b][q[j]].size())
                            .size();
                    });
        });
    });

    BatchConfig one;
    one.threads = 1;
    one.locate = true;
    pass("pass.batch.search", [&](u32 root) {
        eachSlice([&](u64 b, size_t, const ExmaTable &t, const auto &q) {
            tr.span("batch.search", root, static_cast<u32>(b), [&] {
                BatchSearcher(t, one).search(pool.batches[b], q);
            });
        });
    });

    // The in-process router runs its shard slices concurrently, one
    // worker thread each, so its cost over the layer below is its time
    // minus its slowest worker's time for the same slices (the
    // workers' own WorkerResponse::seconds, from a direct submit).
    pass("pass.route.inproc", [&](u32 root) {
        for (u64 b = 0; b < nb; ++b) {
            double slowest = 0.0;
            for (size_t s = 0; s < ns; ++s)
                if (!ids[b][s].empty())
                    slowest = std::max(
                        slowest,
                        inproc.replicaSet(s)
                            .replica(0)
                            ->submit({QueryBatchView::borrow(pool.batches[b],
                                                             ids[b][s]),
                                      BatchConfig{}})
                            .get()
                            .seconds);
            const u32 h = tr.begin("route.inproc", root, static_cast<u32>(b));
            const RoutedResult r = inproc.search(pool.batches[b]);
            c.route_over_s += tr.end(h) - slowest;
            account(r, pool.expect[b], "in-process R=1", tally);
        }
    });

    pass("pass.transport.submit", [&](u32 root) {
        for (u64 b = 0; b < nb; ++b)
            for (size_t s = 0; s < ns; ++s) {
                if (ids[b][s].empty())
                    continue;
                WorkerRequest req{QueryBatchView::borrow(pool.batches[b],
                                                         ids[b][s]),
                                  BatchConfig{}};
                c.frame_bytes +=
                    encodeRequest(req).size() + sizeof(FrameHeader);
                const std::shared_ptr<Transport> worker =
                    r2.replicaSet(s).replica(0);
                const WorkerResponse resp = tr.span(
                    "transport.submit", root, static_cast<u32>(b),
                    [&] { return worker->submit(std::move(req)).get(); });
                if (!resp.ok())
                    die("direct submit to " + worker->name() +
                        " failed: " + resp.error);
                c.frame_bytes +=
                    encodeResponse(resp).size() + sizeof(FrameHeader);
                c.worker_s += resp.seconds;
                ++c.submits;
            }
    });

    pass("pass.route.socket_r1", [&](u32 root) {
        for (u64 b = 0; b < nb; ++b)
            account(tr.span("route.socket_r1", root, static_cast<u32>(b),
                            [&] { return r1.search(pool.batches[b]); }),
                    pool.expect[b], "socket R=1", tally);
    });
    pass("pass.route.socket_r2", [&](u32 root) {
        for (u64 b = 0; b < nb; ++b) {
            const RoutedResult r =
                tr.span("route.socket_r2", root, static_cast<u32>(b),
                        [&] { return r2.search(pool.batches[b]); });
            account(r, pool.expect[b], "socket R=2", tally);
            c.broadcast += r.broadcast_queries;
            for (size_t s = 0; s < r.per_shard.size(); ++s)
                c.shard_kstep[s] += r.per_shard[s].kstep_iterations;
        }
    });
    return c;
}

int
runUntraced(const Args &a, const Dataset &ds, const ShardPlan &plan,
            const ExmaTable::Config &tc, const Pool &pool)
{
    const Workload &w = *a.workload;
    // Every cold set-up also serves an equal slice of the measured
    // time, and each metric is the median over slices. Where the host
    // places the workers and transport threads is fixed for a set-up's
    // life and moves small-batch latency by about 15% from one set-up
    // to the next, and host CPU steal comes in bursts; a run samples
    // several set-ups and a burst moves only the slices it hits.
    Tally tally;
    std::vector<double> setups, mbases, p50, p99;
    std::vector<double> pooled; ///< all latencies, for a tail slices can't resolve
    size_t min_samples = ~size_t{0};
    u64 index_bytes = 0;
    size_t slices = kMinSetups;
    for (size_t k = 0; k < slices; ++k) {
        double s = 0;
        const std::unique_ptr<ShardRouter> router =
            deploy(ds, plan, tc, kReplicas, &s);
        setups.push_back(s);
        if (k == 0)
            slices = std::clamp<size_t>(
                static_cast<size_t>(std::ceil(kSetupBudgetS / s)),
                kMinSetups, kMaxSetups);
        // Write the shard files back now rather than while measuring.
        ::sync();
        account(router->search(pool.batches[0]), pool.expect[0], "warm-up",
                tally);
        u64 bases = 0;
        const LoopRecord part =
            serveLoop(w, *router, pool, a.seconds / slices, 0, a.seed,
                      pooled.size(), tally, &bases, nullptr);
        mbases.push_back(
            ratio(static_cast<double>(bases), part.elapsed_s) / 1e6);
        p50.push_back(perfbench::median(part.latency_s));
        p99.push_back(perfbench::tailPercentile(part.latency_s, 99).value);
        min_samples = std::min(min_samples, part.latency_s.size());
        pooled.insert(pooled.end(), part.latency_s.begin(),
                      part.latency_s.end());
        if (k + 1 == slices) {
            const std::string dir = scratchDir("index");
            saveIndex(*router, dir);
            index_bytes = indexBytes(dir);
            std::filesystem::remove_all(dir);
        }
    }

    // The tail is the median of the slices' p99 when every slice can
    // resolve a p99 by itself, else the tail of all samples together.
    const bool sliced_tail = min_samples >= 100 * perfbench::kTailBeyond;
    const perfbench::Tail tail = perfbench::tailPercentile(pooled, 99);
    const double tail_s = sliced_tail ? perfbench::median(p99) : tail.value;
    std::printf("%s seed %llu: %zu set-ups, one slice each; %zu batches; "
                "p50 %.3f ms; tail %s p%u %.3f ms (reported as p99_ms; %zu "
                "samples, fewest per slice %zu)\n",
                w.name, (unsigned long long)a.seed, setups.size(),
                pooled.size(), perfbench::median(p50) * 1e3,
                sliced_tail ? "median of the slices'" : "pooled",
                sliced_tail ? 99u : tail.percentile, tail_s * 1e3,
                pooled.size(), min_samples);
    printResult(
        tally,
        {
            {"mbases_per_s", perfbench::median(mbases), "Mbases/s"},
            {"p50_ms", perfbench::median(p50) * 1e3, "ms"},
            {"p99_ms", tail_s * 1e3, "ms"},
            {"setup_s", perfbench::median(setups), "s"},
            {"index_bytes_per_base",
             ratio(static_cast<double>(index_bytes),
                   static_cast<double>(ds.ref.size())),
             "B/base"},
            {"served_frac",
             1.0 - ratio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)),
             "fraction"},
        });
    return tally.mismatched == 0 ? 0 : 1;
}

int
runTraced(const Args &a, const Dataset &ds, const ShardPlan &plan,
          const ExmaTable::Config &tc, const Pool &pool)
{
    const Workload &w = *a.workload;
    Tracer tr;
    Tally tally;
    const double base = static_cast<double>(ds.ref.size());

    double setup = 0;
    std::unique_ptr<ShardRouter> r2 =
        deploy(ds, plan, tc, kReplicas, &setup);
    ::sync();
    account(r2->search(pool.batches[0]), pool.expect[0], "warm-up", tally);

    // Half the measured time untraced, half with a span per call: the
    // difference is what the tracing costs.
    u64 bases = 0;
    const LoopRecord plain = serveLoop(w, *r2, pool, a.seconds / 2, 0,
                                       a.seed, 0, tally, &bases, nullptr);
    const LoopRecord traced = serveLoop(w, *r2, pool, a.seconds / 2, 0,
                                        a.seed, 0, tally, &bases, &tr);
    // The fixed-rate probe: latency from each batch's due time, and how
    // late the generator ran. Host CPU steal makes its tail too noisy
    // to gate on, so it is reported here rather than end to end.
    const LoopRecord open =
        w.rate > 0 ? serveLoop(w, *r2, pool, a.seconds / 2, w.rate, a.seed,
                               0, tally, &bases, nullptr)
                   : LoopRecord{};
    const double rss_mb = workerRssMb();

    const std::string dir = scratchDir("index");
    const auto t_save = SteadyClock::now();
    saveIndex(*r2, dir);
    const double save_s = since(t_save);
    const LoadedIndex loaded = loadIndex(dir);
    if (loaded.kind != IndexKind::Routed || !loaded.router ||
        loaded.router->transportKind() != TransportKind::InProcess)
        die("the saved index did not load as an in-process router");

    double r1_setup = 0;
    const std::unique_ptr<ShardRouter> r1 = deploy(ds, plan, tc, 1, &r1_setup);
    // One untraced round first, so every pass finds the mapped pages
    // faulted in and the caches and predictors in their steady state.
    Tracer warm;
    layerPass(w, pool, *r2, *r1, *loaded.router, warm, tally);
    const LayerCounts c =
        layerPass(w, pool, *r2, *r1, *loaded.router, tr, tally);

    auto T = tr.totals();
    const auto self = [&](const char *n) { return T[n].self_s; };
    const double q = static_cast<double>(c.queries);
    const double calls = static_cast<double>(c.shard_calls);
    const double lookups = 2.0 * static_cast<double>(c.stats.kstep_iterations);
    u64 kmax = 0, ksum = 0;
    for (u64 k : c.shard_kstep) {
        kmax = std::max(kmax, k);
        ksum += k;
    }
    const double rtt = T["transport.submit"].total_s;

    std::vector<Metric> m = {
        {"fmindex.rank_ns_per_base",
         ratio(self("fmindex.search") * 1e9, static_cast<double>(c.shard_bases)),
         "ns/base"},
        {"fmindex.locate_ns_per_hit",
         ratio(self("fmindex.locate") * 1e9, static_cast<double>(c.fm_hits)),
         "ns/hit"},
        {"core.count_ns_per_query", ratio(self("core.search") * 1e9, calls),
         "ns/query"},
        {"core.kstep_per_query",
         ratio(static_cast<double>(c.stats.kstep_iterations), calls),
         "count/query"},
        {"core.onestep_per_query",
         ratio(static_cast<double>(c.stats.onestep_iterations), calls),
         "count/query"},
        {"core.probes_per_lookup",
         ratio(static_cast<double>(c.stats.total_probes), lookups),
         "count/lookup"},
        {"core.model_lookup_frac",
         ratio(static_cast<double>(c.stats.model_lookups), lookups),
         "fraction"},
        {"learned.mean_error", c.stats.meanError(), "rows"},
        {"core.hits_per_query", ratio(static_cast<double>(c.hits), q),
         "count/query"},
        {"core.locate_ns_per_hit",
         ratio(self("core.locate") * 1e9, static_cast<double>(c.hits)),
         "ns/hit"},
        {"batch.ns_per_query", ratio(self("batch.search") * 1e9, calls),
         "ns/query"},
        {"batch.overhead_frac",
         ratio(self("batch.search"),
               self("core.search") + self("core.locate")) -
             1.0,
         "fraction"},
        {"shard.broadcast_frac", ratio(static_cast<double>(c.broadcast), q),
         "fraction"},
        {"shard.imbalance",
         ratio(static_cast<double>(kmax) *
                   static_cast<double>(c.shard_kstep.size()),
               static_cast<double>(ksum)),
         "ratio"},
        {"route.overhead_ns_per_query", ratio(c.route_over_s * 1e9, q),
         "ns/query"},
        {"route.ns_per_batch",
         ratio(c.route_over_s * 1e9, static_cast<double>(c.batches)),
         "ns/batch"},
        {"transport.rtt_us",
         ratio(rtt * 1e6, static_cast<double>(c.submits)), "us"},
        {"transport.worker_busy_frac", ratio(c.worker_s, rtt), "fraction"},
        {"transport.overhead_us_per_batch",
         ratio((rtt - c.worker_s) * 1e6, static_cast<double>(c.batches)),
         "us/batch"},
        {"transport.frame_bytes_per_base",
         ratio(static_cast<double>(c.frame_bytes),
               static_cast<double>(c.shard_bases)),
         "B/base"},
        {"transport.worker_rss_mb", rss_mb, "MB"},
        {"replica.r2_overhead_frac",
         ratio(self("route.socket_r2"), self("route.socket_r1")) - 1.0,
         "fraction"},
        {"failover.retries", static_cast<double>(tally.failover.retries),
         "count"},
        {"failover.hedges", static_cast<double>(tally.failover.hedges),
         "count"},
        {"failover.respawns", static_cast<double>(tally.failover.respawns),
         "count"},
        {"failover.worker_down",
         static_cast<double>(tally.failover.worker_down), "count"},
        {"failover.corrupt", static_cast<double>(tally.failover.corrupt),
         "count"},
        {"failover.deadline_misses",
         static_cast<double>(tally.failover.deadline_misses), "count"},
        {"persist.save_s", save_s, "s"},
        {"persist.load_s", loaded.load_seconds, "s"},
        {"io.occ_bytes_per_base",
         static_cast<double>(indexBytes(dir, kExtOcc)) / base, "B/base"},
        {"io.sa_bytes_per_base",
         static_cast<double>(indexBytes(dir, kExtSa)) / base, "B/base"},
        {"io.pac_bytes_per_base",
         static_cast<double>(indexBytes(dir, kExtPac)) / base, "B/base"},
        {"setup.build_s", r2->buildSeconds(), "s"},
        {"setup.spawn_s", setup - r2->buildSeconds(), "s"},
        {"gen.open_p50_ms", perfbench::median(open.latency_s) * 1e3, "ms"},
        {"gen.open_p99_ms",
         perfbench::tailPercentile(open.latency_s, 99).value * 1e3, "ms"},
        {"gen.late_ms_p99",
         perfbench::tailPercentile(open.late_s, 99).value * 1e3, "ms"},
        {"gen.backlog_max", static_cast<double>(open.backlog_max), "count"},
        {"trace.overhead_frac",
         ratio(meanOf(traced.latency_s), meanOf(plain.latency_s)) - 1.0,
         "fraction"},
    };
    std::filesystem::remove_all(dir);

    if (!a.trace_out.empty() && !tr.write(a.trace_out))
        die("cannot write spans to '" + a.trace_out + "'");
    for (const auto &[name, t] : T)
        std::printf("span %-24s calls %8llu  total %9.4f s  self %9.4f s\n",
                    name.c_str(), (unsigned long long)t.calls, t.total_s,
                    t.self_s);
    printResult(tally, m);
    return tally.mismatched == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    pinProgramUnderTest();
    const Workload &w = *a.workload;

    const Dataset ds = makeDataset(w.dataset, w.scale);
    const ExmaTable::Config tc = tableConfig(ds, w.scale);
    const Pool pool = makePool(w, ds, a.seed, tc);
    const ShardPlan plan = ShardPlan::kmerPrefix(ds.ref, kShards, pool.max_len);
    std::printf("%s: %s at scale %g (%zu bases), %zu batches of %llu "
                "queries, longest %llu bases\n",
                w.name, w.dataset, w.scale, ds.ref.size(), pool.batches.size(),
                (unsigned long long)w.batch,
                (unsigned long long)pool.max_len);
    return a.trace ? runTraced(a, ds, plan, tc, pool)
                   : runUntraced(a, ds, plan, tc, pool);
}
