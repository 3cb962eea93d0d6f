/**
 * @file
 * capbench: the simulating half of CAPsim's host-time benchmark.
 *
 * `run.py` spawns this binary once per measurement round and reads the
 * one JSON object it prints.  Subcommands:
 *
 *   sweep --workload cache-sweep|iq-sweep|cache-dram --seed N
 *         --budget S [--traced] [--spawn-ns T] [--spans PATH]
 *         [--oracle] [--check-engines]
 *       Runs the workload's study through core::runCacheStudy /
 *       core::runIqStudy (untraced), repeating it until --budget
 *       seconds are spent.  With --traced each repetition is followed
 *       by a replay of the same cells from this file's own code with
 *       every layer call wrapped in a span.  Reports walls, process
 *       CPU times, per-cell times, a digest of every result row,
 *       per-layer self times and counts, and VmHWM.
 *
 *   serve-oracle --jobs-file PATH
 *       Computes each job's output cold, in-process, with a fresh
 *       result cache per job: the reference a served output must
 *       equal byte for byte.
 *
 *   span-cost
 *       Cost of a disarmed CAPSIM_SPAN, ns.
 *
 *   calibrator --cpu N
 *       Pinned to CPU N, keeps it busy at idle priority, and for each
 *       line read from stdin prints three times of the calibration
 *       kernel; exits at end of input.
 *
 * Worker counts and run lengths are fixed here, never read from the
 * environment, so every run measures the same work.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/exclusive_hierarchy.h"
#include "cache/stack_sim.h"
#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/experiment.h"
#include "core/machine.h"
#include "mem/mem_model.h"
#include "obs/registry.h"
#include "obs/span_profiler.h"
#include "ooo/stream.h"
#include "ooo/window_sweep.h"
#include "serve/job.h"
#include "serve/result_cache.h"
#include "spans.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/json.h"

namespace {

using namespace cap;
using capbench::Layer;
using capbench::nowNs;
using capbench::Scoped;
using capbench::SpanRecorder;

/** Study worker threads: one, so a faster layer shows undiluted. */
constexpr int kJobs = 1;
/** Boundaries / queue sizes every study sweeps. */
constexpr int kConfigs = 8;
/** References per (app, boundary) of the flat cache study. */
constexpr uint64_t kCacheRefs = 150000;
/** References per (app, boundary) of the dram cache study. */
constexpr uint64_t kDramRefs = 25000;
/** Instructions per (app, queue size) of the IQ study. */
constexpr uint64_t kIqInstrs = 40000;

enum class Workload { CacheSweep, IqSweep, CacheDram };

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
hex16(uint64_t x)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
    return buf;
}

/** FNV-1a of a row's canonical text (doubles as their bit patterns). */
std::string
rowDigest(const std::vector<core::CachePerf> &row)
{
    std::ostringstream os;
    for (const core::CachePerf &p : row)
        os << p.l1_increments << ' ' << p.refs << ' ' << p.instructions
           << ' ' << json::doubleBits(p.l1_miss_ratio) << ' '
           << json::doubleBits(p.global_miss_ratio) << ' '
           << json::doubleBits(p.tpi_ns) << ' '
           << json::doubleBits(p.tpi_miss_ns) << '\n';
    return hex16(serve::fnv1a(os.str()));
}

std::string
rowDigest(const std::vector<core::IqPerf> &row)
{
    std::ostringstream os;
    for (const core::IqPerf &p : row)
        os << p.entries << ' ' << p.instructions << ' ' << p.cycles << ' '
           << json::doubleBits(p.ipc) << ' ' << json::doubleBits(p.tpi_ns)
           << '\n';
    return hex16(serve::fnv1a(os.str()));
}

/** Peak resident set of this process, KiB (0 if unreadable). */
uint64_t
vmHwmKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** CPU time (user + system) this process has used, ns. */
uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

double
spanDisarmedNs()
{
    constexpr uint64_t kReps = 2000000;
    uint64_t start = nowNs();
    for (uint64_t i = 0; i < kReps; ++i) {
        CAPSIM_SPAN("capbench.span_cost");
    }
    return static_cast<double>(nowNs() - start) / static_cast<double>(kReps);
}

/**
 * The calibration kernel: fixed work shaped like the simulator's hot
 * loops (hashing, tag compares and LRU updates in a 256-set x 8-way
 * table), and nothing else.  The host's speed changes for seconds at a
 * time by as much as 40%, for code like the simulator's but much less
 * for a dependent arithmetic chain; timing this kernel next to each
 * study measures that speed.  It calls nothing in src/, so no change
 * to the simulator moves it.  Returns host seconds.
 */
double
calibrationSeconds()
{
    constexpr int kSets = 256;
    constexpr int kWays = 8;
    std::array<uint64_t, kSets * kWays> tags{};
    std::array<uint64_t, kSets * kWays> last_use{};
    uint64_t start = nowNs();
    uint64_t x = 5, base = 0, hits = 0;
    for (uint64_t tick = 1; tick <= 600000; ++tick) {
        x = splitmix64(x);
        if ((x & 63) == 0)
            base = x >> 20;
        uint64_t block = (base + ((x >> 8) & 0x7fff)) >> 5;
        uint64_t *tag = &tags[(block % kSets) * kWays];
        uint64_t *used = &last_use[(block % kSets) * kWays];
        int way = -1, victim = 0;
        for (int w = 0; w < kWays; ++w) {
            if (tag[w] == block / kSets)
                way = w;
            if (used[w] < used[victim])
                victim = w;
        }
        if (way >= 0) {
            ++hits;
            used[way] = tick;
        } else {
            tag[victim] = block / kSets;
            used[victim] = tick;
        }
    }
    double seconds = static_cast<double>(nowNs() - start) * 1e-9;
    volatile uint64_t sink = hits;
    (void)sink;
    return seconds;
}

/** The inputs and models of one sweep workload. */
struct Bench
{
    Workload workload;
    std::vector<trace::AppProfile> apps;
    uint64_t length;
    std::unique_ptr<core::AdaptiveCacheModel> cache_model;
    std::unique_ptr<core::AdaptiveIqModel> iq_model;

    Bench(Workload w, uint64_t seed) : workload(w)
    {
        bool iq = w == Workload::IqSweep;
        apps = iq ? trace::iqStudyApps() : trace::cacheStudyApps();
        // The workload seed re-seeds copies of the profiles; the study
        // runners only ever see the generated inputs.
        for (trace::AppProfile &app : apps)
            app.seed = splitmix64(app.seed ^ splitmix64(seed));
        if (iq) {
            length = kIqInstrs;
            iq_model = std::make_unique<core::AdaptiveIqModel>();
        } else {
            length = w == Workload::CacheDram ? kDramRefs : kCacheRefs;
            cache_model = std::make_unique<core::AdaptiveCacheModel>();
            if (w == Workload::CacheDram) {
                mem::MemConfig mem;
                std::string error;
                if (!mem::parseMemSpec("dram", mem, error)) {
                    std::cerr << "capbench: " << error << "\n";
                    std::exit(2);
                }
                cache_model->setMemConfig(mem);
            }
        }
    }

    /** Names of the spans' cells: apps, or app/config for dram. */
    std::vector<std::string> cellNames() const
    {
        std::vector<std::string> names;
        for (const trace::AppProfile &app : apps) {
            if (workload != Workload::CacheDram) {
                names.push_back(app.name);
                continue;
            }
            for (int k = 1; k <= kConfigs; ++k)
                names.push_back(app.name + "/k" + std::to_string(k));
        }
        return names;
    }
};

struct StudyRep
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> cell_s;
    std::vector<std::string> rows;
    std::array<double, 2> cal_s{}; ///< calibration before and after
};

StudyRep
runStudy(const Bench &bench, bool one_pass)
{
    StudyRep rep;
    uint64_t cpu_start = cpuNs();
    uint64_t start = nowNs();
    if (bench.iq_model) {
        core::IqStudy study = core::runIqStudy(
            *bench.iq_model, bench.apps, bench.length, kJobs, {}, one_pass);
        rep.wall_s = static_cast<double>(nowNs() - start) * 1e-9;
        rep.cpu_s = static_cast<double>(cpuNs() - cpu_start) * 1e-9;
        for (const auto &row : study.perf)
            rep.rows.push_back(rowDigest(row));
        for (const core::CellTelemetry &cell : study.telemetry.cells)
            rep.cell_s.push_back(cell.sim_seconds);
    } else {
        core::CacheStudy study = core::runCacheStudy(
            *bench.cache_model, bench.apps, bench.length, kConfigs, kJobs,
            {}, one_pass);
        rep.wall_s = static_cast<double>(nowNs() - start) * 1e-9;
        rep.cpu_s = static_cast<double>(cpuNs() - cpu_start) * 1e-9;
        for (const auto &row : study.perf)
            rep.rows.push_back(rowDigest(row));
        for (const core::CellTelemetry &cell : study.telemetry.cells)
            rep.cell_s.push_back(cell.sim_seconds);
    }
    return rep;
}

/** Work counts of one traced replay, taken where the work happens. */
struct Counts
{
    uint64_t refs = 0;        ///< records SyntheticTraceSource produced
    uint64_t stack_refs = 0;  ///< records fed to StackSimulator
    uint64_t hier_refs = 0;   ///< ExclusiveHierarchy::access calls
    uint64_t misses = 0;      ///< L2 misses of those accesses
    uint64_t dram_misses = 0; ///< DramBackend::onMiss calls
    uint64_t dram_accesses = 0;
    uint64_t row_hits = 0;
    uint64_t mshr_merges = 0;
    uint64_t full_stalls = 0;
    uint64_t ops = 0;         ///< micro-ops InstructionStream produced
    uint64_t instr_lanes = 0; ///< instructions issued, summed over lanes
    uint64_t lanes = 0;
    uint64_t unstalled_lanes = 0; ///< lanes with no full-queue stall
};

struct TracedRep
{
    double wall_s = 0.0;
    std::array<double, capbench::kLayerCount> self_s{};
    Counts counts;
    std::vector<std::string> rows;
    std::array<double, 2> cal_s{}; ///< calibration before and after
};

/** OpSource wrapper that times each generator batch as ooo.gen. */
class TimedOpSource : public ooo::OpSource
{
  public:
    TimedOpSource(ooo::OpSource &inner, SpanRecorder &recorder,
                  uint32_t cell, uint64_t &ops)
        : inner_(inner), recorder_(recorder), cell_(cell), ops_(ops)
    {
    }

    uint64_t nextBatch(ooo::MicroOp *out, uint64_t max) override
    {
        Scoped span(recorder_, Layer::OooGen, cell_);
        uint64_t n = inner_.nextBatch(out, max);
        ops_ += n;
        return n;
    }

    uint64_t position() const override { return inner_.position(); }

  private:
    ooo::OpSource &inner_;
    SpanRecorder &recorder_;
    uint32_t cell_;
    uint64_t &ops_;
};

/** One-pass cache cell, as AdaptiveCacheModel::sweepOnePassObserved. */
std::vector<core::CachePerf>
replayStackCell(const Bench &bench, const trace::AppProfile &app,
                uint32_t cell, SpanRecorder &rec, Counts &counts)
{
    const core::AdaptiveCacheModel &model = *bench.cache_model;
    cache::StackSimulator stack(model.geometry());
    trace::SyntheticTraceSource source(app.cache, app.seed, bench.length);
    trace::TraceRecord batch[trace::kTraceBatch];
    for (;;) {
        uint64_t n;
        {
            Scoped span(rec, Layer::TraceGen, cell);
            n = source.nextBatch(batch, trace::kTraceBatch);
        }
        counts.refs += n;
        if (n == 0)
            break;
        Scoped span(rec, Layer::CacheStack, cell);
        stack.accessBatch(batch, n);
    }
    counts.stack_refs += stack.refs();

    std::vector<cache::CacheStats> stats;
    {
        Scoped span(rec, Layer::CacheStack, cell);
        for (int k = 1; k <= kConfigs; ++k)
            stats.push_back(stack.statsFor(k));
    }
    std::vector<core::CachePerf> row;
    for (int k = 1; k <= kConfigs; ++k)
        row.push_back(model.perfFromStats(stats[k - 1],
                                          model.boundaryTiming(k),
                                          app.cache.refs_per_instr));
    return row;
}

/** Per-config dram cell, as AdaptiveCacheModel::evaluateDram.  The
 *  hierarchy pass and the backend pass of each batch run one after
 *  the other (the hierarchy never reads the backend), so each gets its
 *  own span while the access order the backend sees is unchanged. */
core::CachePerf
replayDramCell(const Bench &bench, const trace::AppProfile &app, int k,
               uint32_t cell, SpanRecorder &rec, Counts &counts)
{
    const core::AdaptiveCacheModel &model = *bench.cache_model;
    core::CacheBoundaryTiming timing = model.boundaryTiming(k);
    cache::ExclusiveHierarchy hierarchy(model.geometry(), k);
    mem::DramBackend backend(model.memConfig().dram);
    trace::SyntheticTraceSource source(app.cache, app.seed, bench.length);
    trace::TraceRecord batch[trace::kTraceBatch];
    cache::AccessOutcome outcomes[trace::kTraceBatch];

    Nanoseconds now_ns = 0.0;
    const Nanoseconds ref_ns =
        timing.cycle_ns /
        (core::CacheMachine::kBaseIpc * app.cache.refs_per_instr);
    const Nanoseconds l2_hit_ns =
        timing.cycle_ns * static_cast<double>(timing.l2_hit_cycles);
    Nanoseconds dram_stall_ns = 0.0;
    for (;;) {
        uint64_t n;
        {
            Scoped span(rec, Layer::TraceGen, cell);
            n = source.nextBatch(batch, trace::kTraceBatch);
        }
        counts.refs += n;
        if (n == 0)
            break;
        {
            Scoped span(rec, Layer::CacheHier, cell);
            for (uint64_t i = 0; i < n; ++i)
                outcomes[i] = hierarchy.access(batch[i]);
        }
        Scoped span(rec, Layer::MemDram, cell);
        for (uint64_t i = 0; i < n; ++i) {
            now_ns += ref_ns;
            if (outcomes[i] == cache::AccessOutcome::L2Hit) {
                now_ns += l2_hit_ns;
            } else if (outcomes[i] == cache::AccessOutcome::Miss) {
                Nanoseconds stall = backend.onMiss(batch[i].addr, now_ns);
                now_ns += stall;
                dram_stall_ns += stall;
            }
        }
    }

    const cache::CacheStats &stats = hierarchy.stats();
    const mem::DramStats &dram = backend.dramStats();
    const mem::MshrStats &mshr = backend.mshrStats();
    counts.hier_refs += stats.refs;
    counts.misses += stats.misses;
    counts.dram_misses += mshr.allocs + mshr.merges;
    counts.dram_accesses += dram.accesses;
    counts.row_hits += dram.row_hits;
    counts.mshr_merges += mshr.merges;
    counts.full_stalls += mshr.full_stalls;
    return model.perfFromDram(stats, timing, app.cache.refs_per_instr,
                              dram_stall_ns);
}

/** One-pass IQ cell, as AdaptiveIqModel::sweepOnePassObserved. */
std::vector<core::IqPerf>
replayIqCell(const Bench &bench, const trace::AppProfile &app,
             uint32_t cell, SpanRecorder &rec, Counts &counts)
{
    const core::AdaptiveIqModel &model = *bench.iq_model;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    ooo::InstructionStream stream(app.ilp, app.seed);
    TimedOpSource source(stream, rec, cell, counts.ops);
    ooo::CoreParams params;
    params.queue_entries = sizes.front();
    params.dispatch_width = core::IqMachine::kDispatchWidth;
    params.issue_width = core::IqMachine::kIssueWidth;
    ooo::WindowSweeper sweeper(source, params, sizes);

    for (size_t lane = 0; lane < sweeper.laneCount(); ++lane)
        for (uint64_t done = 0; done < bench.length;) {
            done += std::min(core::kIntervalInstructions,
                             bench.length - done);
            sweeper.addLaneMark(lane, done);
        }
    {
        Scoped span(rec, Layer::OooLane, cell);
        sweeper.advanceAllTo(bench.length);
    }

    std::vector<core::IqPerf> row;
    for (size_t lane = 0; lane < sweeper.laneCount(); ++lane) {
        core::IqPerf perf;
        perf.entries = sweeper.laneEntries(lane);
        perf.instructions = bench.length;
        perf.cycles = sweeper.laneCycles(lane);
        perf.ipc = perf.cycles ? static_cast<double>(perf.instructions) /
                                     static_cast<double>(perf.cycles)
                               : 0.0;
        perf.tpi_ns =
            perf.ipc > 0.0 ? model.cycleNs(perf.entries) / perf.ipc : 0.0;
        row.push_back(perf);

        obs::CounterRegistry registry;
        sweeper.foldLaneMetrics(lane, registry, "lane.");
        counts.lanes += 1;
        counts.instr_lanes += sweeper.laneIssued(lane);
        if (registry.counter("lane.dispatch_stall_cycles").value() == 0)
            counts.unstalled_lanes += 1;
    }
    return row;
}

/** Replay every cell of the study in the order the runner does. */
TracedRep
replayStudy(const Bench &bench, SpanRecorder &rec)
{
    TracedRep rep;
    rec.clearTotals();
    uint64_t start = nowNs();
    {
        Scoped study(rec, Layer::Study, SpanRecorder::kNoCell);
        for (size_t a = 0; a < bench.apps.size(); ++a) {
            const trace::AppProfile &app = bench.apps[a];
            uint32_t id = static_cast<uint32_t>(a);
            if (bench.workload == Workload::IqSweep) {
                Scoped span(rec, Layer::Cell, id);
                rep.rows.push_back(
                    rowDigest(replayIqCell(bench, app, id, rec, rep.counts)));
            } else if (bench.workload == Workload::CacheSweep) {
                Scoped span(rec, Layer::Cell, id);
                rep.rows.push_back(rowDigest(
                    replayStackCell(bench, app, id, rec, rep.counts)));
            } else {
                std::vector<core::CachePerf> row;
                for (int k = 1; k <= kConfigs; ++k) {
                    uint32_t cell = id * kConfigs + (k - 1);
                    Scoped span(rec, Layer::Cell, cell);
                    row.push_back(
                        replayDramCell(bench, app, k, cell, rec, rep.counts));
                }
                rep.rows.push_back(rowDigest(row));
            }
        }
    }
    rep.wall_s = static_cast<double>(nowNs() - start) * 1e-9;
    for (size_t l = 0; l < capbench::kLayerCount; ++l)
        rep.self_s[l] = rec.selfSeconds(static_cast<Layer>(l));
    return rep;
}

/** `--key value` pairs after the subcommand. */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::cerr << "capbench: unexpected argument '" << key << "'\n";
            std::exit(2);
        }
        key = key.substr(2);
        bool has_value = i + 1 < argc &&
                         std::string(argv[i + 1]).rfind("--", 0) != 0;
        args[key] = has_value ? argv[++i] : "1";
    }
    return args;
}

void
writeRows(json::Writer &w, const std::vector<std::string> &rows)
{
    w.beginArray();
    for (const std::string &row : rows)
        w.value(row);
    w.endArray();
}

void
writeCal(json::Writer &w, const std::array<double, 2> &cal_s)
{
    w.key("cal_s").beginArray().value(cal_s[0], 9).value(cal_s[1], 9)
        .endArray();
}

int
cmdSweep(const std::map<std::string, std::string> &args)
{
    auto get = [&](const char *key, const char *fallback) {
        auto it = args.find(key);
        return it == args.end() ? std::string(fallback) : it->second;
    };
    std::string name = get("workload", "");
    Workload workload;
    if (name == "cache-sweep")
        workload = Workload::CacheSweep;
    else if (name == "iq-sweep")
        workload = Workload::IqSweep;
    else if (name == "cache-dram")
        workload = Workload::CacheDram;
    else {
        std::cerr << "capbench: unknown sweep workload '" << name << "'\n";
        return 2;
    }
    uint64_t seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
    double budget_s = std::atof(get("budget", "1").c_str());
    bool is_traced = args.count("traced") > 0;
    uint64_t spawn_ns = std::strtoull(get("spawn-ns", "0").c_str(), nullptr, 10);
    std::string spans_path = get("spans", "");

    Bench bench(workload, seed);

    // Traced runs alternate an untraced study with a traced replay, so
    // drift in the host's speed hits both sides of the overhead alike.
    SpanRecorder rec;
    std::vector<StudyRep> untraced;
    std::vector<TracedRep> traced;
    std::vector<capbench::Span> spans;
    uint64_t first_call = nowNs();
    // Every study and replay sits between two calibrations.
    double cal = calibrationSeconds();
    for (;;) {
        untraced.push_back(runStudy(bench, true));
        double rep_s = untraced.back().wall_s;
        double after = calibrationSeconds();
        untraced.back().cal_s = {cal, after};
        cal = after;
        if (is_traced) {
            traced.push_back(replayStudy(bench, rec));
            rep_s += traced.back().wall_s;
            after = calibrationSeconds();
            traced.back().cal_s = {cal, after};
            cal = after;
            // Keep the first replay's spans for the trace file only.
            if (spans.empty())
                spans = rec.takeSpans();
            else
                rec.takeSpans();
        }
        double spent = static_cast<double>(nowNs() - first_call) * 1e-9;
        if (spent + rep_s > budget_s)
            break;
    }
    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        SpanRecorder::writeChromeTrace(out, spans, bench.cellNames());
        if (!out) {
            std::cerr << "capbench: cannot write " << spans_path << "\n";
            return 1;
        }
    }

    std::vector<std::string> oracle_rows;
    if (args.count("oracle")) {
        SpanRecorder rec;
        oracle_rows = replayStudy(bench, rec).rows;
    }
    std::vector<std::string> perconfig_rows;
    if (args.count("check-engines"))
        perconfig_rows = runStudy(bench, false).rows;

    json::Writer w(std::cout);
    w.beginObject()
        .key("workload").value(name)
        .key("seed").value(seed)
        .key("apps").value(static_cast<uint64_t>(bench.apps.size()))
        .key("configs").value(kConfigs)
        .key("length").value(bench.length)
        .key("jobs").value(kJobs)
        .key("setup_s")
        .value(spawn_ns && first_call > spawn_ns
                   ? static_cast<double>(first_call - spawn_ns) * 1e-9
                   : 0.0,
               9);
    w.key("untraced").beginArray();
    for (const StudyRep &rep : untraced) {
        w.beginObject().key("wall_s").value(rep.wall_s, 9)
            .key("cpu_s").value(rep.cpu_s, 9);
        writeCal(w, rep.cal_s);
        w.key("cell_s").beginArray();
        for (double s : rep.cell_s)
            w.value(s, 9);
        w.endArray().key("rows");
        writeRows(w, rep.rows);
        w.endObject();
    }
    w.endArray();
    w.key("traced").beginArray();
    for (const TracedRep &rep : traced) {
        const Counts &c = rep.counts;
        w.beginObject().key("wall_s").value(rep.wall_s, 9);
        writeCal(w, rep.cal_s);
        w.key("self_s").beginObject();
        for (size_t l = 0; l < capbench::kLayerCount; ++l)
            w.key(capbench::layerName(static_cast<Layer>(l)))
                .value(rep.self_s[l], 9);
        w.endObject();
        w.key("counts").beginObject()
            .key("refs").value(c.refs)
            .key("stack_refs").value(c.stack_refs)
            .key("hier_refs").value(c.hier_refs)
            .key("misses").value(c.misses)
            .key("dram_misses").value(c.dram_misses)
            .key("dram_accesses").value(c.dram_accesses)
            .key("row_hits").value(c.row_hits)
            .key("mshr_merges").value(c.mshr_merges)
            .key("full_stalls").value(c.full_stalls)
            .key("ops").value(c.ops)
            .key("instr_lanes").value(c.instr_lanes)
            .key("lanes").value(c.lanes)
            .key("unstalled_lanes").value(c.unstalled_lanes)
            .endObject();
        w.key("rows");
        writeRows(w, rep.rows);
        w.endObject();
    }
    w.endArray();
    if (!traced.empty())
        w.key("span_disarmed_ns").value(spanDisarmedNs(), 4);
    if (args.count("oracle")) {
        w.key("oracle_rows");
        writeRows(w, oracle_rows);
    }
    if (args.count("check-engines")) {
        w.key("perconfig_rows");
        writeRows(w, perconfig_rows);
    }
    w.key("vmhwm_kb").value(vmHwmKb());
    w.endObject();
    std::cout << "\n";
    return 0;
}

/** Each job of the file computed cold: a fresh cache per job. */
int
cmdServeOracle(const std::map<std::string, std::string> &args)
{
    auto it = args.find("jobs-file");
    std::ifstream in(it == args.end() ? "" : it->second);
    if (!in) {
        std::cerr << "capbench: serve-oracle needs a readable --jobs-file\n";
        return 2;
    }
    json::Writer w(std::cout);
    w.beginArray();
    std::string line;
    while (std::getline(in, line)) {
        json::Value job;
        serve::JobSpec spec;
        std::string error;
        if (!json::parse(line, job, error) ||
            !serve::jobFromJson(job, spec, error)) {
            std::cerr << "capbench: bad job '" << line << "': " << error
                      << "\n";
            return 1;
        }
        serve::ResultCache cache(1024);
        serve::JobExecutor executor(cache, 2);
        serve::JobOutcome outcome = executor.run(
            spec, [] { return serve::Interrupt::None; }, {}, nullptr);
        w.beginObject().key("ok").value(outcome.ok())
            .key("output").value(outcome.output)
            .endObject();
    }
    w.endArray();
    std::cout << "\n";
    return 0;
}

/**
 * Calibration on the serve-mix server's CPU.  A vCPU that goes idle can
 * come back on another core of the host, so a kernel run after an idle
 * gap can time a different core than the server ran on.  A spinning
 * thread at SCHED_IDLE priority keeps the CPU from idling without
 * taking time from anything else on it: any other thread that wakes
 * there preempts it at once.
 */
int
cmdCalibrator(const std::map<std::string, std::string> &args)
{
    auto it = args.find("cpu");
    if (it == args.end()) {
        std::cerr << "capbench: calibrator needs --cpu N\n";
        return 2;
    }
    int cpu = std::atoi(it->second.c_str());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
        std::cerr << "capbench: cannot run on CPU " << cpu << "\n";
        return 1;
    }
    std::atomic<bool> stop{false};
    std::thread spinner([&stop] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop.load(std::memory_order_relaxed)) {
        }
    });
    for (std::string line; std::getline(std::cin, line);) {
        json::Writer w(std::cout);
        w.beginObject().key("cal_s").beginArray();
        for (int i = 0; i < 3; ++i)
            w.value(calibrationSeconds(), 9);
        w.endArray().endObject();
        std::cout << std::endl;
    }
    stop = true;
    spinner.join();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: capbench sweep|serve-oracle|span-cost|calibrator "
                     "...\n";
        return 2;
    }
    std::string cmd = argv[1];
    auto args = parseArgs(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "serve-oracle")
        return cmdServeOracle(args);
    if (cmd == "calibrator")
        return cmdCalibrator(args);
    if (cmd == "span-cost") {
        std::cout << "{\"span_disarmed_ns\": " << spanDisarmedNs() << "}\n";
        return 0;
    }
    std::cerr << "capbench: unknown subcommand '" << cmd << "'\n";
    return 2;
}
