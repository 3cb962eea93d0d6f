/**
 * @file
 * In-memory span recording for the benchmark's traced replay.
 *
 * The traced run wraps each call into a simulator layer in a span --
 * one per 512-record trace batch, never per reference -- and derives a
 * layer's self time as its spans' durations minus the time their child
 * spans cover.  Spans are kept in memory and written out once, as a
 * Chrome trace, when the run ends.  Layer names match the stage names
 * the simulator's own span profiler uses, so traces from both line up.
 */

#ifndef CAPBENCH_SPANS_H
#define CAPBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace capbench {

/** The layers a traced replay attributes time to. */
enum class Layer : uint8_t
{
    Study,      ///< core.study: one replayed study (root span)
    Cell,       ///< core.cell: one study cell (app, or app x config)
    TraceGen,   ///< trace.gen: SyntheticTraceSource::nextBatch
    CacheStack, ///< cache.stack: StackSimulator::accessBatch / statsFor
    CacheHier,  ///< cache.hier: ExclusiveHierarchy::access
    MemDram,    ///< mem.dram: DramBackend::onMiss
    OooGen,     ///< ooo.gen: InstructionStream::nextBatch
    OooLane,    ///< ooo.lane: WindowSweeper::advanceAllTo
    Count,
};

constexpr size_t kLayerCount = static_cast<size_t>(Layer::Count);

const char *layerName(Layer layer);

/** Monotonic host time in ns (std::chrono::steady_clock). */
uint64_t nowNs();

/** One closed span. */
struct Span
{
    Layer layer = Layer::Study;
    /** Index of the enclosing span in the recorder, or kNoParent. */
    uint32_t parent = 0;
    /** Workload cell the span belongs to (index into cell names). */
    uint32_t cell = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t self_ns = 0;
};

/** Single-threaded span stack; the traced replay runs on one thread. */
class SpanRecorder
{
  public:
    static constexpr uint32_t kNoParent = UINT32_MAX;
    /** Cell index of spans that belong to no single cell. */
    static constexpr uint32_t kNoCell = UINT32_MAX;

    void begin(Layer layer, uint32_t cell);
    void end();

    /** Self time per layer accumulated since the last clearTotals(). */
    double selfSeconds(Layer layer) const;
    void clearTotals() { self_ns_.fill(0); }

    /** Closed spans since the last takeSpans(), in opening order. */
    std::vector<Span> takeSpans();

    /**
     * Chrome trace_event JSON of @p spans (complete events, times in
     * microseconds since the first span); @p cells names each span's
     * cell index.
     */
    static void writeChromeTrace(std::ostream &os,
                                 const std::vector<Span> &spans,
                                 const std::vector<std::string> &cells);

  private:
    struct Frame
    {
        uint32_t index;
        uint64_t child_ns;
    };

    std::vector<Span> spans_;
    std::vector<Frame> open_;
    std::array<uint64_t, kLayerCount> self_ns_{};
};

/** RAII span around one call into a layer. */
class Scoped
{
  public:
    Scoped(SpanRecorder &recorder, Layer layer, uint32_t cell)
        : recorder_(recorder)
    {
        recorder_.begin(layer, cell);
    }
    ~Scoped() { recorder_.end(); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder &recorder_;
};

} // namespace capbench

#endif // CAPBENCH_SPANS_H
