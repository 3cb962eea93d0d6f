#include "spans.h"

#include <chrono>

#include "util/json.h"

namespace capbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Study: return "core.study";
    case Layer::Cell: return "core.cell";
    case Layer::TraceGen: return "trace.gen";
    case Layer::CacheStack: return "cache.stack";
    case Layer::CacheHier: return "cache.hier";
    case Layer::MemDram: return "mem.dram";
    case Layer::OooGen: return "ooo.gen";
    case Layer::OooLane: return "ooo.lane";
    case Layer::Count: break;
    }
    return "?";
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
SpanRecorder::begin(Layer layer, uint32_t cell)
{
    Span span;
    span.layer = layer;
    span.parent = open_.empty() ? kNoParent : open_.back().index;
    span.cell = cell;
    open_.push_back({static_cast<uint32_t>(spans_.size()), 0});
    spans_.push_back(span);
    spans_.back().start_ns = nowNs();
}

void
SpanRecorder::end()
{
    uint64_t now = nowNs();
    Frame frame = open_.back();
    open_.pop_back();
    Span &span = spans_[frame.index];
    span.end_ns = now;
    uint64_t dur = now - span.start_ns;
    span.self_ns = dur > frame.child_ns ? dur - frame.child_ns : 0;
    self_ns_[static_cast<size_t>(span.layer)] += span.self_ns;
    if (!open_.empty())
        open_.back().child_ns += dur;
}

double
SpanRecorder::selfSeconds(Layer layer) const
{
    return static_cast<double>(self_ns_[static_cast<size_t>(layer)]) * 1e-9;
}

std::vector<Span>
SpanRecorder::takeSpans()
{
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os,
                               const std::vector<Span> &spans,
                               const std::vector<std::string> &cells)
{
    uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
    auto us = [](uint64_t ns) { return static_cast<double>(ns) * 1e-3; };
    cap::json::Writer w(os);
    w.beginObject().key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject()
            .key("name").value(layerName(s.layer))
            .key("cat").value("capbench")
            .key("ph").value("X")
            .key("pid").value(1)
            .key("tid").value(1)
            .key("ts").value(us(s.start_ns - epoch), 3)
            .key("dur").value(us(s.end_ns - s.start_ns), 3);
        w.key("args").beginObject()
            .key("id").value(static_cast<uint64_t>(i));
        if (s.parent == kNoParent)
            w.key("parent").rawValue("null");
        else
            w.key("parent").value(static_cast<uint64_t>(s.parent));
        w.key("cell").value(s.cell < cells.size() ? cells[s.cell] : "")
            .key("self_us").value(us(s.self_ns), 3)
            .endObject()
            .endObject();
    }
    w.endArray().endObject();
    os << "\n";
}

} // namespace capbench
