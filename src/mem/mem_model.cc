#include "mem_model.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace cap::mem {

namespace {

bool
parseUint(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseNs(const std::string &text, Nanoseconds &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0' || v < 0.0)
        return false;
    out = v;
    return true;
}

} // namespace

bool
parseMemSpec(const std::string &spec, MemConfig &config, std::string &error)
{
    if (spec == "flat") {
        config = MemConfig{};
        return true;
    }
    if (spec != "dram" && spec.rfind("dram:", 0) != 0) {
        error = "unknown --mem kind '" + spec + "' (expected flat or dram)";
        return false;
    }

    MemConfig parsed;
    parsed.kind = MemKind::Dram;
    std::string knobs = spec == "dram" ? "" : spec.substr(5);
    std::istringstream stream(knobs);
    std::string item;
    while (std::getline(stream, item, ',')) {
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "malformed --mem knob '" + item + "' (expected key=value)";
            return false;
        }
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        uint64_t u = 0;
        bool ok;
        if (key == "banks") {
            ok = parseUint(value, u) && u >= 1 && u <= 1024;
            parsed.dram.banks = static_cast<uint32_t>(u);
        } else if (key == "row") {
            ok = parseUint(value, u) && isPowerOfTwo(u) && u >= 64;
            parsed.dram.row_bytes = u;
        } else if (key == "hit") {
            ok = parseNs(value, parsed.dram.row_hit_ns);
        } else if (key == "miss") {
            ok = parseNs(value, parsed.dram.row_miss_ns);
        } else if (key == "conflict") {
            ok = parseNs(value, parsed.dram.row_conflict_ns);
        } else if (key == "burst") {
            ok = parseNs(value, parsed.dram.burst_ns);
        } else if (key == "policy") {
            ok = value == "open" || value == "closed";
            parsed.dram.page_policy =
                value == "closed" ? PagePolicy::Closed : PagePolicy::Open;
        } else {
            error = "unknown --mem knob '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad --mem value for '" + key + "': '" + value + "'";
            return false;
        }
    }
    if (parsed.dram.row_hit_ns > parsed.dram.row_miss_ns ||
        parsed.dram.row_miss_ns > parsed.dram.row_conflict_ns) {
        error = "--mem=dram latencies must satisfy hit <= miss <= conflict";
        return false;
    }
    config = parsed;
    return true;
}

DramBackend::DramBackend(const DramParams &params)
    : params_(params), banks_(params.banks)
{
}

Nanoseconds
DramBackend::serviceAccess(Addr addr, Nanoseconds ready_ns)
{
    uint64_t row_id = addr / params_.row_bytes;
    Bank &bank = banks_[row_id % params_.banks];
    uint64_t row = row_id / params_.banks;

    Nanoseconds issue =
        std::max(ready_ns, std::max(bank.busy_until, channel_free_));
    Nanoseconds latency;
    if (params_.page_policy == PagePolicy::Closed) {
        // The bank auto-precharges after every access: always an
        // activate + column access, never a conflict.
        latency = params_.row_miss_ns;
        ++dram_.row_misses;
        bank.row_valid = false;
    } else if (bank.row_valid && bank.open_row == row) {
        latency = params_.row_hit_ns;
        ++dram_.row_hits;
    } else if (!bank.row_valid) {
        latency = params_.row_miss_ns;
        ++dram_.row_misses;
    } else {
        latency = params_.row_conflict_ns;
        ++dram_.row_conflicts;
    }
    if (params_.page_policy == PagePolicy::Open) {
        bank.open_row = row;
        bank.row_valid = true;
    }

    Nanoseconds completion = issue + latency;
    bank.busy_until = completion;
    // The data burst occupies the shared channel at the tail of the
    // access; a different bank can overlap its activate but not its
    // transfer.
    channel_free_ = completion - params_.burst_ns > channel_free_
                        ? completion
                        : channel_free_ + params_.burst_ns;

    ++dram_.accesses;
    dram_.service_ns += latency;
    dram_.queue_ns += issue - ready_ns;
    return completion;
}

Nanoseconds
DramBackend::onMiss(Addr addr, Nanoseconds now_ns)
{
    Nanoseconds stall = serviceAccess(addr, now_ns) - now_ns;
    ++mshr_.allocs;
    mshr_.stall_ns += stall;
    return stall;
}

} // namespace cap::mem
