#include "mem/dram_bank.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "stats/metrics.hh"

namespace cellbw::mem
{

DramBank::DramBank(std::string name, sim::EventQueue &eq,
                   const DramBankParams &params)
    : sim::SimObject(std::move(name), eq), params_(params)
{
    if (params_.bytesPerTick <= 0.0)
        sim::fatal("%s: bank service rate must be positive", this->name().c_str());
    if (params_.refreshInterval != 0 &&
        params_.refreshDuration >= params_.refreshInterval) {
        sim::fatal("%s: refresh duration must be below the interval",
                   this->name().c_str());
    }
}

Tick
DramBank::skipRefresh(Tick t)
{
    if (params_.refreshInterval == 0 || params_.refreshDuration == 0)
        return t;
    Tick phase = t % params_.refreshInterval;
    if (phase < params_.refreshDuration) {
        ++refreshStalls_;
        return t - phase + params_.refreshDuration;
    }
    return t;
}

Tick
DramBank::reserve(Tick earliest, Tick service)
{
    // Each refresh window that delays this access counts exactly once:
    // skipRefresh() books the window containing the service start (if
    // any), the loop below books each later window the service is
    // split across.  Those sets are disjoint by construction — the
    // loop always resumes *after* the window skipRefresh() cleared —
    // and zero-length windows (refreshDuration == 0) delay nothing,
    // so neither path may count them.
    Tick t = skipRefresh(std::max(earliest, freeAt_));
    Tick remaining = service;
    if (params_.refreshInterval != 0 && params_.refreshDuration != 0) {
        // Consume pin time between refresh windows.
        while (true) {
            Tick next_refresh =
                (t / params_.refreshInterval + 1) * params_.refreshInterval;
            Tick gap = next_refresh - t;
            if (remaining <= gap) {
                t += remaining;
                remaining = 0;
                break;
            }
            remaining -= gap;
            t = next_refresh + params_.refreshDuration;
            ++refreshStalls_;
        }
    } else {
        t += remaining;
    }
    freeAt_ = t;
    return t;
}

Tick
DramBank::reserveAccess(EffAddr ea, std::uint32_t bytes,
                        [[maybe_unused]] bool isWrite)
{
    // Reads and writes currently share the same completion latency
    // (the requester needs the controller's ack either way); the
    // parameter is kept for configurability.
    auto service =
        static_cast<Tick>(std::ceil(bytes / params_.bytesPerTick));
    if (service == 0)
        service = 1;
    ++accesses_;
    if (freeAt_ > curTick())
        ++queueConflicts_;
    // Walk the rows [ea, ea+bytes) touches.  The first row is a hit
    // iff it is still open; every further row a spanning access
    // crosses into forces its own activate, so each counts as a
    // conflict, and the *last* row is what stays open.
    std::uint64_t first = params_.rowBytes ? ea / params_.rowBytes : 0;
    std::uint64_t last =
        params_.rowBytes
            ? (ea + (bytes ? bytes - 1 : 0)) / params_.rowBytes
            : 0;
    std::uint64_t activations = last - first;
    if (rowOpen_ && first == openRow_)
        ++rowHits_;
    else
        ++activations;
    rowConflicts_ += activations;
    openRow_ = last;
    rowOpen_ = true;
    Tick occupancy = service;
    if (params_.rowTiming)
        occupancy += activations * params_.rowMissPenalty;
    Tick service_end = reserve(curTick(), occupancy);
    bytesServiced_ += bytes;
    // Reads return data after the array access; writes are acknowledged
    // to the requester's MFC after the same latency (tag completion on
    // the Cell requires the controller's ack, which is why the paper
    // measures PUT ~= GET for a single SPE).  Under the timing row
    // model the activate cost already occupied the bank, so completion
    // pays only the CAS-side latency.
    return service_end +
           (params_.rowTiming ? params_.rowHitLatency
                              : params_.accessLatency);
}

void
DramBank::registerMetrics(stats::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.counter(prefix + ".bytes").add(bytesServiced_);
    reg.counter(prefix + ".accesses").add(accesses_);
    reg.counter(prefix + ".row_hits").add(rowHits_);
    reg.counter(prefix + ".row_conflicts").add(rowConflicts_);
    reg.counter(prefix + ".queue_conflicts").add(queueConflicts_);
    reg.counter(prefix + ".refresh_stalls").add(refreshStalls_);
}

} // namespace cellbw::mem
