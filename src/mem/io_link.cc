#include "mem/io_link.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cellbw::mem
{

IoLink::IoLink(std::string name, sim::PartitionedEngine &engine,
               unsigned lo, unsigned hi, const IoLinkParams &p)
    : name_(std::move(name)), engine_(engine), end_{lo, hi}, params_(p)
{
    if (params_.bytesPerTick <= 0.0)
        sim::fatal("%s: IO link rate must be positive", name_.c_str());
}

Tick
IoLink::reserveSend(Dir dir, std::uint32_t bytes)
{
    int d = static_cast<int>(dir);
    auto service =
        static_cast<Tick>(std::ceil(bytes / params_.bytesPerTick));
    if (service == 0)
        service = 1;
    Tick start = std::max(engine_.queue(end_[d]).now(), freeAt_[d]);
    freeAt_[d] = start + service;
    bytesSent_[d] += bytes;
    return freeAt_[d] + params_.crossingLatency;
}

} // namespace cellbw::mem
