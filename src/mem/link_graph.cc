#include "mem/link_graph.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/strings.hh"

namespace cellbw::mem
{

LinkGraph::LinkGraph(const std::string &prefix,
                     sim::PartitionedEngine &engine,
                     eib::ClusterShape shape, const IoLinkParams &ioif,
                     const IoLinkParams &bladeLink)
    : shape_(shape), partitions_(engine.partitions())
{
    if (!shape_.valid()) {
        sim::fatal("invalid cluster shape: %u chips on %u blades",
                   shape_.chips, shape_.blades);
    }
    idx_.assign(static_cast<std::size_t>(shape_.chips) * shape_.chips,
                -1);
    shape_.forEachLink([&](unsigned lo, unsigned hi, bool interBlade) {
        std::string suffix;
        if (!interBlade) {
            unsigned blade = shape_.bladeOf(lo);
            suffix = blade == 0 ? std::string("ioif")
                                : util::format("ioif%u", blade);
        } else {
            suffix = util::format("blade%u_%u", shape_.bladeOf(lo),
                                  shape_.bladeOf(hi));
        }
        idx_[lo * shape_.chips + hi] =
            idx_[hi * shape_.chips + lo] =
                static_cast<int>(edges_.size());
        edges_.push_back(
            {interBlade, suffix,
             std::make_unique<IoLink>(prefix + "." + suffix, engine,
                                      partitionOf(lo), partitionOf(hi),
                                      interBlade ? bladeLink : ioif)});
    });
}

LinkGraph::Hop
LinkGraph::firstHop(unsigned from, unsigned to) const
{
    if (from == to || from >= shape_.chips || to >= shape_.chips)
        sim::panic("bad route %u -> %u", from, to);
    unsigned waypoint = to;
    if (idx_[from * shape_.chips + to] < 0) {
        // No direct link: a non-gateway chip forwards to its own
        // blade's gateway; a gateway forwards to the destination
        // blade's gateway.
        unsigned ownGateway = shape_.gatewayOf(shape_.bladeOf(from));
        waypoint = from != ownGateway
                       ? ownGateway
                       : shape_.gatewayOf(shape_.bladeOf(to));
    }
    int i = idx_[from * shape_.chips + waypoint];
    if (i < 0)
        sim::panic("no link on route %u -> %u", from, to);
    return {edges_[static_cast<unsigned>(i)].link.get(),
            from < waypoint ? IoLink::Dir::Outbound
                            : IoLink::Dir::Inbound,
            waypoint};
}

Tick
LinkGraph::pathLatency(unsigned from, unsigned to) const
{
    Tick total = 0;
    while (from != to) {
        Hop h = firstHop(from, to);
        total += h.link->crossingLatency();
        from = h.next;
    }
    return total;
}

Tick
LinkGraph::minCrossingLatency() const
{
    Tick min = std::numeric_limits<Tick>::max();
    for (const auto &e : edges_)
        min = std::min(min, e.link->crossingLatency());
    return min;
}

void
LinkGraph::registerMetrics(stats::MetricsRegistry &reg,
                           const std::string &prefix) const
{
    for (const auto &e : edges_) {
        reg.counter(prefix + "." + e.suffix + ".bytes_outbound")
            .add(e.link->bytesSent(IoLink::Dir::Outbound));
        reg.counter(prefix + "." + e.suffix + ".bytes_inbound")
            .add(e.link->bytesSent(IoLink::Dir::Inbound));
    }
}

} // namespace cellbw::mem
