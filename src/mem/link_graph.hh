/**
 * @file
 * The cluster's inter-chip link fabric.
 *
 * Every chip pair that eib::ClusterShape names gets one IoLink: the
 * on-blade IOIF/BIF links first (the dual-Cell blade's 7 GB/s link is
 * edge 0, still named `<prefix>.ioif`), then the inter-blade links
 * between blade gateways.  Routing is deterministic: a chip that is not
 * its blade's gateway first forwards to its gateway, gateways forward
 * directly to the destination blade's gateway, so any path is at most
 * three hops.
 *
 * Every link runs on the simulation's one event queue.  Data transfers
 * serialize on every link of the path: each hop's completion re-enters
 * sendData from the intermediate chip, so a lane is reserved at the
 * tick the line reaches it.  The DMA router's continuation is {router,
 * flight}; each hop carries it by value inside a plain event callback,
 * so a crossing line allocates nothing on any hop.  Commands and acks
 * are latency-only: the router schedules them pathLatency() ahead.
 */

#ifndef CELLBW_MEM_LINK_GRAPH_HH
#define CELLBW_MEM_LINK_GRAPH_HH

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eib/topology.hh"
#include "mem/io_link.hh"

namespace cellbw::stats
{
class MetricsRegistry;
}

namespace cellbw::mem
{

class LinkGraph
{
  public:
    struct Edge
    {
        bool interBlade;
        std::string suffix;            // metric name: ioif, blade0_1, ...
        std::unique_ptr<IoLink> link;
    };

    /** One step of a route: cross @p link on @p lane, arriving at
     * chip @p next. */
    struct Hop
    {
        IoLink *link;
        IoLink::Dir lane;
        unsigned next;
    };

    LinkGraph(const std::string &prefix, sim::EventQueue &eq,
              eib::ClusterShape shape, const IoLinkParams &ioif,
              const IoLinkParams &bladeLink);

    const eib::ClusterShape &shape() const { return shape_; }
    std::size_t numLinks() const { return edges_.size(); }
    const Edge &edge(std::size_t i) const { return edges_[i]; }
    IoLink &link(std::size_t i) { return *edges_[i].link; }

    /** Direct link between @p a and @p b, or nullptr. */
    IoLink *
    linkBetween(unsigned a, unsigned b)
    {
        int i = idx_[a * shape_.chips + b];
        return i < 0 ? nullptr : edges_[static_cast<unsigned>(i)].link.get();
    }

    /** First routing step from @p from towards @p to (from != to). */
    Hop firstHop(unsigned from, unsigned to) const;

    /** Sum of crossing latencies along the route (0 when from == to). */
    Tick pathLatency(unsigned from, unsigned to) const;

    /**
     * Move @p bytes from chip @p from to chip @p to, serializing on
     * every link of the route; @p onDone fires when the tail arrives
     * at @p to.  Each hop carries @p onDone by value, so a
     * continuation of two words stays inside the event callback's
     * inline window on every hop.
     */
    template <typename F>
    void
    sendData(unsigned from, unsigned to, std::uint32_t bytes, F &&onDone)
    {
        const Hop h = firstHop(from, to);
        if (h.next == to) {
            h.link->send(h.lane, bytes, std::forward<F>(onDone));
            return;
        }
        h.link->send(h.lane, bytes,
                     [this, next = h.next, to, bytes,
                      onDone = std::decay_t<F>(
                          std::forward<F>(onDone))]() mutable {
                         sendData(next, to, bytes, std::move(onDone));
                     });
    }

    /** Book every link's per-lane byte counters under
     * `<prefix>.<suffix>.bytes_{outbound,inbound}`. */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    eib::ClusterShape shape_;
    std::vector<Edge> edges_;
    std::vector<int> idx_;             // chips x chips -> edge or -1
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_LINK_GRAPH_HH
