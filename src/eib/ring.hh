/**
 * @file
 * One unidirectional EIB data ring.
 *
 * Each of the four rings moves 16 bytes per bus cycle.  A transfer
 * occupies every ring segment along its path for the duration of the
 * packet, so two transfers can share a ring concurrently if and only if
 * their paths are segment-disjoint — the property behind the paper's
 * couples vs. cycle results.
 */

#ifndef CELLBW_EIB_RING_HH
#define CELLBW_EIB_RING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "eib/topology.hh"
#include "util/types.hh"

namespace cellbw::stats
{
class MetricsRegistry;
}

namespace cellbw::eib
{

enum class RingDir { Clockwise, CounterClockwise };

class Ring
{
  public:
    Ring(unsigned index, RingDir dir);

    RingDir direction() const { return dir_; }

    /** Hop count from src to dst along this ring's direction. */
    unsigned hops(RampPos src, RampPos dst) const;

    /**
     * Earliest tick >= @p from at which a packet injected at src can
     * stream along the src->dst path.  The packet's wavefront reaches
     * the k-th segment of its path @p hopLat * k ticks after injection,
     * so each segment constrains the start staggered by its distance.
     */
    Tick earliestStart(RampPos src, RampPos dst, Tick from,
                       Tick hopLat) const;

    /**
     * Reserve the path for a packet injected at @p start occupying each
     * segment for @p dur ticks, staggered by @p hopLat per hop.  Two
     * packets of the same flow can follow back-to-back at full rate;
     * crossing flows contend for the shared segments.
     */
    void reserve(RampPos src, RampPos dst, Tick start, Tick dur,
                 Tick hopLat);

    std::uint64_t grants() const { return grants_; }
    Tick busyTicks() const { return busyTicks_; }

    /**
     * Accumulate this ring's utilization counters into @p reg under
     * `<prefix>.grants` / `<prefix>.busy_ticks` (grant count and the
     * summed segment-occupancy duration behind it).
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    /**
     * Visit (segment index, hop order) pairs along the path, in the
     * order the packet wavefront traverses them.  Segment i is the arc
     * between positions i and i+1 (mod 12); a CW transfer src->dst uses
     * segments src .. dst-1 in that order, a CCW one uses segments
     * src-1 down to dst.
     */
    template <typename Fn>
    void
    forEachSegment(RampPos src, RampPos dst, Fn &&fn) const
    {
        unsigned n = hops(src, dst);
        for (unsigned k = 0; k < n; ++k) {
            unsigned seg = (dir_ == RingDir::Clockwise)
                               ? (src + k) % numRamps
                               : (src + numRamps - 1 - k) % numRamps;
            fn(seg, k);
        }
    }

    unsigned index_;
    RingDir dir_;
    std::vector<Tick> segFreeAt_;
    std::uint64_t grants_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace cellbw::eib

#endif // CELLBW_EIB_RING_HH
