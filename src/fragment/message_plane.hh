/**
 * @file
 * Delta message plane — the inter-fragment communication fabric.
 *
 * One bounded SpscRing per ordered (src, dst) fragment pair carries
 * batched {vertex, edgeValue} delta messages, the Maiter-style compact
 * update stream: a fragment that commits a changed vertex sends the
 * vertex's *edge-carried* value once per remote fragment, and the
 * receiver fans it out to its mirror slots.  Each ring has exactly one
 * producer (the src fragment's runner) and one consumer (the dst
 * fragment's runner), so the wait-free SPSC protocol applies directly.
 *
 * Termination needs nothing from the plane: FragmentEngine activates a
 * ring's receiver after every push into it, and the block driver turns
 * that activation into a pump of the receiver that starts after the
 * push, so an empty driver scheduler means every ring was drained (see
 * fragment/engine.hh).
 */

#ifndef GRAPHABCD_FRAGMENT_MESSAGE_PLANE_HH
#define GRAPHABCD_FRAGMENT_MESSAGE_PLANE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fragment/topology.hh"
#include "graph/types.hh"
#include "runtime/spsc_ring.hh"
#include "support/logging.hh"

namespace graphabcd {

/**
 * One cross-fragment scatter update: "vertex changed; its edge-carried
 * value is now `value`".  State-carrying (not a difference), so applies
 * are idempotent and ordering within a ring is sufficient.
 */
template <typename Value>
struct DeltaMsg {
    VertexId vertex{};
    Value value{};
};

/** F×F mesh of SPSC delta channels (diagonal unused). */
template <typename Value>
class MessagePlane
{
  public:
    using Msg = DeltaMsg<Value>;

    /** Channel state beyond the ring itself. */
    struct Channel {
        explicit Channel(std::size_t capacity) : ring(capacity) {}

        SpscRing<Msg> ring;
        /**
         * Producer-side stamp of the sender's block-update clock at the
         * last successful flush.  Consumer reads it (relaxed) to gauge
         * mirror staleness; stats only.
         */
        std::atomic<std::uint64_t> flushStamp{0};
    };

    MessagePlane(FragmentId fragments, std::size_t ring_capacity)
        : n(fragments)
    {
        GRAPHABCD_ASSERT(fragments > 0, "message plane needs a fragment");
        channels.resize(static_cast<std::size_t>(n) * n);
        for (FragmentId s = 0; s < n; s++)
            for (FragmentId d = 0; d < n; d++)
                if (s != d)
                    channels[index(s, d)] =
                        std::make_unique<Channel>(ring_capacity);
    }

    /** @return fragment count the plane was built for. */
    FragmentId numFragments() const { return n; }

    /** @return the src→dst channel; src != dst required. */
    Channel &
    channel(FragmentId src, FragmentId dst)
    {
        GRAPHABCD_ASSERT(src != dst, "no self channel");
        return *channels[index(src, dst)];
    }

  private:
    std::size_t
    index(FragmentId src, FragmentId dst) const
    {
        return static_cast<std::size_t>(src) * n + dst;
    }

    FragmentId n;
    std::vector<std::unique_ptr<Channel>> channels;
};

} // namespace graphabcd

#endif // GRAPHABCD_FRAGMENT_MESSAGE_PLANE_HH
