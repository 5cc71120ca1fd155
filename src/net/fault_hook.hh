/**
 * @file
 * The fabric's fault-injection hook point.
 *
 * The fabric consults at most one FaultHook per packet, after the
 * port/link egress gate and before delivery scheduling. The hook maps one
 * packet to zero or more deliveries: dropping (empty result), delaying (extra
 * delay per delivery), duplicating or corrupting (extra/mutated copies),
 * and injecting entirely new packets such as forged NAKs (deliveries whose
 * addressing differs from the input). The canonical implementation is
 * chaos::FaultInjector; the interface lives in net so the fabric stays
 * independent of the chaos subsystem.
 */

#ifndef IBSIM_NET_FAULT_HOOK_HH
#define IBSIM_NET_FAULT_HOOK_HH

#include <vector>

#include "net/packet.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace net {

/**
 * Per-packet fault pipeline consulted by Fabric::send().
 */
class FaultHook
{
  public:
    /** One packet to put on the wire, with optional added latency. */
    struct Delivery
    {
        Packet pkt;
        Time extraDelay;
    };

    virtual ~FaultHook() = default;

    /**
     * Transform @p pkt into deliveries appended to @p out. Leaving @p out
     * empty drops the packet. The first delivery is treated as the
     * original (it keeps the wire id); later entries get fresh wire ids
     * and are counted as injected traffic. Implementations must be
     * deterministic given their own seed: the fabric passes no RNG.
     */
    virtual void processPacket(const Packet& pkt, Time now,
                               std::vector<Delivery>& out) = 0;
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_FAULT_HOOK_HH
