#include "capture/capture.hh"

namespace ibsim {
namespace capture {

PacketCapture::PacketCapture(net::Fabric& fabric) : fabric_(fabric)
{
    tap_ = fabric_.addTap([this](const net::Packet& pkt, bool dropped) {
        if (!recording_)
            return;
        CaptureEntry entry;
        entry.when = fabric_.islandEvents(fabric_.egressIsland()).now();
        entry.packet = pkt;
        // Drop the payload bytes: captures of flood runs hold hundreds of
        // thousands of packets and the analysis only needs headers.
        entry.packet.payload.clear();
        entry.dropped = dropped;
        entries_.push_back(std::move(entry));
    });
}

PacketCapture::~PacketCapture()
{
    // The tap captures this: later traffic must not reach a dead capture.
    fabric_.removeTap(tap_);
}

std::vector<const CaptureEntry*>
PacketCapture::filter(
    const std::function<bool(const CaptureEntry&)>& pred) const
{
    std::vector<const CaptureEntry*> out;
    for (const auto& e : entries_) {
        if (pred(e))
            out.push_back(&e);
    }
    return out;
}

std::vector<const CaptureEntry*>
PacketCapture::connection(std::uint32_t qpn_a, std::uint32_t qpn_b) const
{
    return filter([qpn_a, qpn_b](const CaptureEntry& e) {
        const auto& p = e.packet;
        return (p.srcQpn == qpn_a && p.dstQpn == qpn_b) ||
               (p.srcQpn == qpn_b && p.dstQpn == qpn_a);
    });
}

} // namespace capture
} // namespace ibsim
