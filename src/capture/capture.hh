/**
 * @file
 * Packet capture — the simulator's ibdump.
 *
 * A PacketCapture taps the fabric and records every packet (including ones
 * the fabric drops), timestamped in virtual time. The paper's entire
 * reverse-engineering methodology rests on reading such captures
 * (Figs. 1, 5, 8) and counting packets (Fig. 9b); the trace formatter and
 * analysis helpers reproduce both uses.
 */

#ifndef IBSIM_CAPTURE_CAPTURE_HH
#define IBSIM_CAPTURE_CAPTURE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/fabric.hh"
#include "net/packet.hh"
#include "simcore/tap_list.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace capture {

/** One captured packet. */
struct CaptureEntry
{
    Time when;
    net::Packet packet;
    bool dropped = false;
};

/**
 * Records fabric traffic.
 */
class PacketCapture
{
  public:
    /** Create a capture and attach it to @p fabric. */
    explicit PacketCapture(net::Fabric& fabric);

    /** Detaches from the fabric, which must still exist. */
    ~PacketCapture();

    PacketCapture(const PacketCapture&) = delete;
    PacketCapture& operator=(const PacketCapture&) = delete;

    /** Pause/resume recording (the tap stays installed). */
    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /** Drop everything recorded so far. */
    void clear() { entries_.clear(); }

    const std::vector<CaptureEntry>& entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }

    /** Entries matching a predicate. */
    std::vector<const CaptureEntry*>
    filter(const std::function<bool(const CaptureEntry&)>& pred) const;

    /** Entries on one QP connection (either direction). */
    std::vector<const CaptureEntry*>
    connection(std::uint32_t qpn_a, std::uint32_t qpn_b) const;

  private:
    net::Fabric& fabric_;
    TapId tap_ = 0;
    std::vector<CaptureEntry> entries_;
    bool recording_ = true;
};

} // namespace capture
} // namespace ibsim

#endif // IBSIM_CAPTURE_CAPTURE_HH
