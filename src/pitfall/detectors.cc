#include "pitfall/detectors.hh"

#include <cstdio>
#include <map>

namespace ibsim {
namespace pitfall {

namespace {

/** Minimum silent gap to flag: the spec floor for c0 = 16. */
constexpr Time minDammingGap = Time::ms(100);

} // namespace

std::vector<DammingEvent>
detectDamming(const capture::PacketCapture& capture)
{
    // Track, per requester QP, the time of the last packet in either
    // direction; flag request retransmissions that end a long silence.
    std::vector<DammingEvent> events;
    std::map<std::uint32_t, Time> last_activity;

    auto touch = [&](std::uint32_t qpn, Time when) {
        last_activity[qpn] = when;
    };

    for (const auto& entry : capture.entries()) {
        const auto& p = entry.packet;
        const bool is_request = p.op == net::Opcode::ReadRequest ||
                                p.op == net::Opcode::WriteRequest ||
                                p.op == net::Opcode::Send;

        // Activity is attributed to the requester QPN: the source for
        // requests, the destination for responses/acks/naks.
        const std::uint32_t requester_qpn =
            is_request ? p.srcQpn : p.dstQpn;

        auto it = last_activity.find(requester_qpn);
        if (it != last_activity.end() && is_request && p.retransmission) {
            const Time gap = entry.when - it->second;
            if (gap >= minDammingGap) {
                DammingEvent e;
                e.qpn = requester_qpn;
                e.gapStart = it->second;
                e.gap = gap;
                e.stuckPsn = p.psn;
                events.push_back(e);
            }
        }
        touch(requester_qpn, entry.when);
    }
    return events;
}

std::vector<FloodEvent>
detectFlood(const capture::PacketCapture& capture,
            FloodDetectorConfig config)
{
    struct Track
    {
        std::uint64_t rexmits = 0;
        Time first;
        Time last;
    };
    std::map<std::pair<std::uint32_t, std::uint32_t>, Track> tracks;

    for (const auto& entry : capture.entries()) {
        const auto& p = entry.packet;
        if (p.op != net::Opcode::ReadRequest || !p.retransmission)
            continue;
        auto& t = tracks[{p.srcQpn, p.psn}];
        if (t.rexmits == 0)
            t.first = entry.when;
        ++t.rexmits;
        t.last = entry.when;
    }

    std::vector<FloodEvent> events;
    for (const auto& [key, t] : tracks) {
        if (t.rexmits < config.minRetransmissions)
            continue;
        FloodEvent e;
        e.qpn = key.first;
        e.psn = key.second;
        e.retransmissions = t.rexmits;
        e.firstSeen = t.first;
        e.lastSeen = t.last;
        events.push_back(e);
    }
    return events;
}

std::string
formatReport(const std::vector<DammingEvent>& events)
{
    std::string out;
    char buf[160];
    for (const auto& e : events) {
        std::snprintf(buf, sizeof(buf),
                      "packet damming: qpn=%u psn=%u dammed for %s "
                      "(from %s)\n",
                      e.qpn, e.stuckPsn, e.gap.str().c_str(),
                      e.gapStart.str().c_str());
        out += buf;
    }
    if (events.empty())
        out = "no damming incidents detected\n";
    return out;
}

std::string
formatReport(const std::vector<FloodEvent>& events)
{
    std::string out;
    char buf[160];
    for (const auto& e : events) {
        std::snprintf(buf, sizeof(buf),
                      "packet flood: qpn=%u psn=%u retransmitted %llu "
                      "times over %s\n",
                      e.qpn, e.psn,
                      static_cast<unsigned long long>(e.retransmissions),
                      (e.lastSeen - e.firstSeen).str().c_str());
        out += buf;
    }
    if (events.empty())
        out = "no flood incidents detected\n";
    return out;
}

} // namespace pitfall
} // namespace ibsim
