/**
 * @file
 * Lightweight component-tagged trace logging.
 *
 * Logging is off by default and enabled per component (e.g. "rc", "odp") or
 * globally with "*". Every line carries the virtual timestamp supplied by
 * the caller, which makes manual trace reading line up with packet captures.
 *
 * Hot paths must not pay for disabled tracing. A log::Component is a
 * registered handle whose enabled() is a single relaxed atomic load, and
 * the IBSIM_TRACE macro evaluates its message expression *only* when the
 * component is traced — so per-packet call sites build no strings and make
 * no allocations while tracing is off:
 *
 *     namespace { ibsim::log::Component traceFabric("fabric"); }
 *     ...
 *     IBSIM_TRACE(traceFabric, events_.now(), pkt.str() + " dropped");
 *
 * Components are the only trace API; enable()/disableAll() toggle them by
 * tag.
 */

#ifndef IBSIM_SIMCORE_LOG_HH
#define IBSIM_SIMCORE_LOG_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "simcore/time.hh"

namespace ibsim {
namespace log {

/**
 * A trace-component handle with an inline enabled() check.
 *
 * Construct with static storage duration (one per component tag per
 * translation unit is fine; handles sharing a tag toggle together). The
 * constructor registers the handle in a process-global list so that
 * enable()/disableAll() can refresh every handle's cached flag; handles
 * are never unregistered, which is why they must outlive all tracing.
 */
class Component
{
  public:
    explicit Component(const char* tag);

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /** One relaxed load; safe to call on every packet. */
    bool enabled() const { return flag_.load(std::memory_order_relaxed); }

    const char* tag() const { return tag_; }

  private:
    friend void enable(const std::string& component);
    friend void disableAll();

    const char* tag_;
    std::atomic<bool> flag_{false};
};

/** Enable tracing for a component tag, or "*" for all. */
void enable(const std::string& component);

/** Disable all tracing. */
void disableAll();

/**
 * Emit one line "[time] component message" to stderr when @p component is
 * traced (rechecks enabled(); no registry lookup).
 */
void trace(Time when, const Component& component,
           const std::string& message);

/**
 * Number of trace lines actually formatted and emitted since process
 * start. The datapath tests assert this stays flat (together with
 * net::Packet::strCalls()) across trace-disabled hot-path runs.
 */
std::uint64_t linesEmitted();

} // namespace log
} // namespace ibsim

/**
 * Lazy trace: @p expr (any expression yielding std::string) is evaluated
 * only when @p component is currently traced. This is the only sanctioned
 * way to trace from a per-packet path.
 */
#define IBSIM_TRACE(component, when, expr)                                \
    do {                                                                  \
        if ((component).enabled())                                        \
            ::ibsim::log::trace((when), (component), (expr));             \
    } while (0)

#endif // IBSIM_SIMCORE_LOG_HH
