#include "simcore/log.hh"

#include <cstdio>
#include <mutex>
#include <set>
#include <vector>

namespace ibsim {
namespace log {

namespace {

// The component-tag registry is process-global, and concurrent trials
// (exp::TrialRunner workers) call enabled() on every trace site.  The
// registered Component handles cache their enabled state in an atomic
// flag (one relaxed load on the hot path); the set of enabled tags seeds
// the flag of late-constructed handles.  Both are guarded by a mutex on
// the rare enable/disable/construct paths.
std::atomic<std::uint64_t> emitted{0};

std::mutex&
registryMutex()
{
    static std::mutex m;
    return m;
}

std::set<std::string>&
enabledSet()
{
    static std::set<std::string> s;
    return s;
}

std::vector<Component*>&
components()
{
    static std::vector<Component*> v;
    return v;
}

/** Caller must hold registryMutex(). */
bool
enabledLocked(const std::string& component)
{
    const auto& s = enabledSet();
    return s.count("*") > 0 || s.count(component) > 0;
}

} // namespace

Component::Component(const char* tag) : tag_(tag)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    components().push_back(this);
    flag_.store(enabledLocked(tag), std::memory_order_relaxed);
}

void
enable(const std::string& component)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    enabledSet().insert(component);
    for (Component* c : components()) {
        if (component == "*" || component == c->tag_)
            c->flag_.store(true, std::memory_order_relaxed);
    }
}

void
disableAll()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    enabledSet().clear();
    for (Component* c : components())
        c->flag_.store(false, std::memory_order_relaxed);
}

void
trace(Time when, const Component& component, const std::string& message)
{
    if (!component.enabled())
        return;
    emitted.fetch_add(1, std::memory_order_relaxed);
    // One fprintf per line keeps lines from interleaving across threads.
    char buf[512];
    std::snprintf(buf, sizeof(buf), "[%12s] %-8s %s\n",
                  when.str().c_str(), component.tag(), message.c_str());
    std::fputs(buf, stderr);
}

std::uint64_t
linesEmitted()
{
    return emitted.load(std::memory_order_relaxed);
}

} // namespace log
} // namespace ibsim
