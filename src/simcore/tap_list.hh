/**
 * @file
 * Removable observer lists for the simulator's passive taps.
 *
 * Fabric egress and ingress, the RNIC post paths and completion queues
 * each fan an event out to a list of observers (the chaos invariant
 * monitor, tests). An observer that captures its own address must
 * unregister before it is destroyed, or the next event calls into freed
 * memory: add() returns a handle that remove() takes back. Iteration
 * visits the observers in registration order. remove() must not run
 * from inside a tap.
 */

#ifndef IBSIM_SIMCORE_TAP_LIST_HH
#define IBSIM_SIMCORE_TAP_LIST_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ibsim {

/** Handle of one registered tap. */
using TapId = std::uint64_t;

template <typename Fn>
class TapList
{
  public:
    TapId
    add(Fn tap)
    {
        taps_.push_back(std::move(tap));
        ids_.push_back(nextId_);
        return nextId_++;
    }

    /** Unregister @p id; unknown ids are ignored. */
    void
    remove(TapId id)
    {
        for (std::size_t i = 0; i < ids_.size(); ++i) {
            if (ids_[i] == id) {
                taps_.erase(taps_.begin() + i);
                ids_.erase(ids_.begin() + i);
                return;
            }
        }
    }

    auto begin() const { return taps_.begin(); }
    auto end() const { return taps_.end(); }

  private:
    std::vector<Fn> taps_;
    std::vector<TapId> ids_;  ///< parallel to taps_
    TapId nextId_ = 0;
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_TAP_LIST_HH
