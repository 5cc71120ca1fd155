/**
 * @file
 * A simulated host: memory, ODP driver, RNIC and verbs resources.
 *
 * Node is the per-machine composition root. It owns the address space, the
 * ODP driver and status board, the RNIC, and every CQ/MR the application
 * creates, tying their lifetimes together.
 */

#ifndef IBSIM_CLUSTER_NODE_HH
#define IBSIM_CLUSTER_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address_space.hh"
#include "net/fabric.hh"
#include "odp/odp_driver.hh"
#include "odp/page_status_board.hh"
#include "rnic/device_profile.hh"
#include "rnic/rnic.hh"
#include "verbs/completion_queue.hh"
#include "verbs/memory_region.hh"
#include "verbs/queue_pair.hh"

namespace ibsim {

/**
 * One simulated machine attached to the fabric.
 */
class Node
{
  public:
    Node(EventQueue& events, Rng& rng, net::Fabric& fabric,
         std::uint16_t lid, const rnic::DeviceProfile& profile);

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    std::uint16_t lid() const { return rnic_->lid(); }

    /** Reserve (but do not touch) a buffer; returns its base address. */
    std::uint64_t alloc(std::uint64_t size) { return memory_.alloc(size); }

    /** First-touch pages from the host side. */
    void touch(std::uint64_t addr, std::uint64_t len);

    /**
     * Register a memory region (ibv_reg_mr). With AccessFlags::odp() the
     * region faults pages in on demand; with pinned() it is pinned and
     * fully mapped immediately.
     */
    verbs::MemoryRegion& registerMemory(std::uint64_t addr,
                                        std::uint64_t length,
                                        verbs::AccessFlags access);

    /**
     * Register the entire address space on demand (Implicit ODP, paper
     * Sec. III): every address becomes RDMA-able without further
     * registration, faulting pages in on first network access.
     */
    verbs::MemoryRegion& registerImplicitOdp();

    /** Deregister (the region object stays alive until node teardown). */
    void deregisterMemory(verbs::MemoryRegion& mr);

    /** Create a completion queue. */
    verbs::CompletionQueue& createCq();

    /**
     * Completions delivered on this node's CQs since creation, summed
     * (Cluster::runUntilCompletions() waits on the cluster-wide sum).
     */
    std::uint64_t totalCompletions() const;

    /** Create an RC QP bound to @p cq. */
    verbs::QueuePair createQp(verbs::CompletionQueue& cq,
                              verbs::QpConfig config = {});

    /** ibv_advise_mr-style prefetch of an ODP range. */
    void prefetch(verbs::MemoryRegion& mr, std::uint64_t addr,
                  std::uint64_t len);

    /** Kernel-initiated invalidation of the page holding @p addr. */
    void invalidate(verbs::MemoryRegion& mr, std::uint64_t addr);

    mem::AddressSpace& memory() { return memory_; }
    odp::OdpDriver& driver() { return driver_; }
    odp::PageStatusBoard& board() { return board_; }
    rnic::Rnic& rnic() { return *rnic_; }

  private:
    mem::AddressSpace memory_;
    odp::OdpDriver driver_;
    odp::PageStatusBoard board_;
    std::unique_ptr<rnic::Rnic> rnic_;
    std::vector<std::unique_ptr<verbs::MemoryRegion>> mrs_;
    std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs_;
    std::uint32_t nextKey_;
};

} // namespace ibsim

#endif // IBSIM_CLUSTER_NODE_HH
