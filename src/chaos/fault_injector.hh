/**
 * @file
 * Composable, seed-deterministic fault injection for the fabric.
 *
 * The paper's pitfalls are fault-path behaviours: silent exchange loss
 * (Sec. V), PSN-sequence-error NAK recovery (Fig. 8), blind 0.5 ms
 * retransmit storms (Fig. 1). Mittal et al. (PAPERS.md, "Revisiting
 * Network Support for RDMA") show go-back-N's pathologies also emerge
 * under reordering, duplication and corruption. The FaultInjector lets
 * every one of those fault classes be provoked on demand: it implements
 * net::FaultHook as an ordered pipeline of stages, each with per-QP /
 * per-opcode targeting and its own probability, all drawing from one RNG
 * derived via exp::SeedStream — so any failing schedule replays
 * bit-identically from its seed.
 *
 * Stage catalogue:
 *  - DelayStage        extra per-packet latency (uniform in [min, max])
 *  - ReorderStage      bounded reordering: hold a packet so later ones
 *                      overtake it (delay ≤ maxHold)
 *  - DuplicateStage    append marked copies with a small delay spread
 *  - CorruptStage      bit-flip header fields or payload; corrupted
 *                      packets fail the receiver's ICRC check and are
 *                      dropped at ingress unless configured to evade it
 *  - LinkFlapStage     periodic drop windows (a flapping link)
 *  - DropStage         targeted Bernoulli drop (uniform packet loss)
 *  - MatchOnceDropStage  drop the first N packets matching a predicate
 *                      (lose one specific packet, no RNG draw)
 *  - ForgedNakStage    inject a NAK toward the requester in response to
 *                      a request packet (PSN-sequence-error or RNR)
 */

#ifndef IBSIM_CHAOS_FAULT_INJECTOR_HH
#define IBSIM_CHAOS_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/fault_hook.hh"
#include "net/packet.hh"
#include "simcore/rng.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace chaos {

/**
 * Targeting filter: a stage applies only to packets matching every set
 * field. Default-constructed matches everything.
 */
struct PacketFilter
{
    std::optional<std::uint16_t> srcLid;
    std::optional<std::uint16_t> dstLid;
    std::optional<std::uint32_t> srcQpn;
    std::optional<std::uint32_t> dstQpn;
    std::optional<net::Opcode> opcode;

    /** Restrict to request opcodes (READ/WRITE/SEND/ATOMIC). */
    bool requestsOnly = false;

    /** Restrict to response/ack opcodes (the complement set). */
    bool responsesOnly = false;

    bool matches(const net::Packet& pkt) const;
};

/** True for READ/WRITE/SEND/ATOMIC request opcodes. */
bool isRequestOpcode(net::Opcode op);

/** Per-stage-class injection counters. */
struct InjectorStats
{
    std::uint64_t packetsSeen = 0;
    std::uint64_t delayed = 0;
    std::uint64_t reordered = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t flapDropped = 0;
    std::uint64_t naksForged = 0;
};

/**
 * One stage of the pipeline. Stages transform the delivery list in
 * place: mutate packets, add deliveries, or clear the list to drop.
 */
class FaultStage
{
  public:
    virtual ~FaultStage() = default;

    virtual const char* name() const = 0;

    /**
     * Apply this stage. @p deliveries holds the packet(s) produced by
     * earlier stages (initially exactly the input packet); an empty list
     * after any stage drops the packet and short-circuits the pipeline.
     */
    virtual void apply(std::vector<net::FaultHook::Delivery>& deliveries,
                       Time now, Rng& rng, InjectorStats& stats) = 0;
};

/** Extra latency with probability @p rate, uniform in [min, max]. */
class DelayStage : public FaultStage
{
  public:
    DelayStage(PacketFilter filter, double rate, Time min_delay,
               Time max_delay)
        : filter_(filter), rate_(rate), min_(min_delay), max_(max_delay)
    {}

    const char* name() const override { return "delay"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
    Time min_;
    Time max_;
};

/**
 * Bounded reordering: with probability @p rate hold a packet for up to
 * @p maxHold so packets sent after it arrive first. The bound keeps the
 * reordering window finite (go-back-N recovers within one window).
 */
class ReorderStage : public FaultStage
{
  public:
    ReorderStage(PacketFilter filter, double rate, Time max_hold)
        : filter_(filter), rate_(rate), maxHold_(max_hold)
    {}

    const char* name() const override { return "reorder"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
    Time maxHold_;
};

/** Duplicate matching packets (copies marked Packet::chaosDuplicated). */
class DuplicateStage : public FaultStage
{
  public:
    DuplicateStage(PacketFilter filter, double rate,
                   Time max_copy_delay = Time::us(50))
        : filter_(filter), rate_(rate), maxCopyDelay_(max_copy_delay)
    {}

    const char* name() const override { return "duplicate"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
    Time maxCopyDelay_;
};

/**
 * Bit-flip corruption of header fields and payload bytes. Corrupted
 * packets carry Packet::chaosCorrupted and are dropped by the receiving
 * RNIC's ICRC model; with probability @p evadeCrc the chaosCrcEvading
 * bit is also set and the mangled packet reaches the protocol engines,
 * exercising their malformed-input hardening.
 */
class CorruptStage : public FaultStage
{
  public:
    CorruptStage(PacketFilter filter, double rate, double evade_crc = 0.0)
        : filter_(filter), rate_(rate), evadeCrc_(evade_crc)
    {}

    const char* name() const override { return "corrupt"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
    double evadeCrc_;
};

/**
 * Link flap: matching packets are dropped while the link is in the
 * "down" part of its cycle. Fully deterministic in virtual time:
 * down while ((now - phase) mod period) < downFor.
 */
class LinkFlapStage : public FaultStage
{
  public:
    LinkFlapStage(PacketFilter filter, Time period, Time down_for,
                  Time phase = Time())
        : filter_(filter), period_(period), downFor_(down_for),
          phase_(phase)
    {}

    const char* name() const override { return "link-flap"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

    /** Whether the link is down at @p now (exposed for tests). */
    bool down(Time now) const;

  private:
    PacketFilter filter_;
    Time period_;
    Time downFor_;
    Time phase_;
};

/** Targeted Bernoulli drop. */
class DropStage : public FaultStage
{
  public:
    DropStage(PacketFilter filter, double rate)
        : filter_(filter), rate_(rate)
    {}

    const char* name() const override { return "drop"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
};

/**
 * Drop the first @p count packets matching a predicate, then let
 * everything through: loses one specific packet deterministically (no
 * RNG draw, so the rest of the pipeline's schedule is unaffected).
 */
class MatchOnceDropStage : public FaultStage
{
  public:
    using Predicate = std::function<bool(const net::Packet&)>;

    explicit MatchOnceDropStage(Predicate pred, std::size_t count = 1)
        : pred_(std::move(pred)), remaining_(count)
    {}

    const char* name() const override { return "match-once-drop"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

    /** Matching packets still to be dropped. */
    std::size_t remaining() const { return remaining_; }

  private:
    Predicate pred_;
    std::size_t remaining_;
};

/**
 * Forge a NAK back at the requester in response to a matching request
 * packet. A PSN-sequence-error NAK provokes an immediate go-back-N
 * replay (Fig. 8's recovery path, without a real loss); an RNR NAK
 * provokes the RNR wait machinery. The forged packet carries
 * Packet::chaosForged so the oracle knows it is injected noise.
 *
 * With @p max_rewind > 0 the forged PSN lands up to that many slots
 * *below* the triggering request — inside a range the requester may
 * already have retired via a coalesced ACK. That is the ACK-coalescing
 * edge case where go-back-N implementations double-retire WRs: the
 * requester must clamp the rewind at its window head and never complete
 * an already-completed WQE again (checked by invariants C1/W5).
 */
class ForgedNakStage : public FaultStage
{
  public:
    ForgedNakStage(PacketFilter filter, double rate,
                   net::Opcode nak_opcode = net::Opcode::Nak,
                   Time rnr_delay = Time::ms(1.28),
                   std::uint32_t max_rewind = 0)
        : filter_(filter), rate_(rate), nakOpcode_(nak_opcode),
          rnrDelay_(rnr_delay), maxRewind_(max_rewind)
    {}

    const char* name() const override { return "forged-nak"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    PacketFilter filter_;
    double rate_;
    net::Opcode nakOpcode_;  ///< Opcode::Nak (seq error) or Opcode::RnrNak
    Time rnrDelay_;
    std::uint32_t maxRewind_;  ///< 0: NAK at the request's own PSN
};

/**
 * The composable fault pipeline the fabric consults per packet.
 */
class FaultInjector : public net::FaultHook
{
  public:
    /** @p seed feeds an exp::SeedStream-derived private RNG. */
    explicit FaultInjector(std::uint64_t seed);

    /** Append a stage (applied in insertion order). */
    FaultInjector& addStage(std::unique_ptr<FaultStage> stage);

    std::size_t stageCount() const { return stages_.size(); }

    void processPacket(const net::Packet& pkt, Time now,
                       std::vector<net::FaultHook::Delivery>& out) override;

    const InjectorStats& stats() const { return stats_; }

    Rng& rng() { return rng_; }

  private:
    Rng rng_;
    std::vector<std::unique_ptr<FaultStage>> stages_;
    InjectorStats stats_;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CHAOS_FAULT_INJECTOR_HH
