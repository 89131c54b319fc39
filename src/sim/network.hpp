#pragma once
/// \file network.hpp
/// Point-to-point link between verifier and prover with latency, jitter,
/// serialization delay and a deterministic fault model — loss, duplication,
/// reordering, payload corruption and timed partition windows — enough to
/// model the paper's networking delays (Fig. 1 deferral), SeED's
/// dropped-response false positives, and the lossy-fleet scenarios the
/// reliable session layer (attest::ReliableSession) is built to survive.

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/bytes.hpp"
#include "src/support/rng.hpp"

namespace rasc::sim {

/// Total outage interval [start, end): every message *sent* inside the
/// window is dropped (messages already in flight still arrive — the model
/// is a sender-side blackout, e.g. a gateway reboot).
struct PartitionWindow {
  Time start = 0;
  Time end = 0;
};

struct LinkConfig {
  /// Label for observability (journal actor, e.g. "vrf->prv").  Links with
  /// distinct names stay distinguishable in one journal.
  std::string name = "net";
  Duration base_latency = 2 * kMillisecond;
  Duration jitter = 500 * kMicrosecond;  ///< uniform extra delay in [0, jitter]
  double drop_probability = 0.0;
  /// Probability that a delivered message arrives twice; the duplicate
  /// takes an independently drawn second transit after the original.
  double duplicate_probability = 0.0;
  /// Probability that one byte of the payload is flipped in transit (the
  /// flip is drawn from the link RNG, so runs are reproducible).
  double corrupt_probability = 0.0;
  /// Probability that a message is held back by `reorder_delay`, letting
  /// later messages overtake it.
  double reorder_probability = 0.0;
  Duration reorder_delay = 10 * kMillisecond;
  double bytes_per_second = 1e6;  ///< serialization rate (1 MB/s default)
  std::uint64_t seed = 0x11ce;
  /// Timed blackout windows (see PartitionWindow); checked at send time.
  std::vector<PartitionWindow> partitions;
};

/// Lifetime fault counters of one link, or summed over several.  After
/// the queue drains: delivered == sent - dropped + duplicated.
struct LinkCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
  std::uint64_t partition_dropped = 0;  ///< subset of dropped

  LinkCounters& operator+=(const LinkCounters& other) noexcept;
};

class Link {
 public:
  using Handler = std::function<void(support::Bytes)>;

  Link(Simulator& sim, const LinkConfig& config = {}) : sim_(sim) { reseat(config); }
  /// Cancels every delivery still in flight, so no event fires into a
  /// destroyed link.  The Simulator must still be alive.
  ~Link();
  // In-flight delivery events point at this object.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Start over as a link freshly built from `config` on the same
  /// simulator: the fault stream re-seeded, message ids from 1 again, zero
  /// counters.  Only while nothing is in flight (std::logic_error
  /// otherwise).  The delivery records and the name keep their storage,
  /// so a warm reseat allocates nothing.
  void reseat(const LinkConfig& config);

  /// Queue a message; the handler fires after the simulated transit time
  /// for every delivered copy (possibly twice under duplication, possibly
  /// with a flipped byte under corruption) unless the message is dropped.
  /// Each send is assigned a per-link message id (1, 2, ...) that tags
  /// every journal event of its fate, so a flight recording names the
  /// exact message that was dropped/duplicated/corrupted.
  void send(support::Bytes payload, Handler on_delivery);

  const LinkCounters& counters() const noexcept { return counters_; }
  std::size_t sent() const noexcept { return counters_.sent; }
  /// Delivered handler invocations; duplicates count once each, so after
  /// the queue drains: delivered() == sent() - dropped() + duplicated().
  std::size_t delivered() const noexcept { return counters_.delivered; }
  std::size_t dropped() const noexcept { return counters_.dropped; }
  std::size_t duplicated() const noexcept { return counters_.duplicated; }
  std::size_t corrupted() const noexcept { return counters_.corrupted; }
  std::size_t reordered() const noexcept { return counters_.reordered; }
  /// Subset of dropped(): losses caused by a partition window.
  std::size_t partition_dropped() const noexcept { return counters_.partition_dropped; }

  const LinkConfig& config() const noexcept { return config_; }

  /// Deliveries scheduled but not yet fired.  A link is quiescent (safe to
  /// hibernate) only when this is zero; tearing it down earlier would
  /// silently cancel in-flight messages and change delivery outcomes.
  std::size_t in_flight() const noexcept { return in_flight_; }

  /// Serializable fault-model state: the RNG position and the message-id
  /// counter.  Restoring a snapshot into a freshly seated Link (same
  /// config) resumes the fault stream exactly, so the fates of all future
  /// messages are unchanged.  counters() restart at zero.
  struct State {
    support::Xoshiro256::State rng{};
    std::uint64_t next_msg_id = 0;
  };

  State save_state() const noexcept { return {rng_.state(), next_msg_id_}; }
  void restore_state(const State& s) noexcept;

 private:
  /// base latency + jitter draw + rounded-to-nearest serialization delay
  /// (>= 1 ns for any nonzero payload so distinct sizes never alias to a
  /// free transit).
  Duration transit_time(std::size_t bytes);
  bool in_partition(Time t) const noexcept;
  void deliver_after(Duration transit, support::Bytes payload, Handler handler,
                     std::uint64_t msg_id);
  void deliver(std::uint32_t index);
  void journal(obs::JournalEventKind kind, std::uint64_t msg_id, std::uint64_t b);

  static constexpr std::uint32_t kNoDelivery = UINT32_MAX;
  /// One in-flight copy of a message.  Records are pooled per link, so a
  /// delivery event captures only the link and the record's index.
  struct Delivery {
    support::Bytes payload;
    Handler handler;
    EventHandle event;
    std::uint64_t msg_id = 0;
    std::uint32_t next_free = kNoDelivery;  ///< free-list link while unused
  };

  Simulator& sim_;
  LinkConfig config_;
  support::Xoshiro256 rng_;
  LinkCounters counters_;
  std::uint64_t next_msg_id_ = 0;
  obs::ActorId journal_actor_;
  std::vector<Delivery> deliveries_;
  std::uint32_t free_delivery_ = kNoDelivery;
  std::uint32_t in_flight_ = 0;  ///< records in use
};

}  // namespace rasc::sim
