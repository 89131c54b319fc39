#include "src/sim/network.hpp"

#include <cmath>
#include <limits>

namespace rasc::sim {

void Link::journal(obs::JournalEventKind kind, std::uint64_t msg_id, std::uint64_t b) {
  if (auto* j = sim_.journal()) {
    j->append(sim_.now(), journal_actor_.get(*j, config_.name), 0, 0, kind, msg_id, b);
  }
}

LinkCounters& LinkCounters::operator+=(const LinkCounters& other) noexcept {
  sent += other.sent;
  delivered += other.delivered;
  dropped += other.dropped;
  duplicated += other.duplicated;
  corrupted += other.corrupted;
  reordered += other.reordered;
  partition_dropped += other.partition_dropped;
  return *this;
}

void Link::restore_state(const State& s) noexcept {
  rng_.set_state(s.rng);
  next_msg_id_ = s.next_msg_id;
}

bool Link::in_partition(Time t) const noexcept {
  for (const PartitionWindow& window : config_.partitions) {
    if (t >= window.start && t < window.end) return true;
  }
  return false;
}

Duration Link::transit_time(std::size_t bytes) {
  Duration transit = config_.base_latency;
  if (config_.jitter > 0) {
    // below(jitter + 1) would wrap to the forbidden below(0) at the type
    // maximum; saturate the bound instead (the draw is then in [0, max)).
    const Duration bound = config_.jitter < std::numeric_limits<Duration>::max()
                               ? config_.jitter + 1
                               : config_.jitter;
    transit += rng_.below(bound);
  }
  if (config_.bytes_per_second > 0 && bytes > 0) {
    const double exact = static_cast<double>(bytes) / config_.bytes_per_second *
                         static_cast<double>(kSecond);
    auto serialization = static_cast<Duration>(std::llround(exact));
    // Round to nearest with a 1 ns floor: truncation made small payloads
    // on fast links free and aliased distinct sizes to equal transits.
    if (serialization == 0) serialization = 1;
    transit += serialization;
  }
  return transit;
}

Link::~Link() {
  // Records of delivered copies hold stale handles, which cancel nothing.
  for (Delivery& d : deliveries_) d.event.cancel();
}

void Link::deliver_after(Duration transit, support::Bytes payload, Handler handler,
                         std::uint64_t msg_id) {
  std::uint32_t index = free_delivery_;
  if (index != kNoDelivery) {
    free_delivery_ = deliveries_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(deliveries_.size());
    deliveries_.emplace_back();
  }
  Delivery& d = deliveries_[index];
  d.payload = std::move(payload);
  d.handler = std::move(handler);
  d.msg_id = msg_id;
  d.event = sim_.schedule_in(transit, [this, index] { deliver(index); });
  ++in_flight_;
}

void Link::deliver(std::uint32_t index) {
  // Empty the record and return it to the pool before the handler runs:
  // the handler may send, which can grow (and move) the pool.
  Delivery& d = deliveries_[index];
  support::Bytes payload = std::move(d.payload);
  const Handler handler = std::move(d.handler);
  const std::uint64_t msg_id = d.msg_id;
  d.next_free = free_delivery_;
  free_delivery_ = index;
  --in_flight_;
  ++counters_.delivered;
  journal(obs::JournalEventKind::kLinkDeliver, msg_id, payload.size());
  handler(std::move(payload));
}

void Link::send(support::Bytes payload, Handler on_delivery) {
  ++counters_.sent;
  const std::uint64_t msg_id = ++next_msg_id_;
  const Time sent_at = sim_.now();
  journal(obs::JournalEventKind::kLinkSend, msg_id, payload.size());

  if (in_partition(sent_at)) {
    ++counters_.dropped;
    ++counters_.partition_dropped;
    journal(obs::JournalEventKind::kLinkPartitionDrop, msg_id, payload.size());
    return;
  }
  if (rng_.chance(config_.drop_probability)) {
    ++counters_.dropped;
    journal(obs::JournalEventKind::kLinkDrop, msg_id, payload.size());
    return;
  }

  if (!payload.empty() && rng_.chance(config_.corrupt_probability)) {
    // Flip at least one bit of one byte; position and flip pattern come
    // from the link RNG so corruption is reproducible from the seed.
    const std::size_t at = rng_.below(payload.size());
    payload[at] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    ++counters_.corrupted;
    journal(obs::JournalEventKind::kLinkCorrupt, msg_id, at);
  }

  Duration transit = transit_time(payload.size());
  if (rng_.chance(config_.reorder_probability)) {
    transit += config_.reorder_delay;
    ++counters_.reordered;
    journal(obs::JournalEventKind::kLinkReorder, msg_id, config_.reorder_delay);
  }

  const bool duplicate = rng_.chance(config_.duplicate_probability);
  if (duplicate) {
    const Duration copy_transit = transit + transit_time(payload.size());
    ++counters_.duplicated;
    journal(obs::JournalEventKind::kLinkDuplicate, msg_id, copy_transit);
    // The copy rides behind the original with its own second transit.
    deliver_after(copy_transit, payload, on_delivery, msg_id);
  }
  deliver_after(transit, std::move(payload), std::move(on_delivery), msg_id);
}

}  // namespace rasc::sim
