#include "src/attest/prover.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace rasc::attest {

std::string execution_mode_name(ExecutionMode mode) {
  return mode == ExecutionMode::kAtomic ? "atomic" : "interruptible";
}

std::string traversal_order_name(TraversalOrder order) {
  return order == TraversalOrder::kSequential ? "sequential" : "shuffled";
}

AttestationProcess::AttestationProcess(sim::Device& device)
    : sim::Process({}, ProverConfig{}.priority), device_(device) {}

AttestationProcess::AttestationProcess(sim::Device& device, const ProverConfig& config,
                                       LockPolicy* policy)
    : AttestationProcess(device, config, policy,
                         DigestCache::key_fingerprint(device.attestation_key())) {}

AttestationProcess::AttestationProcess(sim::Device& device, const ProverConfig& config,
                                       LockPolicy* policy, std::uint64_t key_fingerprint)
    : AttestationProcess(device) {
  reseat(config, policy, key_fingerprint);
}

void AttestationProcess::reseat(const ProverConfig& config, LockPolicy* policy,
                                std::uint64_t key_fingerprint) {
  if (busy()) throw std::logic_error("AttestationProcess::reseat while busy");
  // "attest/" + execution_mode_name(mode), spelled out so no string is built.
  set_name(config.mode == ExecutionMode::kAtomic ? "attest/atomic"
                                                 : "attest/interruptible");
  set_priority(config.priority);
  config_ = config;
  policy_ = policy;
  key_fp_ = key_fingerprint;
  digest_cache_ = DigestCache{};
  shared_digest_cache_ = nullptr;
  signer_ = nullptr;
  observer_ = nullptr;
  total_measure_time_ = 0;
  if (measurement_) {
    // Between rounds the visit-time buffer rests in the result (start()
    // takes it back): lend it to the re-seat and return it, so no second
    // buffer is grown.
    measurement_->swap_visit_times(result_.visit_times);
    measurement_->reseat(config_.hash, device_.attestation_key(), config_.coverage,
                         config_.mac);
    measurement_->swap_visit_times(result_.visit_times);
  }
  // Releases the memory's generation-observer slot for the next tree.
  tree_.reset();
  planned_nodes_ = 0;
  proof_backlog_flag_.clear();
  proof_backlog_.clear();
  next_index_ = 0;
  requested_at_ = 0;
  done_ = nullptr;
}

sim::Duration AttestationProcess::block_cost() const {
  const std::size_t block_size = device_.memory().block_size();
  const sim::Duration digest_cost =
      config_.mac == MacKind::kCbcMac
          ? device_.model().cbcmac_time(block_size)
          : device_.model().hash_time(config_.hash, block_size);
  return digest_cost + device_.model().measurement_block_overhead();
}

sim::Duration AttestationProcess::finalize_cost() const {
  const std::size_t digest_size = config_.mac == MacKind::kCbcMac
                                      ? crypto::CbcMac::kTagSize
                                      : crypto::hash_digest_size(config_.hash);
  sim::Duration cost;
  if (config_.use_merkle_tree) {
    // Re-hash the invalidated tree paths (each node hash covers a 1-byte
    // domain prefix plus two child digests), then MAC the root — O(dirty
    // * log n) instead of the flat combiner's O(n).
    cost = device_.model().hash_time(config_.hash,
                                     planned_nodes_ * (2 * digest_size + 1));
    cost += config_.mac == MacKind::kCbcMac
                ? device_.model().cbcmac_time(digest_size)
                : device_.model().mac_time(config_.hash, digest_size);
  } else {
    const std::size_t n = config_.coverage.resolve_count(device_.memory());
    cost = config_.mac == MacKind::kCbcMac
               ? device_.model().cbcmac_time(n * digest_size)
               : device_.model().mac_time(config_.hash, n * digest_size);
  }
  if (config_.signature) cost += device_.model().sign_time(*config_.signature);
  return cost;
}

void AttestationProcess::ensure_tree() {
  if (!tree_) {
    tree_ = std::make_unique<mtree::IncrementalTree>(device_.memory(), config_.hash);
  }
}

void AttestationProcess::clear_proof_backlog() noexcept {
  for (std::uint32_t block : proof_backlog_) proof_backlog_flag_[block] = false;
  proof_backlog_.clear();
}

AttestationProcess::ProcessState AttestationProcess::save_process_state() const {
  if (busy()) {
    throw std::logic_error("save_process_state while a measurement is in flight");
  }
  return {proof_backlog_};
}

void AttestationProcess::restore_process_state(const ProcessState& s) {
  if (busy()) {
    throw std::logic_error("restore_process_state while a measurement is in flight");
  }
  clear_proof_backlog();
  // Flat mode never has a backlog; tree mode's finish() sizes the flags
  // when they are missing, so only a backlog to restore needs them now.
  if (s.proof_backlog.empty()) return;
  proof_backlog_flag_.assign(device_.memory().block_count(), false);
  for (std::uint32_t block : s.proof_backlog) {
    if (block < proof_backlog_flag_.size() && !proof_backlog_flag_[block]) {
      proof_backlog_flag_[block] = true;
      proof_backlog_.push_back(block);
    }
  }
}

void AttestationProcess::prime_tree() {
  if (!config_.use_merkle_tree) {
    throw std::logic_error("prime_tree without use_merkle_tree");
  }
  if (busy()) throw std::logic_error("prime_tree while a measurement is in flight");
  const sim::DeviceMemory& memory = device_.memory();
  std::vector<support::ByteView> blocks(memory.block_count());
  std::vector<Digest> leaves(memory.block_count());
  std::vector<Digest*> outs(memory.block_count());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b] = memory.block_view(b);
    outs[b] = &leaves[b];
  }
  BlockDigester(config_.mac, config_.hash, device_.attestation_key())
      .digest_batch(blocks, outs);
  prime_tree_from(leaves);
}

void AttestationProcess::prime_tree_from(std::span<const Digest> leaves) {
  if (!config_.use_merkle_tree) {
    throw std::logic_error("prime_tree_from without use_merkle_tree");
  }
  if (busy()) throw std::logic_error("prime_tree_from while a measurement is in flight");
  ensure_tree();
  tree_->prime_with(leaves);
}

void AttestationProcess::make_order() {
  std::vector<std::size_t>& order = result_.order;
  if (config_.use_merkle_tree && tree_->primed()) {
    // Incremental round: only the blocks written since the last one.
    order = tree_->collect_dirty();
  } else {
    const std::size_t first = config_.coverage.first_block;
    order.resize(config_.coverage.resolve_count(device_.memory()));
    std::iota(order.begin(), order.end(), first);
  }
  const std::size_t n = order.size();
  if (config_.order == TraversalOrder::kShuffledSecret) {
    // Secret permutation derived from the attestation key and counter.
    // Stored state is what SMARM keeps in secure memory.
    support::Bytes seed = device_.attestation_key();
    support::append(seed, support::to_bytes("smarm-permutation"));
    support::append_u64_be(seed, measurement_->context().counter);
    crypto::HmacDrbg drbg(seed);
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = drbg.below(i);
      std::swap(order[i - 1], order[j]);
    }
  }
}

void AttestationProcess::start(MeasurementContext context,
                               std::function<void(const AttestationResult&)> done) {
  if (busy()) throw std::logic_error("AttestationProcess::start while busy");
  if (config_.use_merkle_tree) {
    if (config_.coverage.first_block != 0 ||
        (config_.coverage.block_count != 0 &&
         config_.coverage.block_count != device_.memory().block_count())) {
      throw std::invalid_argument("tree mode requires full memory coverage");
    }
    if (policy_ != nullptr && policy_->snapshots_at_start()) {
      throw std::invalid_argument(
          "tree mode is incompatible with snapshotting lock policies");
    }
    if (config_.zero_region) {
      throw std::invalid_argument("tree mode is incompatible with zero_region");
    }
    ensure_tree();
  }
  if (measurement_) {
    // Take back the visit-time buffer the last result carried, so one
    // buffer moves between the two and neither is reallocated.
    measurement_->swap_visit_times(result_.visit_times);
    measurement_->restart(std::move(context));
  } else {
    measurement_.emplace(device_.memory(), config_.hash, device_.attestation_key(),
                         std::move(context), config_.coverage, config_.mac);
  }
  if (config_.use_digest_cache) {
    DigestCache& cache =
        shared_digest_cache_ != nullptr ? *shared_digest_cache_ : digest_cache_;
    cache.resize(device_.memory().block_count());
    measurement_->set_digest_cache(&cache, key_fp_);
    if (auto* j = device_.sim().journal()) {
      measurement_->set_journal(j, j->intern(device_.id()));
    } else {
      measurement_->set_journal(nullptr, 0);
    }
  }
  make_order();
  if (config_.use_merkle_tree) planned_nodes_ = tree_->tree().plan_rehash(result_.order);
  next_index_ = 0;
  result_.t_s = result_.t_e = result_.t_r = 0;
  done_ = std::move(done);
  stage_ = Stage::kLock;
  requested_at_ = device_.sim().now();
  device_.cpu().make_ready(*this);
}

std::optional<sim::Segment> AttestationProcess::next_segment() {
  switch (stage_) {
    case Stage::kIdle:
      return std::nullopt;
    case Stage::kLock: {
      // Engaging the MPU lock (a syscall on HYDRA) costs a fixed overhead;
      // t_s is the instant the lock is in place.  Zeroing the data region
      // (when configured) happens in the same segment.
      sim::Duration cost = device_.model().measurement_block_overhead();
      if (policy_) {
        const std::size_t covered =
            config_.coverage.resolve_count(device_.memory()) *
            device_.memory().block_size();
        cost += policy_->start_cost(device_.model(), covered);
      }
      if (config_.zero_region) {
        cost += device_.model().copy_time(
            config_.zero_region->resolve_count(device_.memory()) *
            device_.memory().block_size());
      }
      return sim::Segment{cost, [this] { complete_lock(); }};
    }
    case Stage::kBlocks:
      if (config_.mode == ExecutionMode::kAtomic) {
        const std::size_t n = result_.order.size();
        const sim::Duration total = block_cost() * n + finalize_cost();
        return sim::Segment{total, [this] { complete_atomic(); }};
      }
      return sim::Segment{block_cost(), [this] { complete_block(); }};
    case Stage::kCombine:
      return sim::Segment{finalize_cost(), [this] { complete_combine(); }};
  }
  return std::nullopt;
}

void AttestationProcess::complete_lock() {
  result_.t_s = device_.sim().now();
  if (config_.zero_region) {
    // Zero before the lock engages (attestation code scrubbing D).
    auto& mem = device_.memory();
    const std::size_t n = config_.zero_region->resolve_count(mem);
    const std::size_t first = config_.zero_region->first_block;
    mem.zero_region(first * mem.block_size(), n * mem.block_size(), result_.t_s,
                    sim::Actor::kMeasurement);
  }
  if (policy_) policy_->on_start(device_.memory(), config_.coverage);
  // A fully clean tree-mode round has nothing to visit: skip straight to
  // the (root-MAC only) finalization segment.
  stage_ = result_.order.empty() ? Stage::kCombine : Stage::kBlocks;
}

void AttestationProcess::visit_one(std::size_t block, sim::Time visit_time) {
  auto& mem = device_.memory();
  if (config_.use_merkle_tree) {
    // Through the measurement, so the digest cache and journal see exactly
    // what flat mode would, then into the tree — as complete_atomic does.
    measurement_->visit_block(block, visit_time);
    tree_->apply_digest(block, measurement_->visited_digest(block));
  } else {
    measurement_->visit_block(block, visit_time,
                              policy_ ? policy_->block_source(mem, block)
                                      : mem.block_view(block));
  }
  if (policy_) policy_->on_block_visited(mem, block);
}

void AttestationProcess::complete_atomic() {
  // Nothing else ran between t_s and now, so reading all blocks at the end
  // of the segment observes exactly the memory state throughout.  That
  // also means the whole visit set is known up front at one visit time —
  // the batch path digests cache misses in multi-lane waves.  Lock-state
  // hooks (on_block_visited) run after the visits; they only flip MPU
  // bits, which cannot affect digests inside an atomic segment.
  const sim::Time now = device_.sim().now();
  const sim::Time visit_time =
      (policy_ && policy_->snapshots_at_start()) ? result_.t_s : now;
  auto& mem = device_.memory();
  const std::vector<std::size_t>& order = result_.order;
  if (config_.use_merkle_tree) {
    // Tree mode reads live memory (snapshot policies are rejected at
    // start): batch-visit through the measurement — cache lookups and
    // journal events are bit-identical to the per-block path — then land
    // each digest in the tree exactly as visit_one does.
    measurement_->visit_blocks(order, visit_time);
    for (std::size_t block : order) {
      tree_->apply_digest(block, measurement_->visited_digest(block));
    }
  } else if (policy_ != nullptr) {
    batch_contents_.clear();
    batch_contents_.reserve(order.size());
    for (std::size_t block : order) {
      batch_contents_.push_back(policy_->block_source(mem, block));
    }
    measurement_->visit_blocks(order, visit_time, batch_contents_);
  } else {
    measurement_->visit_blocks(order, visit_time);
  }
  if (policy_ != nullptr) {
    for (std::size_t block : order) policy_->on_block_visited(mem, block);
  }
  if (observer_) observer_(order.size(), order.size());
  finish();
}

void AttestationProcess::complete_block() {
  const std::size_t block = result_.order[next_index_];
  const sim::Time visit_time =
      (policy_ && policy_->snapshots_at_start()) ? result_.t_s : device_.sim().now();
  visit_one(block, visit_time);
  ++next_index_;
  if (observer_) observer_(next_index_, result_.order.size());
  if (next_index_ == result_.order.size()) stage_ = Stage::kCombine;
}

void AttestationProcess::complete_combine() { finish(); }

void AttestationProcess::finish() {
  auto& mem = device_.memory();
  result_.t_e = device_.sim().now();
  if (policy_) policy_->on_end(mem, config_.coverage);

  Report& report = result_.report;
  report.t_start = result_.t_s;
  report.t_end = result_.t_e;
  report.hash = config_.hash;
  report.proofs.clear();
  if (config_.use_merkle_tree) {
    const mtree::RehashStats stats = tree_->flush_tree();
    auto* journal = device_.sim().journal();
    const std::uint32_t actor = journal ? journal->intern(device_.id()) : 0;
    if (journal) {
      journal->append(result_.t_e, actor, 0, 0, obs::JournalEventKind::kMtreeRehash,
                      stats.dirty_leaves, stats.nodes_rehashed);
    }
    report.tree_root = tree_->root();
    report.measurement = Measurement::combine_root(
        report.tree_root, config_.hash, device_.attestation_key(),
        measurement_->context(), config_.mac, &device_.attestation_key_schedule());
    // Prove the whole backlog — every block dirtied since the last
    // decisive round, not just this round's visits — one subtree proof
    // per contiguous run, split at max_proof_leaves (the verifier
    // re-merges).  A report lost in transit therefore cannot lose
    // localization: the retry proves the same blocks again.
    if (proof_backlog_flag_.size() != device_.memory().block_count()) {
      proof_backlog_flag_.assign(device_.memory().block_count(), false);
      proof_backlog_.clear();
    }
    for (std::size_t block : result_.order) {
      if (!proof_backlog_flag_[block]) {
        proof_backlog_flag_[block] = true;
        proof_backlog_.push_back(static_cast<std::uint32_t>(block));
      }
    }
    std::vector<std::size_t> visited(proof_backlog_.begin(), proof_backlog_.end());
    std::sort(visited.begin(), visited.end());
    std::size_t i = 0;
    while (i < visited.size()) {
      std::size_t j = i + 1;
      while (j < visited.size() && visited[j] == visited[j - 1] + 1 &&
             j - i < config_.max_proof_leaves) {
        ++j;
      }
      const std::size_t first = visited[i];
      const std::size_t count = j - i;
      report.proofs.push_back(tree_->prove_range(first, count));
      if (journal) {
        journal->append(result_.t_e, actor, 0, 0, obs::JournalEventKind::kMtreeProof,
                        first, count);
      }
      i = j;
    }
  } else {
    report.tree_root.clear();
    report.measurement = measurement_->finalize_tag(&device_.attestation_key_schedule());
  }
  // The report keeps its strings' storage across rounds, so this copy
  // allocates nothing once warm; the visit times trade buffers.
  const MeasurementContext& context = measurement_->context();
  report.device_id = context.device_id;
  report.challenge = context.challenge;
  report.counter = context.counter;
  authenticate_report(report, device_.attestation_key_schedule());
  report.signature.clear();
  if (signer_ != nullptr && config_.signature) sign_report(report, *signer_);
  measurement_->swap_visit_times(result_.visit_times);

  const sim::Duration delay = policy_ ? policy_->release_delay() : 0;
  result_.t_r = result_.t_e + delay;
  if (auto* j = device_.sim().journal()) {
    // The whole window is known now: the session span (request -> t_e),
    // then the measurement (t_s -> t_e, lock held until t_r).
    const std::uint32_t actor = j->intern(device_.id());
    j->append(requested_at_, actor, 0, 0, obs::JournalEventKind::kProverSession,
              report.counter, result_.t_e - requested_at_);
    j->append(result_.t_s, actor, 0, 0, obs::JournalEventKind::kProverMeasure, delay,
              result_.t_e - result_.t_s);
  }
  if (policy_) {
    if (delay == 0) {
      policy_->on_release(mem, config_.coverage);
    } else {
      device_.sim().schedule_in(delay, [this] {
        policy_->on_release(device_.memory(), config_.coverage);
      });
    }
  }

  stage_ = Stage::kIdle;
  total_measure_time_ += result_.t_e - result_.t_s;
  if (done_) {
    // Move out first: the callback may start a new measurement.
    auto done = std::move(done_);
    done_ = nullptr;
    done(result_);
  }
}

}  // namespace rasc::attest
