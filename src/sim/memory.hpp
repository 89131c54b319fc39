#pragma once
/// \file memory.hpp
/// Block-granular prover memory with an MPU-style lock model and a write
/// log.  Locks make blocks read-only (the HYDRA/seL4 capability mechanism
/// the paper's memory-locking solutions rely on); the write log lets the
/// consistency analyzer replay what changed during a measurement.
///
/// Every block also carries a monotonically increasing *generation
/// counter*, bumped whenever its contents change (write, zero_region,
/// load).  This models RATA-style hardware that records when memory was
/// last modified: a measurement layer can compare a block's generation
/// against the one it hashed last time and skip rehashing untouched
/// blocks (see attest::DigestCache).  MPU-rejected writes do NOT bump a
/// generation — the contents did not change.

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.hpp"
#include "src/support/bytes.hpp"

namespace rasc::sim {

/// Who performed a memory access (for the write log and lock bypass:
/// the measurement process itself never writes attested memory).
enum class Actor : std::uint8_t {
  kApplication,
  kMalware,
  kMeasurement,
  kSystem,
};

struct WriteRecord {
  Time time;
  std::size_t block;
  Actor actor;
  bool blocked;  ///< true if the MPU rejected the write (block locked)
};

class DeviceMemory {
 public:
  /// Unseated: no blocks until reseat().
  DeviceMemory() = default;
  /// `size` must be a positive multiple of `block_size`.
  DeviceMemory(std::size_t size, std::size_t block_size) { reseat(size, block_size); }

  /// Start over as fresh memory of `size` bytes: all zero, unlocked, every
  /// generation 0, an empty write log and zero write counts.  Storage is reused, so a reseat to a size the memory
  /// has held allocates nothing; the observers stay attached.  Throws
  /// std::invalid_argument as the constructor does, leaving the memory
  /// unchanged.
  void reseat(std::size_t size, std::size_t block_size);

  std::size_t size() const noexcept { return data_.size(); }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t block_count() const noexcept { return block_count_; }

  std::size_t block_of(std::size_t addr) const noexcept { return addr / block_size_; }

  // -- data access ----------------------------------------------------------
  support::ByteView read(std::size_t addr, std::size_t len) const;
  support::ByteView block_view(std::size_t block) const;

  /// Attempt a write at `now` by `actor`.  Fails atomically (no partial
  /// write, returns false, logs a blocked record per touched block) if any
  /// touched block is locked.
  bool write(std::size_t addr, support::ByteView bytes, Time now, Actor actor);

  /// Zero a whole region (the paper's D-region policy before measuring).
  bool zero_region(std::size_t addr, std::size_t len, Time now, Actor actor);

  /// Full copy of memory contents (golden images, snapshots).
  support::Bytes snapshot() const { return data_; }

  /// Restore contents without logging (test setup / device provisioning).
  /// Still bumps the touched blocks' generations: the contents changed.
  void load(support::ByteView image, std::size_t addr = 0);

  // -- generations -------------------------------------------------------------
  /// Content generation of one block: starts at 0, +1 per content change.
  std::uint64_t block_generation(std::size_t block) const;
  /// Global generation: bumped once per mutating operation that changed at
  /// least one block.  Cheap "anything changed since X?" check.
  std::uint64_t generation() const noexcept { return global_generation_; }

  // -- MPU locks --------------------------------------------------------------
  void lock_block(std::size_t block);
  void unlock_block(std::size_t block);
  bool locked(std::size_t block) const;
  /// Maintained counter — O(1), not a scan.
  std::size_t locked_block_count() const noexcept { return locked_count_; }

  // -- observability -----------------------------------------------------------
  /// Invoked after every lock-state change with the new locked-block
  /// count.  The Device journals
  /// it as a "mem.locked_blocks" counter series, making each locking
  /// policy's t_s/t_e/t_r transitions visible on the timeline.
  using LockObserver = std::function<void(std::size_t locked_blocks)>;
  void set_lock_observer(LockObserver observer) { lock_observer_ = std::move(observer); }

  /// Invoked for every write-log record as it is appended (one per
  /// touched block, including MPU-rejected writes).
  using WriteObserver = std::function<void(const WriteRecord&)>;
  void set_write_observer(WriteObserver observer) {
    write_observer_ = std::move(observer);
  }

  /// Invoked once per block whose *content* actually changed (write,
  /// zero_region, load) — i.e. exactly when that block's generation is
  /// bumped, so MPU-rejected writes never fire it.  This is the RATA-style
  /// last-modified signal the Merkle measurement layer subscribes to
  /// (mtree::IncrementalTree, at construction): it turns dirty-block
  /// discovery from an O(n) generation scan into O(writes).
  using GenerationObserver = std::function<void(std::size_t block)>;
  void set_generation_observer(GenerationObserver observer) {
    generation_observer_ = std::move(observer);
  }
  /// True while a subscriber holds the one generation-observer slot.
  bool has_generation_observer() const noexcept {
    return static_cast<bool>(generation_observer_);
  }

  // -- write log ---------------------------------------------------------------
  /// Records the write log retains: an append to a full log first drops
  /// its oldest half, so long campaigns stop growing memory.
  static constexpr std::size_t kWriteLogCapacity = std::size_t{1} << 18;

  /// Oldest-first; at most kWriteLogCapacity records.  The running
  /// counters below are NOT affected by truncation.
  const std::vector<WriteRecord>& write_log() const noexcept { return write_log_; }
  void clear_write_log();
  /// Records dropped from the log by the capacity bound since the last
  /// clear_write_log().
  std::size_t dropped_write_records() const noexcept { return dropped_write_records_; }

  /// Running counters since the log was last cleared (availability
  /// metrics for the locking mechanisms).  Maintained on append — O(1)
  /// and immune to ring-buffer truncation.
  std::size_t blocked_write_count() const noexcept { return blocked_write_count_; }
  std::size_t total_write_count() const noexcept { return total_write_count_; }

 private:
  void check_range(std::size_t addr, std::size_t len) const;

  void notify_locks();
  void append_write_record(const WriteRecord& record);
  void bump_generation(std::size_t first_block, std::size_t last_block);

  static constexpr std::size_t kBitsPerWord = 64;

  std::size_t block_size_ = 0;
  std::size_t block_count_ = 0;
  support::Bytes data_;
  /// Word-packed lock bitset (bit b of word b/64 = block b locked) with a
  /// maintained population count.
  std::vector<std::uint64_t> lock_words_;
  std::size_t locked_count_ = 0;
  std::vector<std::uint64_t> generations_;
  std::uint64_t global_generation_ = 0;
  std::vector<WriteRecord> write_log_;
  std::size_t dropped_write_records_ = 0;
  std::size_t blocked_write_count_ = 0;
  std::size_t total_write_count_ = 0;
  LockObserver lock_observer_;
  WriteObserver write_observer_;
  GenerationObserver generation_observer_;
};

}  // namespace rasc::sim
