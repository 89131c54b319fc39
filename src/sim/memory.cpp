#include "src/sim/memory.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::sim {

void DeviceMemory::reseat(std::size_t size, std::size_t block_size) {
  if (block_size == 0 || size == 0 || size % block_size != 0) {
    throw std::invalid_argument("DeviceMemory: size must be a positive multiple of block_size");
  }
  block_size_ = block_size;
  block_count_ = size / block_size;
  data_.assign(size, 0);
  lock_words_.assign((block_count_ + kBitsPerWord - 1) / kBitsPerWord, 0);
  locked_count_ = 0;
  generations_.assign(block_count_, 0);
  global_generation_ = 0;
  clear_write_log();
}

void DeviceMemory::check_range(std::size_t addr, std::size_t len) const {
  if (addr > data_.size() || len > data_.size() - addr) {
    throw std::out_of_range("DeviceMemory access out of range");
  }
}

support::ByteView DeviceMemory::read(std::size_t addr, std::size_t len) const {
  check_range(addr, len);
  return support::ByteView(data_.data() + addr, len);
}

support::ByteView DeviceMemory::block_view(std::size_t block) const {
  if (block >= block_count_) throw std::out_of_range("block index out of range");
  return support::ByteView(data_.data() + block * block_size_, block_size_);
}

void DeviceMemory::bump_generation(std::size_t first_block, std::size_t last_block) {
  for (std::size_t b = first_block; b <= last_block; ++b) {
    ++generations_[b];
    if (generation_observer_) generation_observer_(b);
  }
  ++global_generation_;
}

void DeviceMemory::append_write_record(const WriteRecord& record) {
  ++total_write_count_;
  if (record.blocked) ++blocked_write_count_;
  if (write_log_.size() >= kWriteLogCapacity) {
    // Drop the oldest half in one amortized move instead of shifting the
    // whole log on every append.
    constexpr std::size_t drop = kWriteLogCapacity / 2;
    write_log_.erase(write_log_.begin(),
                     write_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_write_records_ += drop;
  }
  write_log_.push_back(record);
  if (write_observer_) write_observer_(record);
}

bool DeviceMemory::write(std::size_t addr, support::ByteView bytes, Time now, Actor actor) {
  if (bytes.empty()) return true;
  check_range(addr, bytes.size());
  const std::size_t first = block_of(addr);
  const std::size_t last = block_of(addr + bytes.size() - 1);
  bool any_locked = false;
  for (std::size_t b = first; b <= last; ++b) any_locked |= locked(b);
  for (std::size_t b = first; b <= last; ++b) {
    append_write_record(WriteRecord{now, b, actor, any_locked});
  }
  if (any_locked) return false;  // MPU rejection: contents (and generations) unchanged
  std::copy(bytes.begin(), bytes.end(), data_.begin() + static_cast<std::ptrdiff_t>(addr));
  bump_generation(first, last);
  return true;
}

bool DeviceMemory::zero_region(std::size_t addr, std::size_t len, Time now, Actor actor) {
  const support::Bytes zeros(len, 0);
  return write(addr, zeros, now, actor);
}

void DeviceMemory::load(support::ByteView image, std::size_t addr) {
  if (image.empty()) return;
  check_range(addr, image.size());
  std::copy(image.begin(), image.end(), data_.begin() + static_cast<std::ptrdiff_t>(addr));
  bump_generation(block_of(addr), block_of(addr + image.size() - 1));
}

std::uint64_t DeviceMemory::block_generation(std::size_t block) const {
  if (block >= block_count_) throw std::out_of_range("block_generation out of range");
  return generations_[block];
}

void DeviceMemory::notify_locks() {
  if (lock_observer_) lock_observer_(locked_count_);
}

void DeviceMemory::lock_block(std::size_t block) {
  if (block >= block_count_) throw std::out_of_range("lock_block out of range");
  const std::uint64_t bit = std::uint64_t{1} << (block % kBitsPerWord);
  std::uint64_t& word = lock_words_[block / kBitsPerWord];
  if (!(word & bit)) {
    word |= bit;
    ++locked_count_;
  }
  notify_locks();
}

void DeviceMemory::unlock_block(std::size_t block) {
  if (block >= block_count_) throw std::out_of_range("unlock_block out of range");
  const std::uint64_t bit = std::uint64_t{1} << (block % kBitsPerWord);
  std::uint64_t& word = lock_words_[block / kBitsPerWord];
  if (word & bit) {
    word &= ~bit;
    --locked_count_;
  }
  notify_locks();
}

bool DeviceMemory::locked(std::size_t block) const {
  if (block >= block_count_) throw std::out_of_range("locked out of range");
  return (lock_words_[block / kBitsPerWord] >> (block % kBitsPerWord)) & 1u;
}

void DeviceMemory::clear_write_log() {
  write_log_.clear();
  dropped_write_records_ = 0;
  blocked_write_count_ = 0;
  total_write_count_ = 0;
}

}  // namespace rasc::sim
