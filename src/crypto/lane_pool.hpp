#pragma once
/// \file lane_pool.hpp
/// Private interface between digest_many (lanes.cpp) and the process-wide
/// helper threads it splits large batches over (lane_pool.cpp).  Only
/// included by those two units.

#include <cstddef>

#include "src/crypto/hash.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto::lane_detail {

/// digest_many's body for one thread: kernel packs in table order, then a
/// scalar hash for what they leave.  Sizes are already checked.
void digest_serial(HashKind kind, const support::ByteView* msgs,
                   const support::MutableByteView* outs, std::size_t count) noexcept;

/// digest_serial over a batch cut into parts of kSplitPart messages, which
/// the calling thread and every free helper claim until none is left.
/// Parts start at multiples of kSplitPart, a multiple of every kernel's
/// width, so they are packed as the whole batch would be.  The first call
/// starts the helpers; a caller that finds none free digests every part
/// itself.  Returns once all of it is digested and no helper touches it
/// any more.  Allocation-free once the helpers run.
void digest_split(HashKind kind, const support::ByteView* msgs,
                  const support::MutableByteView* outs, std::size_t count);

}  // namespace rasc::crypto::lane_detail
