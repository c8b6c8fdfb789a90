// Byte-vector <-> pooled-frame conversions for tests that state block
// contents as plain bytes while the block layer moves core::BufRef frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "block/block.h"
#include "core/buffer_pool.h"

namespace netstore::test {

/// One fresh frame per whole block of `bytes`.
inline std::vector<core::BufRef> frames_of(std::span<const std::uint8_t> bytes) {
  std::vector<core::BufRef> refs;
  for (std::size_t off = 0; off < bytes.size(); off += block::kBlockSize) {
    core::BufRef ref = core::BufferPool::instance().alloc();
    std::memcpy(ref.mutable_data(), bytes.data() + off, block::kBlockSize);
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// The frames' contents, concatenated.
inline std::vector<std::uint8_t> bytes_of(const std::vector<core::BufRef>& refs) {
  std::vector<std::uint8_t> bytes(refs.size() * block::kBlockSize);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    std::memcpy(bytes.data() + i * block::kBlockSize, refs[i].data(),
                block::kBlockSize);
  }
  return bytes;
}

}  // namespace netstore::test
