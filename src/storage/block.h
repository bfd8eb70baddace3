#ifndef LIOD_STORAGE_BLOCK_H_
#define LIOD_STORAGE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

namespace liod {

/// Index of a block within one file. 4 bytes, as in the paper's 8-byte
/// on-disk child addresses (4-byte block number + 4-byte offset, Section 4.1).
using BlockId = std::uint32_t;

inline constexpr BlockId kInvalidBlock = 0xFFFFFFFFu;

/// An on-disk address: block number plus byte offset inside the block.
/// Multiple small nodes can share a block (Section 4.1), so the offset is
/// needed to address a node that does not start at a block boundary.
struct DiskAddr {
  BlockId block = kInvalidBlock;
  std::uint32_t offset = 0;

  bool IsNull() const { return block == kInvalidBlock; }
  friend bool operator==(const DiskAddr&, const DiskAddr&) = default;
};
static_assert(sizeof(DiskAddr) == 8, "DiskAddr must be 8 bytes on disk");

inline constexpr DiskAddr kNullAddr{kInvalidBlock, 0};

/// A heap-allocated scratch buffer of exactly one block, with typed access
/// helpers. Write paths read a block into one of these, modify it and write it
/// back. Read-only paths may instead pin the frame itself through a PageRef
/// (storage/buffer_manager.h), which keeps it from being evicted until the
/// pin is released.
class BlockBuffer {
 public:
  explicit BlockBuffer(std::size_t block_size)
      : size_(block_size), data_(new std::byte[block_size]) {}

  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  std::size_t size() const { return size_; }

  void Zero() { std::memset(data_.get(), 0, size_); }

  /// Reinterpret the buffer at `offset` as a T. The caller is responsible for
  /// ensuring T is trivially copyable and fits.
  template <typename T>
  T* As(std::size_t offset = 0) {
    return reinterpret_cast<T*>(data_.get() + offset);
  }
  template <typename T>
  const T* As(std::size_t offset = 0) const {
    return reinterpret_cast<const T*>(data_.get() + offset);
  }

 private:
  std::size_t size_;
  std::unique_ptr<std::byte[]> data_;
};

}  // namespace liod

#endif  // LIOD_STORAGE_BLOCK_H_
