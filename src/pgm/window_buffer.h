#ifndef LIOD_PGM_WINDOW_BUFFER_H_
#define LIOD_PGM_WINDOW_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

namespace liod {

/// A contiguous search window of trivially copyable T read from disk. The
/// first `kInline` elements live inside the object (on the caller's stack),
/// so a window of the usual size costs no heap allocation; a window that
/// outgrows them moves to the heap. Element values are unspecified until the
/// caller reads bytes into them.
///
/// Each search owns its window: a lookup may run concurrently with others on
/// the same index (shared shard latch), so windows are never index members.
template <typename T, std::size_t kInline>
class WindowBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  WindowBuffer() = default;
  WindowBuffer(const WindowBuffer&) = delete;
  WindowBuffer& operator=(const WindowBuffer&) = delete;

  T* data() { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  T& front() { return data_[0]; }
  T& back() { return data_[size_ - 1]; }

  /// Makes the window `n` elements long; the old contents are discarded.
  T* Assign(std::size_t n) {
    size_ = 0;
    Reserve(n);
    size_ = n;
    return data_;
  }

  /// Inserts `n` elements before the current ones and returns them.
  T* GrowFront(std::size_t n) {
    Reserve(size_ + n);
    std::memmove(data_ + n, data_, Bytes(size_));
    size_ += n;
    return data_;
  }

  /// Appends `n` elements and returns them.
  T* GrowBack(std::size_t n) {
    Reserve(size_ + n);
    T* tail = data_ + size_;
    size_ += n;
    return tail;
  }

 private:
  static std::size_t Bytes(std::size_t n) { return n * sizeof(T); }

  void Reserve(std::size_t n) {
    if (n <= capacity_) return;
    const std::size_t capacity = std::max(n, 2 * capacity_);
    auto heap = std::make_unique_for_overwrite<T[]>(capacity);
    std::memcpy(heap.get(), data_, Bytes(size_));
    heap_ = std::move(heap);
    data_ = heap_.get();
    capacity_ = capacity;
  }

  alignas(T) std::byte inline_[kInline * sizeof(T)];
  std::unique_ptr<T[]> heap_;
  T* data_ = reinterpret_cast<T*>(inline_);
  std::size_t size_ = 0;
  std::size_t capacity_ = kInline;
};

}  // namespace liod

#endif  // LIOD_PGM_WINDOW_BUFFER_H_
