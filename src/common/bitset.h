// DynamicBitset: a fixed-universe bitset sized at run time.
//
// The coverage state of every algorithm in this library is "which elements of
// T are already covered"; DynamicBitset provides that with O(n/64) storage,
// constant-time test/set, and a popcount-based count. It deliberately has no
// resize-on-access behaviour: all accesses must be within [0, size()), which
// is DCHECK-enforced.

#ifndef SCWSC_COMMON_BITSET_H_
#define SCWSC_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace scwsc {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset over universe {0, ..., n-1}, all bits clear.
  explicit DynamicBitset(std::size_t n)
      : size_(n), words_((n + 63) / 64, 0), count_(0) {}

  std::size_t size() const { return size_; }

  /// Number of set bits. O(1): maintained incrementally.
  std::size_t count() const { return count_; }

  bool none() const { return count_ == 0; }
  bool all() const { return count_ == size_; }

  bool test(std::size_t i) const {
    SCWSC_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit i; returns true if the bit was previously clear.
  bool set(std::size_t i) {
    SCWSC_DCHECK(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    if (w & mask) return false;
    w |= mask;
    ++count_;
    return true;
  }

  /// Clears bit i; returns true if the bit was previously set.
  bool reset(std::size_t i) {
    SCWSC_DCHECK(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    if (!(w & mask)) return false;
    w &= ~mask;
    --count_;
    return true;
  }

  /// Clears all bits.
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Grows the universe to n (new bits clear). n must be >= size().
  void Resize(std::size_t n);

  /// Packed-word view, little-endian within each word (bit i lives at
  /// words()[i >> 6] bit (i & 63)). Trailing bits past size() are zero.
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t num_words() const { return words_.size(); }

  /// Number of bits set in `other` but clear here: popcount(other & ~this)
  /// over `nwords` packed words. `other` must use this bitset's layout with
  /// nwords <= num_words(); trailing bits of `other` past the universe must
  /// be zero. This is the marginal-benefit kernel: with `other` a set's
  /// membership row and `this` the covered state, the result is |MBen|.
  std::size_t AndNotCount(const std::uint64_t* other,
                          std::size_t nwords) const {
    SCWSC_DCHECK(nwords <= words_.size());
    std::size_t c = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      c += static_cast<std::size_t>(
          __builtin_popcountll(other[w] & ~words_[w]));
    }
    return c;
  }

  /// ORs `other` into this bitset and returns the number of newly set bits.
  /// Same layout contract as AndNotCount.
  std::size_t UnionWith(const std::uint64_t* other, std::size_t nwords) {
    SCWSC_DCHECK(nwords <= words_.size());
    std::size_t newly = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint64_t add = other[w] & ~words_[w];
      if (add != 0) {
        newly += static_cast<std::size_t>(__builtin_popcountll(add));
        words_[w] |= add;
      }
    }
    count_ += newly;
    return newly;
  }

  /// Number of ids in `ids` whose bit is clear.
  template <typename Container>
  std::size_t CountClear(const Container& ids) const {
    std::size_t c = 0;
    for (auto id : ids) {
      if (!test(static_cast<std::size_t>(id))) ++c;
    }
    return c;
  }

  /// Calls fn(i) for every set bit i, in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace scwsc

#endif  // SCWSC_COMMON_BITSET_H_
