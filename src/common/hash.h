// FNV-1a content hashing, the one primitive behind every content address in
// the library: the api layer's snapshot content hash and the serve layer's
// snapshot/result cache keys. Shared so the two layers never duplicate the
// byte-mixing code.
//
// All helpers fold into a running std::uint64_t accumulator seeded with
// kFnv64Offset. Doubles are hashed by bit pattern (exact, never rounded);
// strings and sized buffers mix their length first so adjacent fields
// cannot alias ("ab","c" vs "a","bc").

#ifndef SCWSC_COMMON_HASH_H_
#define SCWSC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace scwsc {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ull;

/// Folds `len` raw bytes into `h` (FNV-1a inner loop).
inline void HashBytes(const void* data, std::size_t len, std::uint64_t& h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnv64Prime;
  }
}

inline void HashU64(std::uint64_t v, std::uint64_t& h) {
  HashBytes(&v, sizeof(v), h);
}

/// Hashes the exact bit pattern, so 0.1 + 0.2 and 0.3 hash differently and
/// no rounding ever merges two distinct inputs.
inline void HashDouble(double v, std::uint64_t& h) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(bits, h);
}

/// Length-prefixed string hash.
inline void HashString(const std::string& s, std::uint64_t& h) {
  HashU64(s.size(), h);
  HashBytes(s.data(), s.size(), h);
}

/// One-shot convenience over a buffer, seeded with the FNV offset.
std::uint64_t Fnv1a64(const void* data, std::size_t len);

}  // namespace scwsc

#endif  // SCWSC_COMMON_HASH_H_
