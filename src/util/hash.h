// FNV-1a (64-bit) and the fixed-width hex form that text artifacts print
// hashes and IEEE-754 bit images in. One copy for the whole tree: the
// checkpoint codec's checksum, the ctrl report's cache keys, the plan-cache
// trace args and the incremental Fingerprint hasher all share it.
#ifndef CORRAL_UTIL_HASH_H_
#define CORRAL_UTIL_HASH_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace corral {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over `bytes`, continuing from `state` (the standard offset basis
// by default, so fnv1a(text) is the textbook hash).
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t state = kFnvOffsetBasis) {
  for (const unsigned char c : bytes) {
    state ^= c;
    state *= kFnvPrime;
  }
  return state;
}

// `value` as exactly 16 lowercase hex digits.
inline std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace corral

#endif  // CORRAL_UTIL_HASH_H_
