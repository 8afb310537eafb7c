#pragma once

#include <cstddef>
#include <cstdint>

/// 64-bit FNV-1a, for digests only: the recorded digests of the tests,
/// bench_load and perfbench's answer digests are computed with it, so its
/// constants and mixing order must not change. Fingerprints use WordHash
/// (support/word_hash.hpp).
namespace malsched::fnv {

inline constexpr std::uint64_t kOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kPrime = 1099511628211ull;

inline void mix_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
}

inline void mix_u64(std::uint64_t& hash, std::uint64_t value) {
  mix_bytes(hash, &value, sizeof value);
}

}  // namespace malsched::fnv
