#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

/// Stable sort of indices by 64-bit keys, for the dual step's canonical
/// order: the canonical list's decreasing canonical times.
///
/// Callers pair each index with a key from ascending_key() or
/// descending_key(), fill the pairs in index order and sort them. The keys
/// compare as unsigned integers in the order of the doubles they encode, and
/// the sort keeps equal keys in input order, so the result is the permutation
/// std::sort gives on the doubles with the lower index first among equals.
///
/// From kRadixSortCutoff entries on the sort is a least-significant-digit
/// radix sort with 8-bit digits: one pass counts all eight digits, then each
/// digit in which the keys differ costs one scatter, walking the input
/// forwards so that ties keep their order. Below the cutoff a comparison
/// sort on (key, index) is faster.
namespace malsched {

/// One index and the key it is sorted by.
struct KeyedIndex {
  std::uint64_t key;
  int index;
};

/// Entries from which sort_by_key() radix-sorts. Measured on uniform random
/// keys (gcc 12 -O2, one core of a 4-vCPU x86-64 host), std::sort on the
/// entries is faster up to 192 entries and the radix sort from 224 on: 1.5x
/// faster at 512 and about 2.5x at 1000-2000. At 32 entries the radix
/// sort's fixed cost (eight 256-bucket counts) makes it 7x slower.
inline constexpr std::size_t kRadixSortCutoff = 200;

/// Key whose unsigned order is the order of `value`; -0.0 and +0.0 map to the
/// same key. `value` must not be NaN.
[[nodiscard]] inline std::uint64_t ascending_key(double value) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
  // Negative values reverse their magnitude order; positive ones sit above.
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Key whose unsigned order is the reverse order of `value`.
[[nodiscard]] inline std::uint64_t descending_key(double value) noexcept {
  return ~ascending_key(value);
}

/// Sorts `entries`, given in increasing index order, by increasing key and
/// equal keys by increasing index. `scratch` must hold at least
/// entries.size() elements; its contents are overwritten.
inline void sort_by_key(std::span<KeyedIndex> entries, std::span<KeyedIndex> scratch) {
  const std::size_t n = entries.size();
  if (n < kRadixSortCutoff) {
    std::sort(entries.begin(), entries.end(), [](const KeyedIndex& a, const KeyedIndex& b) {
      return a.key != b.key ? a.key < b.key : a.index < b.index;
    });
    return;
  }

  constexpr int kDigits = 8;
  std::array<std::array<std::uint32_t, 256>, kDigits> counts{};
  for (const KeyedIndex& entry : entries) {
    for (int digit = 0; digit < kDigits; ++digit) {
      ++counts[static_cast<std::size_t>(digit)][(entry.key >> (8 * digit)) & 0xff];
    }
  }

  KeyedIndex* from = entries.data();
  KeyedIndex* to = scratch.data();
  for (int digit = 0; digit < kDigits; ++digit) {
    auto& offsets = counts[static_cast<std::size_t>(digit)];
    const int shift = 8 * digit;
    if (offsets[(from[0].key >> shift) & 0xff] == n) continue;  // one digit value: no-op pass
    std::uint32_t sum = 0;
    for (std::uint32_t& offset : offsets) {
      const std::uint32_t count = offset;
      offset = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      to[offsets[(from[i].key >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != entries.data()) std::copy(from, from + n, entries.data());
}

}  // namespace malsched
