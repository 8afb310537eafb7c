#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

/// 64-bit hash over a stream of 64-bit words, for the content-hashing sites
/// of the serving stack: the InstanceHandle content fingerprint and the
/// SolveCache key fingerprint.
///
/// Four independent lanes take the words in turn (word i goes to lane
/// i mod 4), each with xxHash64's round acc = rotl(acc + w * P2, 31) * P1.
/// Consecutive words land in different lanes, so their rounds overlap: a
/// word costs a fraction of one round, where byte-at-a-time FNV-1a chains
/// eight dependent multiplies per word. finish() merges the lanes, adds the
/// stream length and runs xxHash64's avalanche, so every output bit depends
/// on every input bit and `hash % shards` splits distinct content evenly for
/// any shard count. The rounds and constants are xxHash64's; the output is
/// not xxHash64's, which hashes bytes and has a separate short-input path.
///
/// The value is defined on the word stream alone: a double enters as its
/// IEEE-754 bit pattern (so 0.0 and -0.0 differ), a byte string as its length
/// followed by its bytes packed little-endian into zero-padded words. It
/// does not depend on the compiler, build type, byte order or process, which
/// a fingerprint compared across processes needs; the tests pin two values.
namespace malsched {

class WordHash {
 public:
  /// Appends one word.
  void add_word(std::uint64_t word) noexcept {
    auto& lane = lanes_[count_ % kLanes];
    lane = round(lane, word);
    ++count_;
  }

  /// Appends each value's bit pattern, in order.
  void add_doubles(std::span<const double> values) noexcept {
    for (const double value : values) add_word(std::bit_cast<std::uint64_t>(value));
  }

  /// Appends the length of `bytes`, then its bytes packed little-endian into
  /// zero-padded words: the length keeps "ab"+"c" apart from "a"+"bc".
  void add_bytes(std::string_view bytes) noexcept {
    add_word(bytes.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(bytes[i])} << (8 * (i % 8));
      if (i % 8 == 7) {
        add_word(word);
        word = 0;
      }
    }
    if (bytes.size() % 8 != 0) add_word(word);
  }

  /// The hash of every word appended so far; the stream may continue.
  [[nodiscard]] std::uint64_t finish() const noexcept {
    const auto [a, b, c, d] = lanes_;
    std::uint64_t hash =
        std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) + std::rotl(d, 18);
    for (const std::uint64_t lane : lanes_) {
      hash ^= round(0, lane);
      hash = hash * kP1 + kP4;
    }
    hash += count_ * sizeof(std::uint64_t);
    hash ^= hash >> 33;
    hash *= kP2;
    hash ^= hash >> 29;
    hash *= kP3;
    hash ^= hash >> 32;
    return hash;
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::size_t kLanes = 4;

  static constexpr std::uint64_t round(std::uint64_t acc, std::uint64_t word) noexcept {
    return std::rotl(acc + word * kP2, 31) * kP1;
  }

  /// xxHash64's lane seeds for seed 0.
  std::array<std::uint64_t, kLanes> lanes_{kP1 + kP2, kP2, 0, 0 - kP1};
  std::uint64_t count_{0};  ///< words appended
};

}  // namespace malsched
