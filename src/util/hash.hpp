// FNV-1a 64: the one non-cryptographic hash of the library.  It keys the
// solve caches (core::SolveKeyHash) and digests scenario reports and
// arrival traces, whose pinned values depend on these exact bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chainckpt::util {

constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a over `size` bytes, continuing from `h` (the offset basis
/// starts a fresh hash).
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = kFnv1aOffset) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// FNV-1a over the eight bytes of `word`, least significant first (the
/// same on every host byte order), continuing from `h`.
inline std::uint64_t fnv1a_u64(std::uint64_t word,
                               std::uint64_t h = kFnv1aOffset) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xffu;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace chainckpt::util
