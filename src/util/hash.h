// Shared deterministic hashing primitives.
//
// One audited implementation of the two non-cryptographic hashes the
// project leans on, instead of per-module copies:
//
//  * FNV-1a 64-bit — content hashing of canonical request strings, workload
//    packs and cached payloads (service/result_cache.h); a request's hash
//    also keys its injected-fault decisions (service/service.h).
//    Stability matters: cache keys and fault schedules must not move
//    between builds, so the constants below are pinned and the traversal
//    order is byte order.
//  * SplitMix64 finalizer — the avalanche mix behind util/rng.h's
//    derive_seed() and util/fault.h's pure injection-decision hashes.
//
// hash_to_unit() is the one sanctioned way to turn a 64-bit hash into a
// uniform double in [0, 1) (53 high bits, same mapping as
// Xorshift64Star::uniform), so decision thresholds agree everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mobitherm::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis64 = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime64 = 1099511628211ULL;

/// FNV-1a over raw bytes, continuing from `state` (pass the offset basis
/// to start a fresh hash; chaining calls hashes the concatenation).
constexpr std::uint64_t fnv1a64_bytes(
    const char* data, std::size_t size,
    std::uint64_t state = kFnv1aOffsetBasis64) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= static_cast<unsigned char>(data[i]);
    state *= kFnv1aPrime64;
  }
  return state;
}

/// FNV-1a 64-bit hash of a string (canonical request keys, payloads).
constexpr std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64_bytes(text.data(), text.size());
}

/// SplitMix64 finalizer (Steele, Lea, Flood 2014): a full-avalanche mix of
/// one 64-bit word. The building block for seed derivation and the fault
/// plan's stateless injection decisions.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from a 64-bit hash: the top 53 bits scaled by
/// 2^-53, matching Xorshift64Star::uniform bit for bit.
constexpr double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace mobitherm::util
