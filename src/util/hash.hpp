// FNV-1a, the 64-bit hash behind the memo-table buckets, and Hash128, the
// digest that stands in for a whole netlist in the PAR memo's key.
#pragma once

#include "util/ints.hpp"

namespace prcost {

/// FNV-1a over key fields, mixed one at a time (never memcmp a key: the
/// padding is indeterminate).
struct Fnv1a {
  u64 h = 14695981039346656037ull;
  Fnv1a& mix(u64 v) {
    h ^= v;
    h *= 1099511628211ull;
    return *this;
  }
};

/// The splitmix64 finalizer: a bijection whose every output bit depends on
/// every input bit.
constexpr u64 splitmix64(u64 v) {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ull;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

/// A 128-bit digest for keys where the hash is the identity, so a
/// collision would serve another object's answer. Two lanes with their own
/// seeds and multipliers; each word is finalized differently per lane
/// before it is mixed in. In a single FNV-1a lane the next free word can
/// xor away any difference the previous one made; here it would have to
/// cancel two unrelated 64-bit differences at once. Not cryptographic.
struct Hash128 {
  u64 lo = 0x243f6a8885a308d3ull;
  u64 hi = 0x13198a2e03707344ull;

  Hash128& mix(u64 v) {
    lo = (lo ^ splitmix64(v)) * 1099511628211ull;
    hi = (hi ^ splitmix64(v ^ 0x9e3779b97f4a7c15ull)) * 0xff51afd7ed558ccdull;
    hi = (hi << 29) | (hi >> 35);
    return *this;
  }

  bool operator==(const Hash128&) const = default;
};

}  // namespace prcost
