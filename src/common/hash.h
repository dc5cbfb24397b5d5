#ifndef MLFS_COMMON_HASH_H_
#define MLFS_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mlfs {

// Two kinds of function live here, and they are not interchangeable:
//  - Checksum64 is the integrity check: the BlockFile envelope trailer over
//    every persisted byte. It must run at memory speed and must change
//    whenever any single byte changes.
//  - Fnv1a64 / HashBytes / FastHash64 / MixHash / HashCombine are hashes
//    for sharding, hash maps and sketches: they must spread short keys
//    well and be deterministic, and are never used to detect corruption.

/// 64-bit FNV-1a over raw bytes. Stable across platforms and runs, which
/// matters because sketch bucketing and value hashing must be
/// deterministic. A hash for maps and sketches; one dependent multiply per
/// byte, so never use it over bulk data.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fnv1a64 over a string: hash-map keys (the offline key directory) and
/// Value hashing.
inline uint64_t HashBytes(std::string_view s, uint64_t seed = 0) {
  return Fnv1a64(s.data(), s.size(), 0xcbf29ce484222325ULL ^ seed);
}

/// Final avalanche of MurmurHash3; good integer mixer. A bijection on
/// 64-bit values.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Fast 64-bit hash over short byte strings: 8-byte blocks folded through
/// a multiplicative mixer, so a dozen-byte key costs a handful of
/// multiplies instead of a dependent multiply per byte (FNV-1a). Used on
/// the serving hot path (online-store shards and CellMap slots) and for
/// segment dictionary interning, where key hashing is per-row work.
/// Deterministic for a given platform byte order, which is all store
/// sharding needs.
inline uint64_t FastHash64(const void* data, size_t len, uint64_t seed = 0) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL * (len + 1));
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = MixHash(h ^ k);
  }
  if (len > 0) {
    uint64_t k = 0;
    std::memcpy(&k, p, len);
    h = MixHash(h ^ k);
  }
  return h;
}

/// Boost-style hash combiner.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// 64-bit checksum over bulk bytes: the BlockFile envelope trailer.
///
/// Four independent lanes each take one 8-byte word per step (word i goes
/// to lane i % 4; a final partial word is zero-padded), so the loop has
/// four multiply chains in flight instead of FNV-1a's one dependent
/// multiply per byte. A step is acc' = rotl(acc + word * P2, 31) * P1 with
/// odd P1, P2: a bijection of acc for a fixed word and of the word for a
/// fixed acc. The lanes fold through MixHash, again a bijection of each
/// lane, and the length is mixed in last. So for a fixed length, changing
/// any single byte changes exactly one step's word and therefore the
/// result; zero padding is disambiguated by the length.
inline uint64_t Checksum64(const void* data, size_t len) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  const auto step = [](uint64_t acc, uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  const auto load = [](const unsigned char* q) {
    uint64_t w;
    std::memcpy(&w, q, 8);
    return w;
  };
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t a0 = kP1 + kP2, a1 = kP2, a2 = 0, a3 = 0 - kP1;
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    a0 = step(a0, load(p + i));
    a1 = step(a1, load(p + i + 8));
    a2 = step(a2, load(p + i + 16));
    a3 = step(a3, load(p + i + 24));
  }
  // Up to three whole words and a partial one continue the lane rotation.
  uint64_t acc[4] = {a0, a1, a2, a3};
  size_t lane = 0;
  for (; i + 8 <= len; i += 8, ++lane) {
    acc[lane] = step(acc[lane], load(p + i));
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    acc[lane] = step(acc[lane], w);
  }
  uint64_t h = MixHash(acc[0]);
  for (size_t l = 1; l < 4; ++l) h = MixHash(h ^ acc[l]);
  return MixHash(h ^ static_cast<uint64_t>(len));
}

}  // namespace mlfs

#endif  // MLFS_COMMON_HASH_H_
