#ifndef AGORA_COMMON_HASH_H_
#define AGORA_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace agora {

/// Finalizing 64-bit mixer (splitmix64 variant); good avalanche for
/// integer keys in hash joins and aggregates.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a based string hash with a 64-bit finisher. Not cryptographic.
inline uint64_t HashBytes(const void* data, size_t len,
                          uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  // Consume 8 bytes at a time.
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    h = (h ^ *p) * 0x100000001b3ULL;
    ++p;
    --len;
  }
  return HashMix64(h);
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

/// Hash of a DOUBLE value. -0.0 hashes as +0.0 because SQL finds them
/// equal; other values hash by bit pattern.
inline uint64_t HashDouble(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return HashMix64(bits);
}

/// Combines two hash values (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Hash assigned to NULL rows (matches ColumnVector::HashRow).
inline constexpr uint64_t kNullHash = 0x6e756c6cULL;

/// Salt folded into every vectorized hash-table key hash
/// (exec/hash_table.h) so table bucket choice is decoupled from the raw
/// per-column hashes that other subsystems (stats sketches, hash
/// indexes) also consume.
inline constexpr uint64_t kHashTableSalt = 0x7fb5d329728ea185ULL;

}  // namespace agora

#endif  // AGORA_COMMON_HASH_H_
