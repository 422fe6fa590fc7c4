#ifndef AGORA_EXEC_HASH_TABLE_H_
#define AGORA_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "storage/column_vector.h"

namespace agora {

class ThreadPool;

/// Counters shared by the vectorized hash tables below. Build-time facts
/// (entries, slots, resizes) live on the table; probe-side counters
/// (lookups, probe_steps) are written through a caller-owned instance so
/// concurrent probers never touch shared state.
struct HashTableStats {
  int64_t entries = 0;      ///< keys stored
  int64_t slots = 0;        ///< open-addressing slot directory size
  int64_t lookups = 0;      ///< Find/FindOrCreate row lookups
  int64_t probe_steps = 0;  ///< slot inspections across all lookups
  int64_t resizes = 0;      ///< slot-directory doublings
};

/// Blocked Bloom filter over 64-bit key hashes: one cache-line-friendly
/// 64-bit word per membership test, two bits per key (~16 bits budgeted
/// per key, so the word directory is count/4 rounded up to a power of
/// two). The word index comes from the hash's upper half and the two bit
/// positions from its low 12 bits, so the filter stays decorrelated from
/// the slot index, which uses the middle bits. An empty filter (no build
/// keys) rejects everything — exactly right for an empty build side.
class BloomFilter {
 public:
  /// (Re)builds from `hashes[0..n)`, skipping rows with valid[r] == 0.
  void Build(const uint64_t* hashes, const uint8_t* valid, size_t n);

  /// False means "definitely absent"; true means "probe the table".
  bool MightContain(uint64_t h) const {
    if (words_.empty()) return false;
    uint64_t m = BitMask(h);
    return (words_[(h >> 32) & word_mask_] & m) == m;
  }

  size_t word_count() const { return words_.size(); }

 private:
  static uint64_t BitMask(uint64_t h) {
    return (1ULL << (h & 63)) | (1ULL << ((h >> 6) & 63));
  }

  std::vector<uint64_t> words_;
  uint64_t word_mask_ = 0;
};

/// Build-once / probe-many hash table for hash joins: maps a 64-bit key
/// hash to the chain of build-side row ids carrying that hash.
///
/// Layout: the build rows are hash-partitioned (partition = hash % P, the
/// same rule the seed path used), and each partition owns a private
/// open-addressing slot directory of {hash, chain head} pairs sized to
/// load factor <= 0.5. Chains thread through one shared `next` array
/// (row-id + 1 links, 0 terminates) instead of per-key vectors, so the
/// whole table is three flat allocations from an arena — no per-key
/// nodes. Rows are inserted in descending row order, which leaves every
/// chain in ascending row order: probe output is byte-identical to the
/// seed path at any partition count.
///
/// Build() also derives a BloomFilter over the stored hashes; probers
/// consult it before touching the slot directory.
class JoinHashTable {
 public:
  /// Builds over `hashes[0..rows)`; rows with valid[r] == 0 (NULL keys)
  /// are excluded. With `pool` non-null the P partition fills run as
  /// parallel tasks (each partition has exactly one writer).
  Status Build(const uint64_t* hashes, const uint8_t* valid, size_t rows,
               size_t num_partitions, ThreadPool* pool);

  /// Returns the chain head reference for hash `h`, or 0 if absent.
  /// A reference is row-id + 1; decode with `ref - 1` and advance with
  /// Next(). Thread-safe after Build(); per-caller stats.
  uint32_t Find(uint64_t h, HashTableStats* stats) const {
    stats->lookups++;
    const Partition& part = partitions_[h % partitions_.size()];
    if (part.slots == nullptr) return 0;
    uint64_t pos = (h >> 16) & part.mask;
    for (;;) {
      stats->probe_steps++;
      const Slot& s = part.slots[pos];
      if (s.head == 0) return 0;
      if (s.hash == h) return s.head;
      pos = (pos + 1) & part.mask;
    }
  }

  /// Follows the row chain; returns 0 at the end.
  uint32_t Next(uint32_t ref) const { return next_[ref - 1]; }

  const BloomFilter& bloom() const { return bloom_; }
  int64_t entries() const { return entries_; }
  int64_t slot_count() const { return slot_count_; }

 private:
  /// Slot directory entry. head is row-id + 1 so the all-zero arena
  /// allocation is a valid empty directory (hash 0 is a legal key hash).
  struct Slot {
    uint64_t hash;
    uint32_t head;
  };

  struct Partition {
    Slot* slots = nullptr;
    uint64_t mask = 0;
    size_t count = 0;
  };

  void FillPartition(size_t p, const uint64_t* hashes, const uint8_t* valid,
                     size_t rows);

  Arena arena_;  // charges the creating query's MemoryTracker per block
  std::vector<Partition> partitions_;
  uint32_t* next_ = nullptr;
  BloomFilter bloom_;
  MemoryCharge charge_;  // bloom words + partition directory
  int64_t entries_ = 0;
  int64_t slot_count_ = 0;
};

/// The join key-hash convention: sets hashes[i] to kHashTableSalt folded
/// with row i of every key column in order (row sel[i] when `sel` is
/// given), and valid[i] to 0 when any of those key cells is NULL (NULL
/// keys never match). Build, probe and the scans' join filters all hash
/// through here, so a Bloom filter hit means the same thing everywhere.
void HashJoinKeys(const std::vector<ColumnVector>& keys, const uint32_t* sel,
                  size_t n, std::vector<uint64_t>* hashes,
                  std::vector<uint8_t>* valid);

/// Incremental hash table mapping composite group keys to dense group ids
/// in first-appearance order — the engine-side replacement for the
/// string-key group map in hash aggregation (and for DISTINCT dedup
/// sets). Keys are stored columnar: group g's key is row g of the
/// `keys()` columns, so finalization streams straight out of the table
/// and partial-table merges feed the stored columns back through
/// FindOrCreate without re-encoding anything.
///
/// Key equality is the aggregate grouping contract: NULL == NULL, -0.0
/// merges with +0.0, doubles otherwise compare by bit pattern (NaN
/// groups with bit-identical NaN). Callers must hash with the matching
/// convention: seed kHashTableSalt, then ColumnVector::HashBatch with
/// combine = true per key column.
class GroupKeyTable {
 public:
  /// Resolves rows [0, n) of `key_cols` to group ids, creating unseen
  /// groups in row order. `hashes[i]` is row i's combined salted hash;
  /// `gids[i]` receives the group id and `created[i]` is set to 1 when
  /// the row created its group (0 otherwise). Rows are probed column-at-
  /// a-time: candidates with matching hashes batch-verify against the
  /// stored key columns, and only 64-bit hash collisions fall back to
  /// the row-at-a-time path.
  void FindOrCreate(const std::vector<ColumnVector>& key_cols,
                    const uint64_t* hashes, size_t n, uint32_t* gids,
                    uint8_t* created, HashTableStats* stats);

  size_t group_count() const { return group_hashes_.size(); }
  const std::vector<ColumnVector>& keys() const { return keys_; }
  /// Stored per-group hashes — already salted+combined, so merges can
  /// pass them straight back into another table's FindOrCreate.
  const std::vector<uint64_t>& group_hashes() const { return group_hashes_; }
  size_t slot_count() const { return slots_.size(); }
  int64_t resizes() const { return resizes_; }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t gid1;  // group id + 1; 0 = empty
  };

  static constexpr size_t kInitialSlots = 256;     // power of two
  static constexpr size_t kLoadNum = 3, kLoadDen = 4;  // resize at 3/4 full

  uint32_t CreateGroup(const std::vector<ColumnVector>& key_cols, size_t row,
                       uint64_t h);
  void InsertSlot(uint64_t h, uint32_t gid1);
  void Resize(size_t new_slots);
  uint32_t SlowFindOrCreate(const std::vector<ColumnVector>& key_cols,
                            size_t row, uint64_t h, uint8_t* created,
                            HashTableStats* stats);
  bool RowMatchesGroup(const std::vector<ColumnVector>& key_cols, size_t row,
                       uint32_t gid) const;

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  std::vector<ColumnVector> keys_;  // typed lazily on first FindOrCreate
  std::vector<uint64_t> group_hashes_;
  // Slot directory + group-hash storage charge against the creating
  // query's MemoryTracker (the key columns charge through their Reps).
  MemoryCharge charge_;
  int64_t resizes_ = 0;
  // Deferred-verification scratch, reused across calls.
  std::vector<uint32_t> pend_rows_;
  std::vector<uint32_t> pend_gids_;
  std::vector<uint8_t> pend_equal_;
};

}  // namespace agora

#endif  // AGORA_EXEC_HASH_TABLE_H_
