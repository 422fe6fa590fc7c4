#ifndef AGORA_EXEC_HASH_TABLE_H_
#define AGORA_EXEC_HASH_TABLE_H_

#include <algorithm>
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
/// The words charge the creating query's MemoryTracker.
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

 private:
  static uint64_t BitMask(uint64_t h) {
    return (1ULL << (h & 63)) | (1ULL << ((h >> 6) & 63));
  }

  std::vector<uint64_t> words_;
  uint64_t word_mask_ = 0;
  MemoryCharge charge_;
};

/// The filter a hash join tests probe keys against before its table:
/// built once from the build side, immutable afterwards, so any number of
/// threads read it. Build picks one of two representations:
///  * an exact key bitmap over [lo, hi] of the build keys (bit k set when
///    lo + k is a build key), when the join has one key, BIGINT or DATE
///    on both sides, whose build keys span at most ExactBitBudget() values.
///    A probe row costs a subtraction and a bit test, and a key the build
///    side lacks never passes;
///  * otherwise a BloomFilter over the build rows' join hashes.
/// An empty build side keeps an empty filter of the chosen kind, which
/// rejects every row. See DESIGN.md, "Join filters".
class JoinKeyFilter {
 public:
  /// Key-bitmap budget: bits per non-NULL build key, and a floor every
  /// build side may use. Measured on one thread of a 4-core Xeon VM, 2^20
  /// random probe keys against 2^14..2^28 bits holding one key per 64
  /// bits (three runs): the bit test costs 0.27-0.36x the Bloom path's
  /// hash and word test per row up to 2^22 bits, 0.4-0.5x at 2^23-2^25
  /// and 0.57-0.73x at 2^26-2^28, so probing never favours the Bloom
  /// filter; the build does past 2^22 bits (1.1-1.6x the Bloom build,
  /// 2.3x once under load). So the budget bounds memory and build time:
  /// 64 bits a key is 4x the Bloom filter's 16, and the floor (128 KiB)
  /// lets a small build with spread keys use a bitmap that builds in
  /// under 0.1 ms.
  static constexpr uint64_t kExactBitsPerKey = 64;
  static constexpr uint64_t kExactMinBits = uint64_t{1} << 20;

  /// Most bits a key bitmap over `keys` non-NULL build keys may use.
  static uint64_t ExactBitBudget(size_t keys) {
    return std::max<uint64_t>(kExactBitsPerKey * keys, kExactMinBits);
  }

  /// Builds over build rows [0, n). `keys` are the build key columns,
  /// `probe_type` the type of the probe key paired with keys[0], and
  /// `hashes`/`valid` the rows' HashJoinKeys output (valid[r] == 0 marks
  /// a NULL key, which never matches).
  void Build(const std::vector<ColumnVector>& keys, TypeId probe_type,
             const uint64_t* hashes, const uint8_t* valid, size_t n);

  /// True when Build chose the key bitmap.
  bool exact() const { return exact_; }

  /// Writes to `out`, in order, the rows of `keys` whose key is non-NULL
  /// and may be on the build side, and returns how many. The rows tested
  /// are sel[0..n), or base .. base + n - 1 when `sel` is null (then the
  /// key bitmap reads the column contiguously); `out` may alias `sel`.
  /// Adds the number of non-NULL keys tested to *checked. With `hashes`
  /// non-null, also leaves there the join hashes of the kept rows; it
  /// arrives either empty or, from a caller that already hashed the
  /// rows, holding their n join hashes in order (then every row must
  /// have a non-NULL key, `sel` must be non-null, and nothing is hashed).
  size_t Select(const std::vector<ColumnVector>& keys, size_t base,
                const uint32_t* sel, size_t n, uint32_t* out,
                int64_t* checked, std::vector<uint64_t>* hashes) const;

 private:
  bool exact_ = false;
  uint64_t lo_ = 0;          // smallest build key, as uint64
  uint64_t bits_count_ = 0;  // hi - lo + 1; 0 for an empty build side
  std::vector<uint64_t> bits_;
  BloomFilter bloom_;
  MemoryCharge charge_;  // bits_
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
/// The join's filter (JoinKeyFilter) is built next to the table, not
/// inside it; PhysicalHashJoin keeps the two together in a JoinBuild.
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
  MemoryCharge charge_;  // partition directory
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
