#include "exec/hash_table.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace agora {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void BloomFilter::Build(const uint64_t* hashes, const uint8_t* valid,
                        size_t n) {
  words_.clear();
  word_mask_ = 0;
  size_t count = 0;
  for (size_t r = 0; r < n; ++r) count += valid[r];
  if (count == 0) return;
  // ~16 bits per key => count/4 64-bit words, rounded up to a power of two.
  size_t words = NextPow2(std::max<size_t>(1, (count + 3) / 4));
  words_.assign(words, 0);
  word_mask_ = words - 1;
  for (size_t r = 0; r < n; ++r) {
    if (valid[r] == 0) continue;
    uint64_t h = hashes[r];
    words_[(h >> 32) & word_mask_] |= BitMask(h);
  }
  charge_.Update(words_.capacity() * sizeof(uint64_t));
}

void JoinKeyFilter::Build(const std::vector<ColumnVector>& keys,
                          TypeId probe_type, const uint64_t* hashes,
                          const uint8_t* valid, size_t n) {
  const TypeId type = keys.size() == 1 ? keys[0].type() : TypeId::kInvalid;
  exact_ = (type == TypeId::kInt64 || type == TypeId::kDate) &&
           probe_type == type;
  std::vector<uint64_t>().swap(bits_);
  charge_.Update(0);
  bloom_ = BloomFilter();
  lo_ = 0;
  bits_count_ = 0;
  if (exact_) {
    const int64_t* x = keys[0].int64_data();
    size_t count = 0;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (size_t r = 0; r < n; ++r) {
      if (valid[r] == 0) continue;
      ++count;
      lo = std::min(lo, x[r]);
      hi = std::max(hi, x[r]);
    }
    if (count > 0) {
      // In uint64, so that INT64_MIN..INT64_MAX cannot overflow.
      const uint64_t span =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      exact_ = span < ExactBitBudget(count);
      if (exact_) {
        lo_ = static_cast<uint64_t>(lo);
        bits_count_ = span + 1;
      }
    }
  }
  if (!exact_) {
    bloom_.Build(hashes, valid, n);
    return;
  }
  bits_.assign(std::max<uint64_t>(1, (bits_count_ + 63) / 64), 0);
  const int64_t* x = keys[0].int64_data();
  for (size_t r = 0; r < n; ++r) {
    if (valid[r] == 0) continue;
    const uint64_t d = static_cast<uint64_t>(x[r]) - lo_;
    bits_[d >> 6] |= uint64_t{1} << (d & 63);
  }
  charge_.Update(bits_.capacity() * sizeof(uint64_t));
}

size_t JoinKeyFilter::Select(const std::vector<ColumnVector>& keys,
                             size_t base, const uint32_t* sel, size_t n,
                             uint32_t* out, int64_t* checked,
                             std::vector<uint64_t>* hashes) const {
  const bool hashed = hashes != nullptr && !hashes->empty();
  AGORA_DCHECK(!hashed || (hashes->size() == n && sel != nullptr));
  size_t kept = 0;
  int64_t tested = 0;
  if (exact_) {
    // Branch-free: most rows miss. NULL keys are not tested.
    const uint64_t lo = lo_;
    const uint64_t count = bits_count_;
    const uint64_t* bits = bits_.data();  // at least one word
    auto contains = [lo, count, bits](int64_t x) {
      const uint64_t d = static_cast<uint64_t>(x) - lo;
      const bool in = d < count;
      const uint64_t i = in ? d : 0;
      return static_cast<uint8_t>(in & ((bits[i >> 6] >> (i & 63)) & 1));
    };
    const int64_t* x = keys[0].int64_data();
    const uint8_t* valid = keys[0].validity_data();
    if (sel == nullptr) {
      x += base;
      valid += base;
      for (size_t i = 0; i < n; ++i) {
        out[kept] = static_cast<uint32_t>(base + i);
        tested += valid[i];
        kept += valid[i] & contains(x[i]);
      }
    } else {
      // Hashes that came with the rows move with them.
      uint64_t* hv = hashed ? hashes->data() : nullptr;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = sel[i];
        out[kept] = r;
        if (hv != nullptr) hv[kept] = hv[i];
        tested += valid[r];
        kept += valid[r] & contains(x[r]);
      }
    }
    if (hashed) {
      hashes->resize(kept);
    } else if (hashes != nullptr) {
      std::vector<uint8_t> kept_valid;
      HashJoinKeys(keys, out, kept, hashes, &kept_valid);
    }
  } else {
    if (sel == nullptr && base != 0) {
      std::iota(out, out + n, static_cast<uint32_t>(base));
      sel = out;
    }
    std::vector<uint64_t> scratch;
    std::vector<uint64_t>* h = hashes != nullptr ? hashes : &scratch;
    std::vector<uint8_t> valid;
    if (hashed) {
      valid.assign(n, 1);
    } else {
      HashJoinKeys(keys, sel, n, h, &valid);
    }
    uint64_t* hv = h->data();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t hash = hv[i];
      out[kept] = sel == nullptr ? static_cast<uint32_t>(i) : sel[i];
      hv[kept] = hash;
      tested += valid[i];
      kept += valid[i] & static_cast<uint8_t>(bloom_.MightContain(hash));
    }
    h->resize(kept);
  }
  *checked += tested;
  return kept;
}

Status JoinHashTable::Build(const uint64_t* hashes, const uint8_t* valid,
                            size_t rows, size_t num_partitions,
                            ThreadPool* pool) {
  AGORA_CHECK(num_partitions >= 1);
  arena_.Reset();
  partitions_.assign(num_partitions, Partition{});
  entries_ = 0;
  slot_count_ = 0;
  next_ = rows > 0 ? arena_.AllocateZeroedArray<uint32_t>(rows) : nullptr;

  // Histogram pass: partition populations size the slot directories.
  for (size_t r = 0; r < rows; ++r) {
    if (valid[r] != 0) partitions_[hashes[r] % num_partitions].count++;
  }
  for (Partition& part : partitions_) {
    if (part.count == 0) continue;
    size_t slots = NextPow2(std::max<size_t>(16, part.count * 2));
    part.slots = arena_.AllocateZeroedArray<Slot>(slots);
    part.mask = slots - 1;
    entries_ += static_cast<int64_t>(part.count);
    slot_count_ += static_cast<int64_t>(slots);
  }

  // Arena blocks (next + slot directories) charge themselves; the
  // partition directory is accounted here.
  charge_.Update(partitions_.capacity() * sizeof(Partition));

  // Fill pass: partition p is written only by task p, so the parallel
  // fills need no locks and produce the exact serial layout.
  if (num_partitions == 1 || pool == nullptr) {
    for (size_t p = 0; p < num_partitions; ++p) {
      FillPartition(p, hashes, valid, rows);
    }
    return Status::OK();
  }
  TaskGroup group(pool);
  for (size_t p = 0; p < num_partitions; ++p) {
    group.Spawn([this, p, hashes, valid, rows]() -> Status {
      FillPartition(p, hashes, valid, rows);
      return Status::OK();
    });
  }
  return group.Wait();
}

void HashJoinKeys(const std::vector<ColumnVector>& keys, const uint32_t* sel,
                  size_t n, std::vector<uint64_t>* hashes,
                  std::vector<uint8_t>* valid) {
  hashes->assign(n, kHashTableSalt);
  valid->assign(n, 1);
  uint8_t* v = valid->data();
  for (const ColumnVector& key : keys) {
    key.HashBatch(hashes->data(), n, /*combine=*/true, sel);
    if (n == 0) continue;
    const uint8_t* key_valid = key.validity_data();
    if (sel == nullptr) {
      for (size_t i = 0; i < n; ++i) v[i] &= key_valid[i];
    } else {
      for (size_t i = 0; i < n; ++i) v[i] &= key_valid[sel[i]];
    }
  }
}

void JoinHashTable::FillPartition(size_t p, const uint64_t* hashes,
                                  const uint8_t* valid, size_t rows) {
  Partition& part = partitions_[p];
  if (part.slots == nullptr) return;
  const size_t num_partitions = partitions_.size();
  // Descending row order: each insert pushes to the chain head, so the
  // finished chains run in ascending row order (smallest row id first) —
  // the iteration order probers must observe for deterministic output.
  for (size_t r = rows; r-- > 0;) {
    uint64_t h = hashes[r];
    if (valid[r] == 0 || h % num_partitions != p) continue;
    uint64_t pos = (h >> 16) & part.mask;
    for (;;) {
      Slot& s = part.slots[pos];
      if (s.head == 0) {
        s.hash = h;
        s.head = static_cast<uint32_t>(r) + 1;
        break;  // next_[r] is already 0 (chain end)
      }
      if (s.hash == h) {
        next_[r] = s.head;
        s.head = static_cast<uint32_t>(r) + 1;
        break;
      }
      pos = (pos + 1) & part.mask;
    }
  }
}

void GroupKeyTable::FindOrCreate(const std::vector<ColumnVector>& key_cols,
                                 const uint64_t* hashes, size_t n,
                                 uint32_t* gids, uint8_t* created,
                                 HashTableStats* stats) {
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
  }
  if (keys_.empty() && !key_cols.empty()) {
    keys_.reserve(key_cols.size());
    for (const ColumnVector& col : key_cols) keys_.emplace_back(col.type());
  }
  pend_rows_.clear();
  pend_gids_.clear();
  stats->lookups += static_cast<int64_t>(n);

  // Pass 1: probe every row. An empty slot creates the group immediately
  // (no verification needed — the probe walked past every same-hash
  // candidate); a hash-matching slot defers to the batch verifier.
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = hashes[i];
    uint64_t pos = (h >> 16) & mask_;
    for (;;) {
      stats->probe_steps++;
      const Slot& s = slots_[pos];
      if (s.gid1 == 0) {
        gids[i] = CreateGroup(key_cols, i, h);
        created[i] = 1;
        break;
      }
      if (s.hash == h) {
        pend_rows_.push_back(static_cast<uint32_t>(i));
        pend_gids_.push_back(s.gid1 - 1);
        break;
      }
      pos = (pos + 1) & mask_;
    }
  }

  charge_.Update(slots_.capacity() * sizeof(Slot) +
                 group_hashes_.capacity() * sizeof(uint64_t));

  // Pass 2: verify all deferred candidates column-at-a-time against the
  // stored keys. With zero key columns every candidate trivially matches
  // (the scalar-aggregate single group).
  size_t m = pend_rows_.size();
  if (m == 0) return;
  pend_equal_.assign(m, 1);
  for (size_t k = 0; k < key_cols.size(); ++k) {
    key_cols[k].BatchEqualRows(pend_rows_.data(), keys_[k],
                               pend_gids_.data(), m,
                               /*bitwise_doubles=*/true, pend_equal_.data());
  }

  // Pass 3: resolve. Verification failures are genuine 64-bit hash
  // collisions — vanishingly rare — and re-probe row-at-a-time.
  for (size_t j = 0; j < m; ++j) {
    uint32_t i = pend_rows_[j];
    if (pend_equal_[j] != 0) {
      gids[i] = pend_gids_[j];
      created[i] = 0;
    } else {
      gids[i] = SlowFindOrCreate(key_cols, i, hashes[i], &created[i], stats);
    }
  }
  charge_.Update(slots_.capacity() * sizeof(Slot) +
                 group_hashes_.capacity() * sizeof(uint64_t));
}

uint32_t GroupKeyTable::CreateGroup(const std::vector<ColumnVector>& key_cols,
                                    size_t row, uint64_t h) {
  if ((group_hashes_.size() + 1) * kLoadDen > slots_.size() * kLoadNum) {
    Resize(slots_.size() * 2);
  }
  uint32_t gid = static_cast<uint32_t>(group_hashes_.size());
  group_hashes_.push_back(h);
  for (size_t k = 0; k < key_cols.size(); ++k) {
    keys_[k].AppendFrom(key_cols[k], row);
  }
  InsertSlot(h, gid + 1);
  return gid;
}

void GroupKeyTable::InsertSlot(uint64_t h, uint32_t gid1) {
  uint64_t pos = (h >> 16) & mask_;
  // Claim the first empty slot: distinct groups may share a hash, so
  // hash-equal occupied slots are skipped, never merged.
  while (slots_[pos].gid1 != 0) pos = (pos + 1) & mask_;
  slots_[pos] = Slot{h, gid1};
}

void GroupKeyTable::Resize(size_t new_slots) {
  slots_.assign(new_slots, Slot{});
  mask_ = new_slots - 1;
  resizes_++;
  for (size_t g = 0; g < group_hashes_.size(); ++g) {
    InsertSlot(group_hashes_[g], static_cast<uint32_t>(g) + 1);
  }
}

uint32_t GroupKeyTable::SlowFindOrCreate(
    const std::vector<ColumnVector>& key_cols, size_t row, uint64_t h,
    uint8_t* created, HashTableStats* stats) {
  uint64_t pos = (h >> 16) & mask_;
  for (;;) {
    stats->probe_steps++;
    const Slot& s = slots_[pos];
    if (s.gid1 == 0) {
      *created = 1;
      return CreateGroup(key_cols, row, h);
    }
    if (s.hash == h && RowMatchesGroup(key_cols, row, s.gid1 - 1)) {
      *created = 0;
      return s.gid1 - 1;
    }
    pos = (pos + 1) & mask_;
  }
}

bool GroupKeyTable::RowMatchesGroup(const std::vector<ColumnVector>& key_cols,
                                    size_t row, uint32_t gid) const {
  uint32_t r32 = static_cast<uint32_t>(row);
  for (size_t k = 0; k < key_cols.size(); ++k) {
    uint8_t equal = 1;
    key_cols[k].BatchEqualRows(&r32, keys_[k], &gid, 1,
                               /*bitwise_doubles=*/true, &equal);
    if (equal == 0) return false;
  }
  return true;
}

}  // namespace agora
