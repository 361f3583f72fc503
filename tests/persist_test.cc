// Persistent cache tier (persist/persistent_store.h): unit round-trips,
// crash recovery, and the restart acceptance properties.
//
// Three layers of coverage:
//   1. Store unit tests — entry round-trips across reopen, replace/dedup,
//      erase, compaction, and every open-time recovery path driven by
//      EXTERNAL damage (torn manifest tails, corrupt/missing blobs, orphan
//      blobs, crashed tmp files) — these run in every build, no failpoints
//      needed.
//   2. Warm-restart equivalence — a fresh engine over a reopened store must
//      serve the fault-free cold reference exactly, and its
//      reloaded-then-extended partitions must be BITWISE identical to a
//      cold chain replay over the full relation.
//   3. The crash-recovery soak (needs -DAJD_ENABLE_FAILPOINTS=ON) —
//      randomized kill-at-offset during persistence writes via the
//      torn-write simulator (persist_internal), then a clean reopen: no
//      abort, damage only ever DROPS entries, and every subsequently
//      served entropy equals the cold reference.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/column_store.h"
#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "engine/worker_pool.h"
#include "info/entropy.h"
#include "persist/persistent_store.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace ajd {
namespace {

namespace fs = std::filesystem;

/// A per-test store directory under the system temp dir, removed on exit.
struct TempDir {
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("ajd_persist_test_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            std::to_string(counter++));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  fs::path path;
};

std::shared_ptr<PersistentCacheStore> MustOpen(const std::string& dir) {
  auto opened = PersistentCacheStore::Open(dir);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.value();
}

PersistedEntryMeta ValueEntry(uint64_t fp, uint64_t mask, uint64_t rows,
                              double h) {
  PersistedEntryMeta m;
  m.fingerprint = fp;
  m.attrs = AttrSet::FromMask(mask);
  m.rows = rows;
  m.has_entropy = true;
  m.entropy = h;
  return m;
}

/// A syntactically valid stripped payload: `blocks` blocks of `width`
/// ascending row ids each (FromStripped would accept it, but the store
/// itself only checks bytes).
PartitionPayload SmallPayload(uint32_t blocks, uint32_t width) {
  PartitionPayload p;
  p.offsets.push_back(0);
  uint32_t next = 0;
  for (uint32_t b = 0; b < blocks; ++b) {
    for (uint32_t k = 0; k < width; ++k) p.rows.push_back(next++);
    p.offsets.push_back(static_cast<uint32_t>(p.rows.size()));
  }
  return p;
}

// ---------------------------------------------------------------------------
// 1. Store unit tests — external damage only, every build.
// ---------------------------------------------------------------------------

TEST(PersistStore, RoundTripsEntriesAcrossReopen) {
  TempDir dir;
  PersistedEntryMeta value = ValueEntry(0xABCD, 0x3, 100, 1.25);
  PersistedEntryMeta full = ValueEntry(0xABCD, 0x7, 100, 2.5);
  full.chain = {0, 2, 1};
  full.last_col_card = 4;
  const PartitionPayload payload = SmallPayload(3, 4);
  {
    auto store = MustOpen(dir.str());
    ASSERT_TRUE(store->Put(value, nullptr).ok());
    ASSERT_TRUE(store->Put(full, &payload).ok());
    EXPECT_EQ(store->NumEntries(), 2u);
  }  // close
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 2u);
  PersistedEntryMeta got;
  ASSERT_TRUE(store->LookupExact(0xABCD, AttrSet::FromMask(0x3), 100, &got));
  EXPECT_TRUE(got.has_entropy);
  EXPECT_FALSE(got.has_payload);
  EXPECT_DOUBLE_EQ(got.entropy, 1.25);
  ASSERT_TRUE(store->LookupExact(0xABCD, AttrSet::FromMask(0x7), 100, &got));
  EXPECT_EQ(got.chain, full.chain);
  EXPECT_EQ(got.last_col_card, 4u);
  ASSERT_TRUE(got.has_payload);
  Result<PartitionPayload> loaded = store->LoadPayload(got);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows, payload.rows);
  EXPECT_EQ(loaded.value().offsets, payload.offsets);
  // A different row count is a different key: prefixes never alias.
  EXPECT_FALSE(store->LookupExact(0xABCD, AttrSet::FromMask(0x3), 101, &got));
}

TEST(PersistStore, PutReplacesAndDedupsIdenticalEntries) {
  TempDir dir;
  auto store = MustOpen(dir.str());
  PersistedEntryMeta m = ValueEntry(1, 0x1, 10, 0.5);
  ASSERT_TRUE(store->Put(m, nullptr).ok());
  // Identical content again: a counted no-op, no journal churn.
  ASSERT_TRUE(store->Put(m, nullptr).ok());
  EXPECT_EQ(store->Stats().dedup_puts, 1u);
  EXPECT_EQ(store->NumEntries(), 1u);
  // Strictly more information under the same key replaces the entry.
  PersistedEntryMeta richer = m;
  richer.chain = {0};
  richer.last_col_card = 2;
  const PartitionPayload payload = SmallPayload(2, 2);
  ASSERT_TRUE(store->Put(richer, &payload).ok());
  EXPECT_EQ(store->NumEntries(), 1u);
  PersistedEntryMeta got;
  ASSERT_TRUE(store->LookupExact(1, AttrSet::FromMask(0x1), 10, &got));
  EXPECT_TRUE(got.has_payload);
  EXPECT_TRUE(got.has_entropy);
}

TEST(PersistStore, EraseRemovesEntryAndBlobDurably) {
  TempDir dir;
  const PartitionPayload payload = SmallPayload(2, 3);
  {
    auto store = MustOpen(dir.str());
    PersistedEntryMeta m = ValueEntry(7, 0x5, 50, 3.0);
    ASSERT_TRUE(store->Put(m, &payload).ok());
    PersistedEntryMeta got;
    ASSERT_TRUE(store->LookupExact(7, AttrSet::FromMask(0x5), 50, &got));
    ASSERT_TRUE(store->Erase(7, AttrSet::FromMask(0x5), 50).ok());
    EXPECT_FALSE(store->LookupExact(7, AttrSet::FromMask(0x5), 50, &got));
    // Erasing an absent entry is OK (idempotent).
    EXPECT_TRUE(store->Erase(7, AttrSet::FromMask(0x5), 50).ok());
  }
  // The erase record survives the reopen; no blob file lingers.
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_TRUE(fs::is_empty(fs::path(dir.str()) / "blobs"));
}

TEST(PersistStore, TornManifestTailIsTruncatedAtOpen) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(store->Put(ValueEntry(k, 0x1, 10, 1.0 + k), nullptr).ok());
    }
  }
  // A crash mid-append leaves a partial record at the tail. Simulate the
  // torn bytes externally: garbage after the last intact record.
  {
    std::ofstream m(fs::path(dir.str()) / "MANIFEST",
                    std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x12, 0x34};
    m.write(torn, sizeof(torn));
  }
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 3u);  // every record before the tear replays
  EXPECT_EQ(store->Stats().torn_tail_events, 1u);
  EXPECT_GT(store->Stats().torn_tail_bytes, 0u);
  // The truncation repaired the journal in place: appends work again and
  // survive the next reopen.
  ASSERT_TRUE(store->Put(ValueEntry(9, 0x1, 10, 9.0), nullptr).ok());
  store.reset();
  EXPECT_EQ(MustOpen(dir.str())->NumEntries(), 4u);
}

TEST(PersistStore, ExternallyTruncatedManifestDropsOnlyTheTail) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(store->Put(ValueEntry(k, 0x1, 10, 1.0 + k), nullptr).ok());
    }
  }
  // Chop a few bytes off the last record (kill -9 mid-write never got them
  // to disk).
  const fs::path manifest = fs::path(dir.str()) / "MANIFEST";
  fs::resize_file(manifest, fs::file_size(manifest) - 3);
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 2u);
  EXPECT_EQ(store->Stats().torn_tail_events, 1u);
  PersistedEntryMeta got;
  EXPECT_TRUE(store->LookupExact(0, AttrSet::FromMask(0x1), 10, &got));
  EXPECT_TRUE(store->LookupExact(1, AttrSet::FromMask(0x1), 10, &got));
  EXPECT_FALSE(store->LookupExact(2, AttrSet::FromMask(0x1), 10, &got));
}

TEST(PersistStore, CorruptBlobQuarantinesAndDropsTheEntry) {
  TempDir dir;
  auto store = MustOpen(dir.str());
  PersistedEntryMeta m = ValueEntry(11, 0x3, 20, 1.0);
  const PartitionPayload payload = SmallPayload(4, 8);
  ASSERT_TRUE(store->Put(m, &payload).ok());
  PersistedEntryMeta got;
  ASSERT_TRUE(store->LookupExact(11, AttrSet::FromMask(0x3), 20, &got));

  // Flip one byte in the middle of the blob body.
  const fs::path blob =
      fs::path(dir.str()) / "blobs" / ("b" + std::to_string(got.blob_id) + ".blob");
  ASSERT_TRUE(fs::exists(blob));
  {
    std::fstream f(blob, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(blob) / 2));
    const char x = 0x5A;
    f.write(&x, 1);
  }

  Result<PartitionPayload> loaded = store->LoadPayload(got);
  EXPECT_FALSE(loaded.ok());  // CRC caught it
  EXPECT_EQ(store->Stats().quarantined_blobs, 1u);
  EXPECT_FALSE(fs::exists(blob));
  EXPECT_TRUE(fs::exists(blob.string() + ".quarantined"));
  // The entry is gone — the next probe computes cold instead of looping on
  // the same bad blob.
  EXPECT_FALSE(store->LookupExact(11, AttrSet::FromMask(0x3), 20, &got));
  // And durably gone: the quarantine journal record survives reopen.
  store.reset();
  EXPECT_EQ(MustOpen(dir.str())->NumEntries(), 0u);
}

TEST(PersistStore, OpenRecoversMissingBlobsOrphansAndTmpFiles) {
  TempDir dir;
  uint64_t blob_id = 0;
  {
    auto store = MustOpen(dir.str());
    PersistedEntryMeta m = ValueEntry(21, 0x1, 30, 2.0);
    const PartitionPayload payload = SmallPayload(2, 2);
    ASSERT_TRUE(store->Put(m, &payload).ok());
    PersistedEntryMeta got;
    ASSERT_TRUE(store->LookupExact(21, AttrSet::FromMask(0x1), 30, &got));
    blob_id = got.blob_id;
  }
  const fs::path blobs = fs::path(dir.str()) / "blobs";
  // The referenced blob vanishes; an unreferenced one and a crashed tmp
  // appear (a crash between blob write and manifest append leaves exactly
  // such debris).
  fs::remove(blobs / ("b" + std::to_string(blob_id) + ".blob"));
  { std::ofstream(blobs / "b999.blob") << "orphan"; }
  { std::ofstream(blobs / "b1000.blob.tmp") << "crashed"; }

  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_EQ(store->Stats().missing_blob_entries_dropped, 1u);
  EXPECT_GE(store->Stats().orphan_blobs_removed, 1u);
  EXPECT_GE(store->Stats().tmp_files_removed, 1u);
  EXPECT_FALSE(fs::exists(blobs / "b999.blob"));
  EXPECT_FALSE(fs::exists(blobs / "b1000.blob.tmp"));
}

TEST(PersistStore, CompactRewritesJournalToLiveEntries) {
  TempDir dir;
  auto store = MustOpen(dir.str());
  // Churn: each entry erased and re-put repeatedly (the key pins the
  // value — identical re-puts alone would dedup without journal growth),
  // then half erased for good. The journal records all of it.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 0; k < 8; ++k) {
      if (round > 0) {
        ASSERT_TRUE(store->Erase(k, AttrSet::FromMask(0x1), 10).ok());
      }
      ASSERT_TRUE(store->Put(ValueEntry(k, 0x1, 10, 0.5 * k), nullptr).ok());
    }
  }
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(store->Erase(k, AttrSet::FromMask(0x1), 10).ok());
  }
  const fs::path manifest = fs::path(dir.str()) / "MANIFEST";
  const uintmax_t before = fs::file_size(manifest);
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(fs::file_size(manifest), before);
  EXPECT_EQ(store->Stats().compactions, 1u);
  EXPECT_EQ(store->NumEntries(), 4u);
  // The compacted journal replays to the same live set.
  store.reset();
  store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 4u);
  PersistedEntryMeta got;
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(store->LookupExact(k, AttrSet::FromMask(0x1), 10, &got), k >= 4);
    if (k >= 4) {
      EXPECT_DOUBLE_EQ(got.entropy, 0.5 * k);
    }
  }
}

// Blob reads and writes run outside the store's mutex. Four threads put,
// load and erase overlapping keys while a fifth compacts: every load must
// return the exact bytes its key was written with (or NotFound when it
// lost a race to an erase), nothing may be quarantined, and the reopened
// store must find exactly the blobs its journal references.
TEST(PersistStore, ConcurrentPutLoadEraseCompact) {
  constexpr uint64_t kKeys = 6;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  // A key's payload is a function of the key alone, so any load can be
  // checked byte for byte whichever put it observes.
  const auto payload_of = [](uint64_t k) {
    return SmallPayload(static_cast<uint32_t>(2 + k), 3);
  };
  TempDir dir;
  PersistOptions options;
  options.fsync_writes = false;
  {
    auto opened = PersistentCacheStore::Open(dir.str(), options);
    ASSERT_TRUE(opened.ok());
    std::shared_ptr<PersistentCacheStore> store = opened.value();
    std::atomic<int> running{kThreads};
    std::atomic<uint64_t> loads_ok{0};
    std::atomic<uint64_t> bad_loads{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(4100 + static_cast<uint64_t>(t));
        for (int op = 0; op < kOpsPerThread; ++op) {
          const uint64_t k = rng.UniformU64(kKeys);
          const AttrSet attrs = AttrSet::FromMask(0x3);
          switch (rng.UniformU64(3)) {
            case 0: {
              // Alternating chains defeat the dedupe, so puts really
              // replace resident entries (and unlink their blobs).
              PersistedEntryMeta m = ValueEntry(k, 0x3, 10, 1.0);
              m.chain = rng.Bernoulli(0.5) ? std::vector<uint32_t>{0, 1}
                                           : std::vector<uint32_t>{1, 0};
              const PartitionPayload payload = payload_of(k);
              EXPECT_TRUE(store->Put(m, &payload).ok());
              break;
            }
            case 1: {
              PersistedEntryMeta got;
              if (!store->LookupExact(k, attrs, 10, &got)) break;
              Result<PartitionPayload> loaded = store->LoadPayload(got);
              if (loaded.ok()) {
                const PartitionPayload want = payload_of(k);
                if (loaded.value().rows != want.rows ||
                    loaded.value().offsets != want.offsets) {
                  ++bad_loads;
                }
                ++loads_ok;
              } else if (loaded.status().code() != StatusCode::kNotFound) {
                ++bad_loads;
              }
              break;
            }
            default:
              EXPECT_TRUE(store->Erase(k, attrs, 10).ok());
          }
        }
        --running;
      });
    }
    uint64_t compactions = 0;
    while (running.load() > 0) {
      EXPECT_TRUE(store->Compact().ok());
      ++compactions;
    }
    for (std::thread& th : threads) th.join();
    EXPECT_GT(compactions, 0u);
    EXPECT_GT(loads_ok.load(), 0u);
    EXPECT_EQ(bad_loads.load(), 0u);
    const PersistStats stats = store->Stats();
    EXPECT_EQ(stats.quarantined_blobs, 0u);
    EXPECT_EQ(stats.put_failures, 0u);
  }
  auto reopened = PersistentCacheStore::Open(dir.str(), options);
  ASSERT_TRUE(reopened.ok());
  std::shared_ptr<PersistentCacheStore> store = reopened.value();
  EXPECT_EQ(store->Stats().orphan_blobs_removed, 0u);
  EXPECT_EQ(store->Stats().missing_blob_entries_dropped, 0u);
  EXPECT_EQ(store->Stats().tmp_files_removed, 0u);
  for (const PersistedEntryMeta& e : store->AllEntries()) {
    ASSERT_TRUE(e.has_payload);
    Result<PartitionPayload> loaded = store->LoadPayload(e);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const PartitionPayload want = payload_of(e.fingerprint);
    EXPECT_EQ(loaded.value().rows, want.rows);
    EXPECT_EQ(loaded.value().offsets, want.offsets);
  }
}

// ---------------------------------------------------------------------------
// 2. Warm-restart equivalence — every build.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint32_t>> RandomCodeRows(Rng* rng, uint32_t attrs,
                                                  uint32_t domain,
                                                  uint32_t count) {
  std::vector<std::vector<uint32_t>> rows(count,
                                          std::vector<uint32_t>(attrs));
  for (auto& row : rows) {
    for (uint32_t a = 0; a < attrs; ++a) {
      row[a] = static_cast<uint32_t>(rng->UniformU64(domain));
    }
  }
  return rows;
}

Relation RelationOver(const std::vector<std::vector<uint32_t>>& rows,
                      uint32_t attrs) {
  std::vector<std::string> names;
  for (uint32_t a = 0; a < attrs; ++a) names.push_back("a" + std::to_string(a));
  Result<Relation> r =
      Relation::FromRows(Schema::MakeUniform(names, 0).value(), rows, false);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

std::vector<AttrSet> AllNonEmptySubsets(uint32_t attrs) {
  std::vector<AttrSet> sets;
  for (uint64_t mask = 1; mask < (uint64_t{1} << attrs); ++mask) {
    sets.push_back(AttrSet::FromMask(mask));
  }
  return sets;
}

/// Every partition `engine` holds must equal the cold replay of its
/// recorded chain over all of `r` — same stripped rows, same block
/// boundaries, same entropy — and every served value must equal EntropyOf
/// bit for bit. `*checked` receives the number of partitions compared.
void CheckColdBitwise(EntropyEngine* engine, const Relation& r,
                      const std::vector<AttrSet>& sets, uint64_t* checked) {
  ColumnStore cold(&r);
  *checked = 0;
  for (AttrSet s : sets) {
    std::vector<uint32_t> chain;
    std::shared_ptr<const Partition> cached;
    if (!engine->CachedPartitionInfo(s, &chain, &cached)) continue;
    ASSERT_EQ(chain.size(), s.Count());
    Partition replay = Partition::OfColumn(cold.column(chain[0]));
    for (size_t j = 1; j < chain.size(); ++j) {
      replay = replay.RefinedBy(cold.column(chain[j]));
    }
    std::vector<uint32_t> cached_rows, cached_offsets;
    std::vector<uint32_t> replay_rows, replay_offsets;
    cached->FlattenStripped(&cached_rows, &cached_offsets);
    replay.FlattenStripped(&replay_rows, &replay_offsets);
    EXPECT_EQ(cached_rows, replay_rows) << "attrs=" << s.ToString();
    EXPECT_EQ(cached_offsets, replay_offsets) << "attrs=" << s.ToString();
    EXPECT_EQ(engine->Entropy(s), replay.EntropyNats(r.NumRows()))
        << "attrs=" << s.ToString();
    ++*checked;
  }
  for (AttrSet s : sets) {
    ASSERT_EQ(engine->Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32At(std::string* bytes, size_t pos, uint32_t v) {
  std::memcpy(&(*bytes)[pos], &v, sizeof(v));
}

/// One seeded mutation of a store file. Raw damage (bit flips, a
/// truncation, a splice of bytes from another store file) is what a torn
/// write or a bad disk does, and the journal and blob CRCs must catch it.
/// The re-framed kinds flip bytes INSIDE a checksummed region and then
/// fix the CRC up, so the record and payload decoders behind the CRCs see
/// garbage too. Returns true for raw damage.
bool MutateStoreFile(Rng* rng, std::string* bytes, const std::string& other,
                     bool is_manifest) {
  auto flip = [&](size_t lo) {
    if (bytes->size() <= lo) return;
    const int flips = 1 + static_cast<int>(rng->UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const size_t pos = lo + rng->UniformU64(bytes->size() - lo);
      (*bytes)[pos] = static_cast<char>(
          (*bytes)[pos] ^ static_cast<char>(1 + rng->UniformU64(255)));
    }
  };
  switch (rng->UniformU64(4)) {
    case 0:
      flip(0);
      return true;
    case 1:
      bytes->resize(rng->UniformU64(bytes->size() + 1));
      return true;
    case 2: {
      if (other.empty()) return true;
      const size_t from = rng->UniformU64(other.size());
      const size_t len = 1 + rng->UniformU64(other.size() - from);
      const size_t at = rng->UniformU64(bytes->size() + 1);
      if (rng->Bernoulli(0.5)) {
        bytes->insert(at, other, from, len);
      } else {
        bytes->replace(at, std::min(len, bytes->size() - at), other, from,
                       len);
      }
      return true;
    }
    default:
      break;
  }
  if (is_manifest) {
    // Records follow the 8-byte magic as [u32 len][u32 crc][payload].
    std::vector<size_t> records;
    for (size_t pos = 8; pos + 8 <= bytes->size();) {
      uint32_t len = 0;
      std::memcpy(&len, bytes->data() + pos, 4);
      if (len == 0 || pos + 8 + len > bytes->size()) break;
      records.push_back(pos);
      pos += 8 + len;
    }
    if (records.empty()) return false;
    const size_t pos = records[rng->UniformU64(records.size())];
    uint32_t len = 0;
    std::memcpy(&len, bytes->data() + pos, 4);
    std::string payload = bytes->substr(pos + 8, len);
    flip(0);  // stray damage elsewhere too, now and then
    payload[rng->UniformU64(len)] ^= static_cast<char>(1 + rng->UniformU64(255));
    bytes->replace(pos + 8, len, payload);
    PutU32At(bytes, pos + 4, Crc32c(payload.data(), payload.size()));
    return false;
  }
  // Blob: a 20-byte header (magic, version, u64 body length, u32 CRC),
  // then the CRC-covered body.
  constexpr size_t kHeader = 20;
  if (bytes->size() <= kHeader) return false;
  flip(kHeader);
  PutU32At(bytes, 16,
           Crc32c(bytes->data() + kHeader, bytes->size() - kHeader));
  return false;
}

// A seeded in-repo fuzz loop over the persist decoders. An engine writes a
// small valid store once; each round copies it, mutates one file, and
// drives the reading side: Open must succeed (damage is dropped, never
// fatal), every listed entry must load or fail as a Status (quarantined
// or dropped), Compact must succeed, and the compacted store must reopen
// with the same entries. A payload that loads through an intact CRC must
// rebuild through FromStripped; a re-framed one may fail there, but only
// with a Status.
TEST(PersistStore, MutatedStoresReopenLoadAndCompact) {
  constexpr uint32_t kAttrs = 4;
  constexpr int kRounds = 240;
  Rng rng(20261018);
  TempDir seed;
  {
    const Relation r = RelationOver(RandomCodeRows(&rng, kAttrs, 3, 60), kAttrs);
    EngineOptions opt;
    opt.num_threads = 1;
    opt.persist_store = MustOpen(seed.str());
    EntropyEngine engine(&r, opt);
    engine.PrewarmSubsets(AllNonEmptySubsets(kAttrs));
    ASSERT_TRUE(engine.PersistCache().ok());
  }
  std::vector<fs::path> files = {"MANIFEST"};
  for (const auto& e : fs::directory_iterator(seed.path / "blobs")) {
    files.push_back(fs::path("blobs") / e.path().filename());
  }
  ASSERT_GE(files.size(), 4u);
  PersistOptions fast;
  fast.fsync_writes = false;
  uint64_t loaded = 0;
  uint64_t rejected = 0;
  uint64_t invalid = 0;
  for (int round = 0; round < kRounds; ++round) {
    TempDir dir;
    fs::copy(seed.path, dir.path, fs::copy_options::recursive);
    const fs::path& target = files[rng.UniformU64(files.size())];
    const fs::path& donor = files[rng.UniformU64(files.size())];
    std::string bytes = ReadBytes(dir.path / target);
    const bool raw = MutateStoreFile(&rng, &bytes, ReadBytes(dir.path / donor),
                                     target == "MANIFEST");
    WriteBytes(dir.path / target, bytes);

    auto opened = PersistentCacheStore::Open(dir.str(), fast);
    ASSERT_TRUE(opened.ok()) << "round " << round << ": "
                             << opened.status().ToString();
    std::shared_ptr<PersistentCacheStore> store = opened.value();
    for (const PersistedEntryMeta& e : store->AllEntries()) {
      if (!e.has_payload) continue;
      Result<PartitionPayload> payload = store->LoadPayload(e);
      if (!payload.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      Result<Partition> p = Partition::FromStripped(
          std::move(payload.value().rows), std::move(payload.value().offsets),
          e.rows);
      if (raw) {
        EXPECT_TRUE(p.ok()) << "round " << round << " " << target << ": "
                            << p.status().ToString();
      }
      if (!p.ok()) ++invalid;
    }
    ASSERT_TRUE(store->Compact().ok()) << "round " << round;
    const size_t live = store->NumEntries();
    store.reset();
    auto reopened = PersistentCacheStore::Open(dir.str(), fast);
    ASSERT_TRUE(reopened.ok()) << "round " << round;
    EXPECT_EQ(reopened.value()->NumEntries(), live) << "round " << round;
    EXPECT_EQ(reopened.value()->Stats().torn_tail_events, 0u)
        << "round " << round;
  }
  // The loop reached both sides of the blob CRC, and garbage behind it
  // reached FromStripped.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(invalid, 0u);
}

TEST(PersistEngine, WarmRestartServesColdAnswersWithBitwisePartitions) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(20260808);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 90);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 20);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 20,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  // Seed process: serve everything at N0, persist, exit.
  {
    Relation seed = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    (void)engine.BatchEntropy(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }

  // Restarted process: a FRESH relation of the same content, reopened
  // store. The constructor warm-starts from disk.
  Relation r = RelationOver(base_rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  EXPECT_GT(engine.Stats().persist_reloads, 0u);

  // Sweep at N0: pure disk serves, exact to the cold reference.
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s))
        << "attrs=" << s.ToString();
  }

  // Grow the relation; catch-up delta-extends the reloaded partitions.
  ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s))
        << "attrs=" << s.ToString();
  }
  EXPECT_GT(engine.Stats().partitions_extended, 0u);

  // Bitwise acceptance: every reloaded-then-extended partition must equal
  // the cold replay of its recorded chain over the FULL relation.
  uint64_t checked = 0;
  ASSERT_NO_FATAL_FAILURE(CheckColdBitwise(&engine, r, sets, &checked));
  EXPECT_GT(checked, 0u);
}

// A store persisted at N0 and reopened over N0 + delta rows (a process
// that crashed mid-stream, or one that appended before attaching): warm
// start reloads the N0 partitions and delta-extends them to the current
// row count itself, level by level, before the first query.
TEST(PersistEngine, WarmStartAtOlderPrefixExtendsBitwise) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(20261017);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 120);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 24);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 24,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  {
    Relation seed = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    engine.PrewarmSubsets(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }

  Relation r = RelationOver(base_rows, kAttrs);
  ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  const EngineStats warm = engine.Stats();
  EXPECT_GT(warm.persist_reloads, 0u);
  EXPECT_GT(warm.persist_extended, 0u);
  EXPECT_EQ(warm.persist_fallbacks, 0u);
  uint64_t checked = 0;
  ASSERT_NO_FATAL_FAILURE(CheckColdBitwise(&engine, r, sets, &checked));
  EXPECT_GT(checked, 0u);
}

// PersistCache at a newer row count supersedes the generation this engine
// reloaded: the old-row keys are erased, so the store holds one generation
// and the next restart reloads it without extending anything.
TEST(PersistEngine, PersistCacheSupersedesReloadedGeneration) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(314159);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 100);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 20);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 20,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);
  const uint64_t n0 = base_rows.size();
  const uint64_t n1 = all_rows.size();

  TempDir dir;
  {
    Relation seed = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    engine.PrewarmSubsets(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }
  {
    Relation r = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&r, opt);
    ASSERT_GT(engine.Stats().persist_reloads, 0u);
    ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
    for (AttrSet s : sets) {
      ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
    }
    // Catch-up extended the reloaded partitions without writing to disk.
    for (const PersistedEntryMeta& e : opt.persist_store->AllEntries()) {
      EXPECT_EQ(e.rows, n0);
    }
    ASSERT_TRUE(engine.PersistCache().ok());
    uint64_t current = 0;
    for (const PersistedEntryMeta& e : opt.persist_store->AllEntries()) {
      EXPECT_EQ(e.rows, n1) << "attrs=" << e.attrs.ToString();
      ++current;
    }
    EXPECT_GT(current, 0u);
  }
  Relation r = RelationOver(all_rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  const EngineStats warm = engine.Stats();
  EXPECT_GT(warm.persist_reloads, 0u);
  EXPECT_EQ(warm.persist_extended, 0u);
  EXPECT_EQ(warm.persist_fallbacks, 0u);
  uint64_t checked = 0;
  ASSERT_NO_FATAL_FAILURE(CheckColdBitwise(&engine, r, sets, &checked));
  EXPECT_GT(checked, 0u);
}

// The disk tier's bulk paths — PersistCache's puts, warm start's loads and
// its level-by-level extension — fan out through the engine's work gate:
// at num_threads = 1 they never reach the pool, above it a relation large
// enough to pay for workers spawns them, and the reloaded cache is the
// same bitwise either way.
TEST(PersistEngine, BulkPathsFanOutOnlyAsThreadsAllow) {
  constexpr uint32_t kAttrs = 5;
  Rng rng(27182818);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 4, 40000);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 800);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 800,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  PersistOptions popt;
  popt.fsync_writes = false;
  {
    Relation seed = RelationOver(base_rows, kAttrs);
    auto pool = std::make_shared<WorkerPool>();
    EngineOptions opt;
    opt.num_threads = 1;
    opt.worker_pool = pool;
    opt.persist_store = PersistentCacheStore::Open(dir.str(), popt).value();
    EntropyEngine engine(&seed, opt);
    engine.PrewarmSubsets(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
    EXPECT_EQ(pool->NumThreads(), 0u);
  }
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Relation r = RelationOver(base_rows, kAttrs);
    ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
    auto pool = std::make_shared<WorkerPool>();
    EngineOptions opt;
    opt.num_threads = threads;
    opt.worker_pool = pool;
    opt.persist_store = PersistentCacheStore::Open(dir.str(), popt).value();
    EntropyEngine engine(&r, opt);
    EXPECT_EQ(pool->NumThreads() > 0, threads > 1);
    const EngineStats warm = engine.Stats();
    EXPECT_EQ(warm.persist_reloads, sets.size());
    EXPECT_GT(warm.persist_extended, 0u);
    EXPECT_EQ(warm.persist_fallbacks, 0u);
    uint64_t checked = 0;
    ASSERT_NO_FATAL_FAILURE(CheckColdBitwise(&engine, r, sets, &checked));
    EXPECT_EQ(checked, sets.size());
  }
}

TEST(PersistEngine, ForeignStoreContentIsIgnoredNotTrusted) {
  constexpr uint32_t kAttrs = 3;
  Rng rng(42);
  const auto rows_a = RandomCodeRows(&rng, kAttrs, 3, 40);
  const auto rows_b = RandomCodeRows(&rng, kAttrs, 3, 40);
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  {
    Relation a = RelationOver(rows_a, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&a, opt);
    (void)engine.BatchEntropy(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }
  // A DIFFERENT relation attaches to the same store: the content
  // fingerprint key must wall off every foreign entry.
  Relation b = RelationOver(rows_b, kAttrs);
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&b, opt);
  EXPECT_EQ(engine.Stats().persist_reloads, 0u);
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(b, s))
        << "attrs=" << s.ToString();
  }
}

// A store written under the previous format (entropies summed in block
// emission order, manifest magic AJDCACH1) must not serve: its values can
// differ from fresh ones in the last bits. Open reads the old magic as a
// foreign journal and starts fresh, collecting the old blobs as orphans,
// and every value is then the cold engine's, bit for bit.
TEST(PersistEngine, PreviousFormatStoreOpensEmptyAndServesColdValues) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(20261017);
  const auto rows = RandomCodeRows(&rng, kAttrs, 3, 80);
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  {
    Relation seed = RelationOver(rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    (void)engine.BatchEntropy(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }
  const fs::path blobs = dir.path / "blobs";
  const auto count_blobs = [&blobs] {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(blobs)) {
      n += e.is_regular_file();
    }
    return n;
  };
  const size_t old_blobs = count_blobs();
  ASSERT_GT(old_blobs, 0u);
  {
    std::fstream manifest(dir.path / "MANIFEST",
                          std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(manifest.good());
    manifest.write("AJDCACH1", 8);
  }

  std::shared_ptr<PersistentCacheStore> store = MustOpen(dir.str());
  EXPECT_EQ(store->Stats().entries, 0u);
  EXPECT_EQ(store->Stats().orphan_blobs_removed, old_blobs);
  EXPECT_EQ(count_blobs(), 0u);

  Relation r = RelationOver(rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = store;
  EntropyEngine engine(&r, opt);
  EntropyEngine cold(&r);
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), cold.Entropy(s)) << "attrs=" << s.ToString();
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
  EXPECT_EQ(engine.Stats().persist_reloads, 0u);
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
  EXPECT_EQ(engine.Stats().persist_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// 3. Crash-recovery soak — randomized kill-at-offset, needs the failpoint
//    build (the torn-write knobs are dead otherwise).
// ---------------------------------------------------------------------------

#ifdef AJD_ENABLE_FAILPOINTS
constexpr bool kFailpointsCompiledIn = true;
#else
constexpr bool kFailpointsCompiledIn = false;
#endif

TEST(PersistCrashSoak, RandomizedKillAtOffsetAlwaysReopensClean) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built without -DAJD_ENABLE_FAILPOINTS=ON; the "
                    "torn-write crash simulator is compiled out";
  }
  constexpr uint32_t kAttrs = 4;
  constexpr int kIterations = 12;
  Rng rng(777);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 80);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 16);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 16,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  // Fault-free cold references, at N0 and at N0+delta.
  std::vector<double> ref_base, ref_full;
  {
    Relation base = RelationOver(base_rows, kAttrs);
    Relation full = RelationOver(all_rows, kAttrs);
    for (AttrSet s : sets) {
      ref_base.push_back(EntropyOf(base, s));
      ref_full.push_back(EntropyOf(full, s));
    }
  }

  const char* kWritePoints[] = {failpoints::kPersistManifestAppend,
                                failpoints::kPersistBlobWrite,
                                failpoints::kPersistCompactRename};
  FailpointRegistry& reg = FailpointRegistry::Instance();
  TempDir dir;
  uint64_t crashes_injected = 0;
  for (int it = 0; it < kIterations; ++it) {
    // --- "Process" 1: serve, then get killed at a random byte of a
    // random persistence write. Crash simulation leaves the files exactly
    // as the kill would; dropping the objects is the process exit.
    {
      auto opened = PersistentCacheStore::Open(dir.str());
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      Relation r = RelationOver(base_rows, kAttrs);
      EngineOptions opt;
      opt.persist_store = opened.value();
      EntropyEngine engine(&r, opt);
      (void)engine.BatchEntropy(sets);

      const char* point = kWritePoints[rng.UniformU64(3)];
      persist_internal::SetTornWriteBytes(rng.NextU64());
      persist_internal::SetCrashSimulation(true);
      reg.Arm(point,
              FailpointConfig::OneShot(/*after=*/rng.UniformU64(6)));
      (void)engine.PersistCache();  // may die mid-write: that's the point
      (void)opened.value()->Compact();
      crashes_injected += reg.Triggers(point);
      reg.DisarmAll();
      persist_internal::SetCrashSimulation(false);
      persist_internal::SetTornWriteBytes(0);
    }

    // --- "Process" 2: clean reopen over whatever the crash left. Open
    // must recover (never abort), and everything served afterwards must
    // equal the fault-free cold reference — at N0 from the (possibly
    // partial) persisted state, then at N0+delta through extension.
    {
      auto opened = PersistentCacheStore::Open(dir.str());
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      Relation r = RelationOver(base_rows, kAttrs);
      EngineOptions opt;
      opt.persist_store = opened.value();
      EntropyEngine engine(&r, opt);
      for (size_t k = 0; k < sets.size(); ++k) {
        ASSERT_EQ(engine.Entropy(sets[k]), ref_base[k])
            << "iteration " << it << " attrs=" << sets[k].ToString();
      }
      ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
      for (size_t k = 0; k < sets.size(); ++k) {
        ASSERT_EQ(engine.Entropy(sets[k]), ref_full[k])
            << "iteration " << it << " attrs=" << sets[k].ToString();
      }
    }
  }
  // The soak must have actually crashed writes, not just run clean.
  EXPECT_GT(crashes_injected, 0u);
}

}  // namespace
}  // namespace ajd
