// Persistent value journal (persist/persistent_store.h): unit round-trips,
// crash recovery, and the restart acceptance properties.
//
// Three layers of coverage:
//   1. Store unit tests — entry round-trips across reopen, replace/dedup,
//      erase, compaction, concurrent use, and every open-time recovery path
//      driven by EXTERNAL damage (torn or truncated manifest tails, crashed
//      compaction tmps, seeded journal mutations) — these run in every
//      build, no failpoints needed.
//   2. Warm-restart equivalence — a fresh engine over a reopened store
//      serves its persisted values bitwise without computing, serves no
//      value of a prefix its relation has grown past, supersedes that old
//      generation at the next PersistCache, and answers plain misses from
//      the journal once appends reach a persisted prefix.
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

#include "engine/entropy_engine.h"
#include "engine/partition.h"
#include "info/entropy.h"
#include "persist/persistent_store.h"
#include "random/rng.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
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
  m.entropy = h;
  return m;
}

// ---------------------------------------------------------------------------
// 1. Store unit tests — external damage only, every build.
// ---------------------------------------------------------------------------

TEST(PersistStore, RoundTripsEntriesAcrossReopen) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    ASSERT_TRUE(store
                    ->Put({ValueEntry(0xABCD, 0x3, 100, 1.25),
                           ValueEntry(0xABCD, 0x7, 100, 2.5)})
                    .ok());
    EXPECT_EQ(store->NumEntries(), 2u);
    EXPECT_EQ(store->Stats().puts, 2u);
  }  // close
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 2u);
  double h = 0.0;
  ASSERT_TRUE(store->LookupExact({0xABCD, AttrSet::FromMask(0x3), 100}, &h));
  EXPECT_EQ(h, 1.25);
  ASSERT_TRUE(store->LookupExact({0xABCD, AttrSet::FromMask(0x7), 100}, &h));
  EXPECT_EQ(h, 2.5);
  // A different row count is a different key: prefixes never alias.
  EXPECT_FALSE(store->LookupExact({0xABCD, AttrSet::FromMask(0x3), 101}, &h));
  // The journal is the whole store.
  size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().filename(), "MANIFEST");
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(PersistStore, PutReplacesAndDedupsIdenticalEntries) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    const PersistedEntryMeta m = ValueEntry(1, 0x1, 10, 0.5);
    ASSERT_TRUE(store->Put({m}).ok());
    // Identical value again: a counted no-op, no journal churn.
    const uintmax_t size = fs::file_size(dir.path / "MANIFEST");
    ASSERT_TRUE(store->Put({m}).ok());
    EXPECT_EQ(store->Stats().dedup_puts, 1u);
    EXPECT_EQ(fs::file_size(dir.path / "MANIFEST"), size);
    // A different value under the same key replaces the entry.
    ASSERT_TRUE(store->Put({ValueEntry(1, 0x1, 10, 0.75)}).ok());
    EXPECT_EQ(store->NumEntries(), 1u);
    double h = 0.0;
    ASSERT_TRUE(store->LookupExact({1, AttrSet::FromMask(0x1), 10}, &h));
    EXPECT_EQ(h, 0.75);
  }
  // Replay agrees: the last record of a key wins.
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 1u);
  double h = 0.0;
  ASSERT_TRUE(store->LookupExact({1, AttrSet::FromMask(0x1), 10}, &h));
  EXPECT_EQ(h, 0.75);
}

TEST(PersistStore, EraseRemovesEntriesDurably) {
  TempDir dir;
  const PersistKey a{7, AttrSet::FromMask(0x5), 50};
  const PersistKey b{7, AttrSet::FromMask(0x6), 50};
  const PersistKey kept{8, AttrSet::FromMask(0x5), 50};
  {
    auto store = MustOpen(dir.str());
    ASSERT_TRUE(store
                    ->Put({ValueEntry(7, 0x5, 50, 3.0),
                           ValueEntry(7, 0x6, 50, 4.0),
                           ValueEntry(8, 0x5, 50, 5.0)})
                    .ok());
    // One batch; the absent key in it is skipped.
    const PersistKey absent{9, AttrSet::FromMask(0x1), 1};
    ASSERT_TRUE(store->Erase({a, absent, b}).ok());
    EXPECT_FALSE(store->LookupExact(a, nullptr));
    EXPECT_FALSE(store->LookupExact(b, nullptr));
    EXPECT_TRUE(store->LookupExact(kept, nullptr));
    // Erasing absent entries only is OK and writes nothing.
    const uintmax_t size = fs::file_size(dir.path / "MANIFEST");
    EXPECT_TRUE(store->Erase({a}).ok());
    EXPECT_EQ(fs::file_size(dir.path / "MANIFEST"), size);
    EXPECT_EQ(store->Stats().erases, 2u);
  }
  // The erase records survive the reopen.
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 1u);
  EXPECT_TRUE(store->LookupExact(kept, nullptr));
}

TEST(PersistStore, TornManifestTailIsTruncatedAtOpen) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(store->Put({ValueEntry(k, 0x1, 10, 1.0 + k)}).ok());
    }
  }
  // A crash mid-append leaves a partial record at the tail. Simulate the
  // torn bytes externally: garbage after the last intact record.
  {
    std::ofstream m(fs::path(dir.str()) / "MANIFEST",
                    std::ios::binary | std::ios::app);
    const char torn[] = {0x21, 0x00, 0x00, 0x00, 0x12, 0x34};
    m.write(torn, sizeof(torn));
  }
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 3u);  // every record before the tear replays
  EXPECT_EQ(store->Stats().torn_tail_events, 1u);
  EXPECT_GT(store->Stats().torn_tail_bytes, 0u);
  // The truncation repaired the journal in place: appends work again and
  // survive the next reopen.
  ASSERT_TRUE(store->Put({ValueEntry(9, 0x1, 10, 9.0)}).ok());
  store.reset();
  EXPECT_EQ(MustOpen(dir.str())->NumEntries(), 4u);
}

TEST(PersistStore, ExternallyTruncatedManifestDropsOnlyTheTail) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(store->Put({ValueEntry(k, 0x1, 10, 1.0 + k)}).ok());
    }
  }
  // Chop a few bytes off the last record (kill -9 mid-write never got them
  // to disk).
  const fs::path manifest = fs::path(dir.str()) / "MANIFEST";
  fs::resize_file(manifest, fs::file_size(manifest) - 3);
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 2u);
  EXPECT_EQ(store->Stats().torn_tail_events, 1u);
  EXPECT_TRUE(store->LookupExact({0, AttrSet::FromMask(0x1), 10}, nullptr));
  EXPECT_TRUE(store->LookupExact({1, AttrSet::FromMask(0x1), 10}, nullptr));
  EXPECT_FALSE(store->LookupExact({2, AttrSet::FromMask(0x1), 10}, nullptr));
}

// A batch goes out as one write(), but every record in it keeps its own
// CRC: a batch torn mid-way still replays its whole records.
TEST(PersistStore, TornBatchTruncatesToARecordBoundary) {
  TempDir dir;
  {
    auto store = MustOpen(dir.str());
    ASSERT_TRUE(store
                    ->Put({ValueEntry(0, 0x1, 10, 1.0),
                           ValueEntry(1, 0x1, 10, 2.0),
                           ValueEntry(2, 0x1, 10, 3.0)})
                    .ok());
  }
  // Chop a few bytes off the batch's last record (kill -9 mid-write never
  // got them to disk).
  const fs::path manifest = fs::path(dir.str()) / "MANIFEST";
  fs::resize_file(manifest, fs::file_size(manifest) - 3);
  auto store = MustOpen(dir.str());
  EXPECT_EQ(store->NumEntries(), 2u);
  EXPECT_EQ(store->Stats().torn_tail_events, 1u);
  double h = 0.0;
  EXPECT_TRUE(store->LookupExact({0, AttrSet::FromMask(0x1), 10}, &h));
  EXPECT_EQ(h, 1.0);
  EXPECT_TRUE(store->LookupExact({1, AttrSet::FromMask(0x1), 10}, &h));
  EXPECT_EQ(h, 2.0);
  EXPECT_FALSE(store->LookupExact({2, AttrSet::FromMask(0x1), 10}, &h));
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
        ASSERT_TRUE(store->Erase({{k, AttrSet::FromMask(0x1), 10}}).ok());
      }
      ASSERT_TRUE(store->Put({ValueEntry(k, 0x1, 10, 0.5 * k)}).ok());
    }
  }
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(store->Erase({{k, AttrSet::FromMask(0x1), 10}}).ok());
  }
  const fs::path manifest = fs::path(dir.str()) / "MANIFEST";
  const uintmax_t before = fs::file_size(manifest);
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(fs::file_size(manifest), before);
  EXPECT_EQ(store->Stats().compactions, 1u);
  EXPECT_EQ(store->NumEntries(), 4u);
  // The compacted journal replays to the same live set; a crashed
  // compaction's tmp journal is never authoritative and goes at open.
  store.reset();
  { std::ofstream(manifest.string() + ".tmp") << "crashed"; }
  store = MustOpen(dir.str());
  EXPECT_EQ(store->Stats().tmp_files_removed, 1u);
  EXPECT_FALSE(fs::exists(manifest.string() + ".tmp"));
  EXPECT_EQ(store->NumEntries(), 4u);
  for (uint64_t k = 0; k < 8; ++k) {
    double h = -1.0;
    EXPECT_EQ(store->LookupExact({k, AttrSet::FromMask(0x1), 10}, &h), k >= 4);
    if (k >= 4) {
      EXPECT_EQ(h, 0.5 * k);
    }
  }
}

// Four threads put, look up and erase overlapping keys while a fifth
// compacts: every lookup must return a value its key was written with, and
// the reopened store must hold exactly such values.
TEST(PersistStore, ConcurrentPutLookupEraseCompact) {
  constexpr uint64_t kKeys = 6;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  // Two values per key, alternated so puts really replace resident
  // entries; any lookup can be checked whichever put it observes.
  const auto value_of = [](uint64_t k, bool odd) {
    return static_cast<double>(k) + (odd ? 0.5 : 0.0);
  };
  const auto valid = [&](uint64_t k, double h) {
    return h == value_of(k, false) || h == value_of(k, true);
  };
  TempDir dir;
  PersistOptions options;
  options.fsync_writes = false;
  {
    auto opened = PersistentCacheStore::Open(dir.str(), options);
    ASSERT_TRUE(opened.ok());
    std::shared_ptr<PersistentCacheStore> store = opened.value();
    std::atomic<int> running{kThreads};
    std::atomic<uint64_t> lookups_ok{0};
    std::atomic<uint64_t> bad_lookups{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(4100 + static_cast<uint64_t>(t));
        for (int op = 0; op < kOpsPerThread; ++op) {
          const uint64_t k = rng.UniformU64(kKeys);
          const AttrSet attrs = AttrSet::FromMask(0x3);
          switch (rng.UniformU64(3)) {
            case 0: {
              std::vector<PersistedEntryMeta> batch;
              const uint64_t n = 1 + rng.UniformU64(3);
              for (uint64_t i = 0; i < n; ++i) {
                const uint64_t key = (k + i) % kKeys;
                batch.push_back(ValueEntry(key, 0x3, 10,
                                           value_of(key, rng.Bernoulli(0.5))));
              }
              EXPECT_TRUE(store->Put(batch).ok());
              break;
            }
            case 1: {
              double h = 0.0;
              if (!store->LookupExact({k, attrs, 10}, &h)) break;
              if (!valid(k, h)) ++bad_lookups;
              ++lookups_ok;
              break;
            }
            default:
              EXPECT_TRUE(store->Erase({{k, attrs, 10}}).ok());
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
    EXPECT_GT(lookups_ok.load(), 0u);
    EXPECT_EQ(bad_lookups.load(), 0u);
    EXPECT_EQ(store->Stats().put_failures, 0u);
  }
  auto reopened = PersistentCacheStore::Open(dir.str(), options);
  ASSERT_TRUE(reopened.ok());
  std::shared_ptr<PersistentCacheStore> store = reopened.value();
  EXPECT_EQ(store->Stats().torn_tail_events, 0u);
  EXPECT_EQ(store->Stats().tmp_files_removed, 0u);
  for (const PersistedEntryMeta& e : store->AllEntries()) {
    EXPECT_TRUE(valid(e.fingerprint, e.entropy)) << e.fingerprint;
  }
}

// ---------------------------------------------------------------------------
// Helpers for the journal fuzz loop and the engine tests.
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

/// One seeded mutation of a journal. Raw damage (bit flips, a truncation,
/// a splice of the journal's own bytes) is what a torn write or a bad disk
/// does, and the record CRCs must catch it. The re-framed kind flips bytes
/// INSIDE one record's payload and then fixes its CRC up, so the record
/// decoder behind the CRC sees garbage too. Returns true for raw damage.
bool MutateJournal(Rng* rng, std::string* bytes) {
  const std::string original = *bytes;
  auto flip = [&]() {
    if (bytes->empty()) return;
    const int flips = 1 + static_cast<int>(rng->UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const size_t pos = rng->UniformU64(bytes->size());
      (*bytes)[pos] = static_cast<char>(
          (*bytes)[pos] ^ static_cast<char>(1 + rng->UniformU64(255)));
    }
  };
  switch (rng->UniformU64(4)) {
    case 0:
      flip();
      return true;
    case 1:
      bytes->resize(rng->UniformU64(bytes->size() + 1));
      return true;
    case 2: {
      const size_t from = rng->UniformU64(original.size());
      const size_t len = 1 + rng->UniformU64(original.size() - from);
      const size_t at = rng->UniformU64(bytes->size() + 1);
      if (rng->Bernoulli(0.5)) {
        bytes->insert(at, original, from, len);
      } else {
        bytes->replace(at, std::min(len, bytes->size() - at), original, from,
                       len);
      }
      return true;
    }
    default:
      break;
  }
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
  payload[rng->UniformU64(len)] ^= static_cast<char>(1 + rng->UniformU64(255));
  bytes->replace(pos + 8, len, payload);
  PutU32At(bytes, pos + 4, Crc32c(payload.data(), payload.size()));
  return false;
}

// A seeded in-repo fuzz loop over the journal decoder. An engine writes a
// small valid store once; each round copies it, mutates the journal, and
// drives the reading side: Open must succeed (damage is dropped, never
// fatal), raw damage may only drop entries (every surviving one is an
// original entry, bit for bit), Compact must succeed, and the compacted
// store must reopen with the same entries and no torn tail.
TEST(PersistStore, MutatedJournalsReopenAndCompact) {
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
  const std::vector<PersistedEntryMeta> originals =
      MustOpen(seed.str())->AllEntries();
  ASSERT_EQ(originals.size(), AllNonEmptySubsets(kAttrs).size());
  const auto is_original = [&](const PersistedEntryMeta& e) {
    for (const PersistedEntryMeta& o : originals) {
      if (o.fingerprint == e.fingerprint && o.attrs == e.attrs &&
          o.rows == e.rows &&
          std::memcmp(&o.entropy, &e.entropy, sizeof(double)) == 0) {
        return true;
      }
    }
    return false;
  };
  const std::string journal = ReadBytes(seed.path / "MANIFEST");
  PersistOptions fast;
  fast.fsync_writes = false;
  uint64_t intact = 0;
  uint64_t dropped = 0;
  for (int round = 0; round < kRounds; ++round) {
    TempDir dir;
    fs::create_directories(dir.path);
    std::string bytes = journal;
    const bool raw = MutateJournal(&rng, &bytes);
    WriteBytes(dir.path / "MANIFEST", bytes);

    auto opened = PersistentCacheStore::Open(dir.str(), fast);
    ASSERT_TRUE(opened.ok()) << "round " << round << ": "
                             << opened.status().ToString();
    std::shared_ptr<PersistentCacheStore> store = opened.value();
    for (const PersistedEntryMeta& e : store->AllEntries()) {
      double h = 0.0;
      ASSERT_TRUE(store->LookupExact(e, &h));
      if (raw) {
        EXPECT_TRUE(is_original(e)) << "round " << round;
      }
    }
    const size_t live = store->NumEntries();
    (live < originals.size() ? dropped : intact) += 1;
    ASSERT_TRUE(store->Compact().ok()) << "round " << round;
    store.reset();
    auto reopened = PersistentCacheStore::Open(dir.str(), fast);
    ASSERT_TRUE(reopened.ok()) << "round " << round;
    EXPECT_EQ(reopened.value()->NumEntries(), live) << "round " << round;
    EXPECT_EQ(reopened.value()->Stats().torn_tail_events, 0u)
        << "round " << round;
  }
  // The loop reached both sides of the record CRCs.
  EXPECT_GT(intact, 0u);
  EXPECT_GT(dropped, 0u);
}

// ---------------------------------------------------------------------------
// 2. Warm-restart equivalence — every build.
// ---------------------------------------------------------------------------

// A warm restart on an UNCHANGED relation serves every persisted value
// bitwise without refining anything. A restart whose relation has grown
// past the persisted prefix serves none of those values: every answer is
// the cold one, and its PersistCache erases the old generation.
TEST(PersistEngine, WarmRestartServesStoredValuesOnlyAtTheirPrefix) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(20260808);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 90);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 20);
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  std::vector<double> seeded;
  {
    Relation seed = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    seeded = engine.BatchEntropy(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }

  // Unchanged relation: a FRESH relation of the same content.
  {
    Relation r = RelationOver(base_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&r, opt);
    for (size_t k = 0; k < sets.size(); ++k) {
      ASSERT_EQ(engine.Entropy(sets[k]), seeded[k])
          << "attrs=" << sets[k].ToString();
      ASSERT_EQ(engine.Entropy(sets[k]), EntropyOf(r, sets[k]))
          << "attrs=" << sets[k].ToString();
    }
    const EngineStats stats = engine.Stats();
    // Each disk value counts once, on its first read.
    EXPECT_EQ(stats.persist_hits, sets.size());
    EXPECT_EQ(stats.refinements, 0u);
    EXPECT_EQ(stats.partition_builds, 0u);
    EXPECT_EQ(stats.persist_reloads, 0u);
    EXPECT_EQ(stats.persist_fallbacks, 0u);
  }

  // Grown relation: the stored values describe an older prefix.
  Relation r = RelationOver(all_rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
  ASSERT_TRUE(engine.PersistCache().ok());
  const std::vector<PersistedEntryMeta> entries =
      opt.persist_store->AllEntries();
  EXPECT_EQ(entries.size(), sets.size());
  for (const PersistedEntryMeta& e : entries) {
    EXPECT_EQ(e.rows, all_rows.size()) << "attrs=" << e.attrs.ToString();
  }
}

// The restart shape: attach at the persisted prefix (its values warm the
// cache), then append. Catch-up never writes to disk; PersistCache at the
// newer row count supersedes the generation the engine started from, and
// the next restart serves the new one without computing.
TEST(PersistEngine, PersistCacheSupersedesTheWarmStartedGeneration) {
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
    ASSERT_EQ(engine.CacheSize(), sets.size());
    ASSERT_TRUE(r.AppendBatch(delta_rows).ok());
    for (AttrSet s : sets) {
      ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
    }
    // The catch-up over the delta swept the installed values unread.
    EXPECT_EQ(engine.Stats().persist_hits, 0u);
    for (const PersistedEntryMeta& e : opt.persist_store->AllEntries()) {
      EXPECT_EQ(e.rows, n0);
    }
    ASSERT_TRUE(engine.PersistCache().ok());
    uint64_t current = 0;
    for (const PersistedEntryMeta& e : opt.persist_store->AllEntries()) {
      EXPECT_EQ(e.rows, n1) << "attrs=" << e.attrs.ToString();
      ++current;
    }
    EXPECT_EQ(current, sets.size());
  }
  Relation r = RelationOver(all_rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
  const EngineStats warm = engine.Stats();
  EXPECT_EQ(warm.persist_hits, sets.size());
  EXPECT_EQ(warm.refinements, 0u);
  EXPECT_EQ(warm.persist_fallbacks, 0u);
}

// A store that holds values at a row count the relation only reaches after
// the engine attached (a process that persisted further along the same
// stream): warm start installs none of them, and once appends bring the
// relation to that prefix, plain misses are served by the miss-path value
// lookup without computing. A caller that needs the partition itself is
// never served from disk.
TEST(PersistEngine, MissPathServesValuesPersistedAtTheCaughtUpPrefix) {
  constexpr uint32_t kAttrs = 4;
  Rng rng(20261019);
  const auto all_rows = RandomCodeRows(&rng, kAttrs, 3, 100);
  const std::vector<std::vector<uint32_t>> base_rows(all_rows.begin(),
                                                     all_rows.end() - 20);
  const std::vector<std::vector<uint32_t>> delta_rows(all_rows.end() - 20,
                                                      all_rows.end());
  const std::vector<AttrSet> sets = AllNonEmptySubsets(kAttrs);

  TempDir dir;
  {
    Relation seed = RelationOver(all_rows, kAttrs);
    EngineOptions opt;
    opt.persist_store = MustOpen(dir.str());
    EntropyEngine engine(&seed, opt);
    (void)engine.BatchEntropy(sets);
    ASSERT_TRUE(engine.PersistCache().ok());
  }

  Relation r = RelationOver(base_rows, kAttrs);
  EngineOptions opt;
  opt.num_threads = 1;
  opt.persist_store = MustOpen(dir.str());
  EntropyEngine engine(&r, opt);
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
  EXPECT_EQ(engine.CacheSize(), 0u);
  ASSERT_TRUE(r.AppendBatch(delta_rows).ok());

  // The partition path computes even though the disk holds its value.
  const AttrSet first = sets.front();
  engine.CatchUp();
  const std::shared_ptr<const Partition> p =
      engine.PartitionAt(first, engine.Pin());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->EntropyNats(r.NumRows()), EntropyOf(r, first));
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
  const uint64_t refinements = engine.Stats().refinements;
  const uint64_t builds = engine.Stats().partition_builds;
  EXPECT_GT(refinements + builds, 0u);

  // Every other set is a plain miss that the journal answers exactly.
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.persist_hits, sets.size() - 1);
  EXPECT_EQ(stats.refinements, refinements);
  EXPECT_EQ(stats.partition_builds, builds);
  EXPECT_EQ(stats.persist_fallbacks, 0u);
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
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), EntropyOf(b, s))
        << "attrs=" << s.ToString();
  }
  EXPECT_EQ(engine.Stats().persist_hits, 0u);
}

// A store written under the previous format (manifest magic AJDCACH2,
// partition blobs under blobs/) must not serve: Open reads the old magic
// as a foreign journal, starts fresh, and removes the blob directory, and
// every value is then the cold engine's, bit for bit.
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
  {
    std::fstream manifest(dir.path / "MANIFEST",
                          std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(manifest.good());
    manifest.write("AJDCACH2", 8);
  }
  const fs::path blobs = dir.path / "blobs";
  fs::create_directories(blobs);
  { std::ofstream(blobs / "b1.blob") << "old partition"; }
  { std::ofstream(blobs / "b2.blob.quarantined") << "old partition"; }

  std::shared_ptr<PersistentCacheStore> store = MustOpen(dir.str());
  EXPECT_EQ(store->Stats().entries, 0u);
  EXPECT_FALSE(fs::exists(blobs));

  Relation r = RelationOver(rows, kAttrs);
  EngineOptions opt;
  opt.persist_store = store;
  EntropyEngine engine(&r, opt);
  EntropyEngine cold(&r);
  for (AttrSet s : sets) {
    ASSERT_EQ(engine.Entropy(s), cold.Entropy(s)) << "attrs=" << s.ToString();
    ASSERT_EQ(engine.Entropy(s), EntropyOf(r, s)) << "attrs=" << s.ToString();
  }
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

      const char* point = kWritePoints[rng.UniformU64(2)];
      persist_internal::SetTornWriteBytes(rng.NextU64());
      persist_internal::SetCrashSimulation(true);
      reg.Arm(point, FailpointConfig::OneShot());
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
    // partial) persisted values, then at N0+delta, where the previous
    // iteration's values serve. Its PersistCache supersedes the N0
    // generation, so the next crashed process writes a fresh batch.
    {
      auto opened = PersistentCacheStore::Open(dir.str());
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      // At most the two generations this soak writes survive.
      EXPECT_LE(opened.value()->NumEntries(), 2 * sets.size());
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
      ASSERT_TRUE(engine.PersistCache().ok()) << "iteration " << it;
    }
  }
  // The soak must have actually crashed writes, not just run clean.
  EXPECT_GT(crashes_injected, 0u);
}

}  // namespace
}  // namespace ajd
