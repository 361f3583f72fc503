// ajdcache: fsck-style CLI for a persistent cache directory
// (persist/persistent_store.h).
//
//   ajdcache list   <dir>   one JSON line per entry, then a summary line
//   ajdcache scrub  <dir>   compact the manifest down to the live entries
//
// Every mode ends with ONE machine-readable JSON summary line on stdout.
// Opening the store runs its normal crash recovery (CRC-checked replay,
// torn manifest tail truncated, crashed compaction tmp removed) — the
// summary's recovery counters report what it found, which makes `list` on
// a freshly crashed directory double as the post-mortem.
//
// Exit codes: 0 clean; 1 usage, open or compaction failure.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "persist/persistent_store.h"

namespace {

using ajd::PersistentCacheStore;
using ajd::PersistStats;

int Usage() {
  std::fprintf(stderr, "usage: ajdcache {list|scrub} <cache-dir>\n");
  return 1;
}

void PrintSummary(const char* mode, const std::string& dir,
                  const PersistStats& s) {
  std::printf(
      "{\"tool\":\"ajdcache\",\"mode\":\"%s\",\"dir\":\"%s\","
      "\"entries\":%" PRIu64 ",\"torn_tail_events\":%" PRIu64
      ",\"torn_tail_bytes\":%" PRIu64 ",\"tmp_files_removed\":%" PRIu64
      ",\"compactions\":%" PRIu64 "}\n",
      mode, dir.c_str(), s.entries, s.torn_tail_events, s.torn_tail_bytes,
      s.tmp_files_removed, s.compactions);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  if (mode != "list" && mode != "scrub") return Usage();

  auto opened = PersistentCacheStore::Open(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "ajdcache: cannot open %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<PersistentCacheStore> store = opened.value();

  if (mode == "list") {
    for (const auto& e : store->AllEntries()) {
      std::printf("{\"fingerprint\":\"%016" PRIx64
                  "\",\"attrs_mask\":\"%" PRIx64 "\",\"rows\":%" PRIu64
                  ",\"entropy\":%.17g}\n",
                  e.fingerprint, e.attrs.mask(), e.rows, e.entropy);
    }
  } else {  // scrub
    const ajd::Status s = store->Compact();
    if (!s.ok()) {
      std::fprintf(stderr, "ajdcache: compact failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  PrintSummary(mode.c_str(), dir, store->Stats());
  return 0;
}
