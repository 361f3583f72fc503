#include "persist/persistent_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "relation/row_hash.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace fs = std::filesystem;

namespace ajd {

namespace persist_internal {

namespace {
std::atomic<uint64_t> g_torn_write_bytes{0};
std::atomic<bool> g_crash_simulation{false};
}  // namespace

void SetTornWriteBytes(uint64_t bytes) {
  g_torn_write_bytes.store(bytes, std::memory_order_relaxed);
}

void SetCrashSimulation(bool on) {
  g_crash_simulation.store(on, std::memory_order_relaxed);
}

}  // namespace persist_internal

namespace {

// Version 3: values only. Older journals read as foreign: version 1
// summed entropies in another order (values differ in the last bits), and
// version 2 referenced partition blobs.
constexpr char kManifestMagic[8] = {'A', 'J', 'D', 'C', 'A', 'C', 'H', '3'};
// The largest valid record is an erase or put of a few fixed fields;
// larger lengths mean a torn or foreign frame.
constexpr uint32_t kMaxRecordLen = 64;

enum RecordKind : uint8_t {
  kRecordPut = 1,
  kRecordErase = 2,
};

bool CrashSim() {
  return persist_internal::g_crash_simulation.load(std::memory_order_relaxed);
}

/// Bytes a firing torn-write failpoint actually lets through for a buffer
/// of `n` (the knob maps onto [0, n] so any randomized value is a valid
/// kill offset).
size_t TornLimit(size_t n) {
  const uint64_t k =
      persist_internal::g_torn_write_bytes.load(std::memory_order_relaxed);
  return static_cast<size_t>(k % (static_cast<uint64_t>(n) + 1));
}

// --- little-endian encoding helpers ---------------------------------------

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

bool GetU64(const char** p, const char* end, uint64_t* v) {
  if (end - *p < 8) return false;
  std::memcpy(v, *p, 8);
  *p += 8;
  return true;
}

/// Writes up to `n` bytes of `data` to `fd`, retrying short writes; returns
/// bytes actually written (< n only on a real I/O error).
size_t WriteFully(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      break;
    }
    done += static_cast<size_t>(w);
  }
  return done;
}

void SyncDirBestEffort(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Appends one framed record to `out`: [u32 len][u32 crc32c(payload)]
/// [payload], the payload being the kind byte, the key, and for a put
/// the value's bits.
void AppendFramed(std::string* out, RecordKind kind, uint64_t fingerprint,
                  uint64_t mask, uint64_t rows, const double* entropy) {
  std::string payload;
  payload.push_back(static_cast<char>(kind));
  PutU64(&payload, fingerprint);
  PutU64(&payload, mask);
  PutU64(&payload, rows);
  if (entropy != nullptr) {
    uint64_t bits;
    std::memcpy(&bits, entropy, 8);
    PutU64(&payload, bits);
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32c(payload.data(), payload.size()));
  *out += payload;
}

void AppendPut(std::string* out, const PersistedEntryMeta& e) {
  AppendFramed(out, kRecordPut, e.fingerprint, e.attrs.mask(), e.rows,
               &e.entropy);
}

void AppendErase(std::string* out, const PersistKey& k) {
  AppendFramed(out, kRecordErase, k.fingerprint, k.attrs.mask(), k.rows,
               nullptr);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

}  // namespace

size_t PersistKeyHash::operator()(const PersistKey& k) const {
  return static_cast<size_t>(
      Mix64(k.fingerprint ^ Mix64(k.attrs.mask() ^ Mix64(k.rows))));
}

PersistentCacheStore::PersistentCacheStore(std::string dir,
                                           PersistOptions options)
    : dir_(std::move(dir)),
      manifest_path_(dir_ + "/MANIFEST"),
      options_(options) {}

PersistentCacheStore::~PersistentCacheStore() {
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
}

Status PersistentCacheStore::OpenManifestLocked() {
  if (manifest_fd_ >= 0) {
    ::close(manifest_fd_);
    manifest_fd_ = -1;
  }
  manifest_fd_ = ::open(manifest_path_.c_str(), O_WRONLY | O_APPEND, 0644);
  if (manifest_fd_ < 0) {
    return Status::IoError("cannot open manifest for appending: " +
                           manifest_path_);
  }
  return Status::OK();
}

Result<std::shared_ptr<PersistentCacheStore>> PersistentCacheStore::Open(
    const std::string& dir, const PersistOptions& options) {
  std::shared_ptr<PersistentCacheStore> store(
      new PersistentCacheStore(dir, options));
  std::lock_guard<std::mutex> lock(store->mu_);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create cache directory: " + dir + ": " +
                           ec.message());
  }

  // A crashed compaction's tmp journal is never authoritative, and a
  // previous format's partition blobs have no journal to serve them.
  if (fs::remove(store->manifest_path_ + ".tmp", ec)) {
    ++store->stats_.tmp_files_removed;
  }
  fs::remove_all(fs::path(dir) / "blobs", ec);

  // --- replay the journal --------------------------------------------------
  std::string bytes;
  {
    std::ifstream in(store->manifest_path_, std::ios::binary);
    if (in) {
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
  }
  size_t good_end = sizeof(kManifestMagic);
  if (bytes.size() < sizeof(kManifestMagic) ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
          0) {
    // Missing, empty, foreign, or torn-inside-the-magic journal: start
    // fresh. (A non-empty unreadable journal counts as a torn tail.)
    if (!bytes.empty()) {
      ++store->stats_.torn_tail_events;
      store->stats_.torn_tail_bytes += bytes.size();
    }
    std::ofstream out(store->manifest_path_,
                      std::ios::binary | std::ios::trunc);
    out.write(kManifestMagic, sizeof(kManifestMagic));
    out.close();
    if (!out) {
      return Status::IoError("cannot initialize manifest: " +
                             store->manifest_path_);
    }
  } else {
    const char* base = bytes.data();
    size_t pos = sizeof(kManifestMagic);
    while (pos + 8 <= bytes.size()) {
      uint32_t len, crc;
      std::memcpy(&len, base + pos, 4);
      std::memcpy(&crc, base + pos + 4, 4);
      if (len == 0 || len > kMaxRecordLen || pos + 8 + len > bytes.size()) {
        break;  // torn or foreign frame: the valid prefix ends here
      }
      const char* p = base + pos + 8;
      const char* end = p + len;
      if (Crc32c(p, len) != crc) break;
      const uint8_t kind = static_cast<uint8_t>(*p++);
      PersistedEntryMeta e;
      uint64_t mask = 0;
      if ((kind != kRecordPut && kind != kRecordErase) ||
          !GetU64(&p, end, &e.fingerprint) || !GetU64(&p, end, &mask) ||
          !GetU64(&p, end, &e.rows)) {
        break;  // unknown kind or short key: treat like a torn frame
      }
      e.attrs = AttrSet::FromMask(mask);
      if (kind == kRecordPut) {
        uint64_t bits;
        if (!GetU64(&p, end, &bits) || p != end) break;
        std::memcpy(&e.entropy, &bits, 8);
        store->index_[e] = e;
      } else {
        if (p != end) break;
        store->index_.erase(e);
      }
      pos += 8 + len;
    }
    good_end = pos;
    if (good_end < bytes.size()) {
      ++store->stats_.torn_tail_events;
      store->stats_.torn_tail_bytes += bytes.size() - good_end;
      fs::resize_file(store->manifest_path_, good_end, ec);
      if (ec) {
        return Status::IoError("cannot truncate torn manifest tail: " +
                               ec.message());
      }
    }
  }
  store->manifest_size_ = good_end;

  Status s = store->OpenManifestLocked();
  if (!s.ok()) return s;
  store->stats_.entries = store->index_.size();
  return store;
}

Status PersistentCacheStore::AppendLocked(const std::string& frames) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "persistent store is read-only after an unrecovered append failure; "
        "Compact() to rebuild the journal");
  }
  size_t limit = frames.size();
  bool injected = false;
  if (AJD_FAILPOINT(failpoints::kPersistManifestAppend)) {
    injected = true;
    limit = TornLimit(frames.size());
  }
  const size_t wrote = WriteFully(manifest_fd_, frames.data(), limit);
  if (injected || wrote < frames.size()) {
    if (injected && CrashSim()) {
      // Simulated kill -9 mid-append: leave the torn bytes on disk. The
      // in-process object can no longer append safely (a later record
      // would sit after garbage and be dropped by the next open's tail
      // truncation), so it goes read-only; the soak reopens the directory.
      read_only_ = true;
      return Status::IoError("injected crash during manifest append");
    }
    // In-process failure: truncate the torn bytes back so the journal ends
    // at the last complete record and the store stays writable.
    if (::ftruncate(manifest_fd_, static_cast<off_t>(manifest_size_)) != 0) {
      read_only_ = true;
    }
    return Status::IoError(injected ? "injected manifest append failure"
                                    : "short write appending manifest records");
  }
  manifest_size_ += frames.size();
  if (options_.fsync_writes) ::fsync(manifest_fd_);
  return Status::OK();
}

Status PersistentCacheStore::Put(
    const std::vector<PersistedEntryMeta>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  // Identical values already resident are skipped: rewriting bytes already
  // on disk would churn the journal for nothing.
  std::vector<const PersistedEntryMeta*> fresh;
  std::string frames;
  for (const PersistedEntryMeta& e : entries) {
    auto it = index_.find(e);
    if (it != index_.end() && SameBits(it->second.entropy, e.entropy)) {
      ++stats_.dedup_puts;
      continue;
    }
    fresh.push_back(&e);
    AppendPut(&frames, e);
  }
  if (fresh.empty()) return Status::OK();
  Status s = AppendLocked(frames);
  if (!s.ok()) {
    stats_.put_failures += fresh.size();
    return s;
  }
  for (const PersistedEntryMeta* e : fresh) index_[*e] = *e;
  stats_.puts += fresh.size();
  stats_.entries = index_.size();
  return Status::OK();
}

bool PersistentCacheStore::LookupExact(const PersistKey& key,
                                       double* entropy) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  ++stats_.hits;
  if (entropy != nullptr) *entropy = it->second.entropy;
  return true;
}

std::vector<PersistedEntryMeta> PersistentCacheStore::AllEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PersistedEntryMeta> out;
  out.reserve(index_.size());
  for (const auto& kv : index_) out.push_back(kv.second);
  return out;
}

Status PersistentCacheStore::Erase(const std::vector<PersistKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const PersistKey*> present;
  std::string frames;
  for (const PersistKey& k : keys) {
    if (index_.count(k) == 0) continue;
    present.push_back(&k);
    AppendErase(&frames, k);
  }
  if (present.empty()) return Status::OK();
  Status s = AppendLocked(frames);
  if (!s.ok()) return s;
  for (const PersistKey* k : present) stats_.erases += index_.erase(*k);
  stats_.entries = index_.size();
  return Status::OK();
}

Status PersistentCacheStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = manifest_path_ + ".tmp";
  {
    std::string bytes(kManifestMagic, sizeof(kManifestMagic));
    for (const auto& kv : index_) AppendPut(&bytes, kv.second);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot create " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::IoError("short write building " + tmp);
    }
  }
  if (options_.fsync_writes) {
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  if (AJD_FAILPOINT(failpoints::kPersistCompactRename)) {
    // The window a real crash would hit: tmp complete and durable, rename
    // not issued. The OLD journal stays authoritative either way; without
    // crash-sim the tmp is tidied here, with it the next open removes it.
    if (!CrashSim()) {
      std::error_code ec;
      fs::remove(tmp, ec);
    }
    return Status::IoError("injected failure before compaction rename");
  }
  if (::rename(tmp.c_str(), manifest_path_.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename compacted manifest into place");
  }
  if (options_.fsync_writes) SyncDirBestEffort(dir_);
  // The rename invalidated the old append fd's file; reopen on the new
  // journal and recompute its size.
  Status s = OpenManifestLocked();
  if (!s.ok()) {
    read_only_ = true;
    return s;
  }
  std::error_code ec;
  manifest_size_ = static_cast<uint64_t>(fs::file_size(manifest_path_, ec));
  read_only_ = false;  // the journal was just rebuilt whole
  ++stats_.compactions;
  return Status::OK();
}

PersistStats PersistentCacheStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PersistStats s = stats_;
  s.entries = index_.size();
  return s;
}

size_t PersistentCacheStore::NumEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace ajd
