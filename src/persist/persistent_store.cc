#include "persist/persistent_store.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
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

// Version 2: entropies are evaluated from block-size histograms
// (engine/block_histogram.h). A store written under the older
// emission-order summation holds values that differ from fresh ones in
// the last bits, so its journal reads as foreign: Open starts fresh and
// garbage-collects the old blobs as orphans.
constexpr char kManifestMagic[8] = {'A', 'J', 'D', 'C', 'A', 'C', 'H', '2'};
constexpr uint32_t kBlobMagic = 0x424A4441u;  // "AJDB" little-endian
constexpr uint32_t kBlobVersion = 2;
// Blob header: magic, version, body length, body CRC. The body follows:
// the two array lengths (u64 each), then the rows and offsets arrays.
constexpr size_t kBlobHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kBlobCountsBytes = 8 + 8;
// A manifest record's payload can't plausibly exceed this (the largest is
// a put: fixed fields + a <= 64-entry chain); larger lengths mean a torn
// or foreign frame.
constexpr uint32_t kMaxRecordLen = 4096;

enum RecordKind : uint8_t {
  kRecordPut = 1,
  kRecordErase = 2,
  kRecordQuarantine = 3,
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

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

bool GetBytes(const char** p, const char* end, void* out, size_t n) {
  if (static_cast<size_t>(end - *p) < n) return false;
  std::memcpy(out, *p, n);
  *p += n;
  return true;
}

bool GetU8(const char** p, const char* end, uint8_t* v) {
  return GetBytes(p, end, v, 1);
}
bool GetU32(const char** p, const char* end, uint32_t* v) {
  return GetBytes(p, end, v, 4);
}
bool GetU64(const char** p, const char* end, uint64_t* v) {
  return GetBytes(p, end, v, 8);
}
bool GetF64(const char** p, const char* end, double* v) {
  uint64_t bits;
  if (!GetU64(p, end, &bits)) return false;
  std::memcpy(v, &bits, 8);
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

/// writev's counterpart of WriteFully: writes the first `limit` bytes of
/// the `n` pieces in `iov` (clipping them in place), retrying short writes;
/// returns bytes actually written (< limit only on a real I/O error).
size_t WritevFully(int fd, struct iovec* iov, int n, size_t limit) {
  size_t total = 0;
  int used = 0;
  for (; used < n && total < limit; ++used) {
    iov[used].iov_len = std::min(iov[used].iov_len, limit - total);
    total += iov[used].iov_len;
  }
  size_t done = 0;
  int first = 0;
  while (done < total) {
    const ssize_t w = ::writev(fd, iov + first, std::min(used - first, IOV_MAX));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    done += static_cast<size_t>(w);
    size_t left = static_cast<size_t>(w);
    while (first < used && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return done;
}

/// Reads exactly `n` bytes from `fd` into `out`, retrying short reads.
bool ReadFully(int fd, void* out, size_t n) {
  char* p = static_cast<char*>(out);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// Reads and verifies one open blob straight into `out`'s arrays: the
/// header must match, the array lengths must account for the file's
/// exact size (which also bounds the allocation), and the CRC must match
/// the body. False on any mismatch or short read.
bool ReadBlobFd(int fd, PartitionPayload* out) {
  struct stat st;
  char head[kBlobHeaderBytes + kBlobCountsBytes];
  if (::fstat(fd, &st) != 0 || !ReadFully(fd, head, sizeof(head))) {
    return false;
  }
  const char* p = head;
  const char* end = head + sizeof(head);
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t body_len = 0, n_rows = 0, n_offsets = 0;
  GetU32(&p, end, &magic);
  GetU32(&p, end, &version);
  GetU64(&p, end, &body_len);
  GetU32(&p, end, &crc);
  GetU64(&p, end, &n_rows);
  GetU64(&p, end, &n_offsets);
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (magic != kBlobMagic || version != kBlobVersion ||
      body_len != file_bytes - kBlobHeaderBytes || n_rows > body_len / 4 ||
      n_offsets > body_len / 4 ||
      kBlobCountsBytes + 4 * (n_rows + n_offsets) != body_len) {
    return false;
  }
  out->rows.resize(n_rows);
  out->offsets.resize(n_offsets);
  if (!ReadFully(fd, out->rows.data(), n_rows * 4) ||
      !ReadFully(fd, out->offsets.data(), n_offsets * 4)) {
    return false;
  }
  uint32_t got = Crc32cExtend(0, head + kBlobHeaderBytes, kBlobCountsBytes);
  got = Crc32cExtend(got, out->rows.data(), n_rows * 4);
  got = Crc32cExtend(got, out->offsets.data(), n_offsets * 4);
  return got == crc;
}

void SyncDirBestEffort(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Serialized payload of a put record (no frame).
std::string EncodePut(const PersistedEntryMeta& e) {
  std::string out;
  out.push_back(static_cast<char>(kRecordPut));
  PutU64(&out, e.fingerprint);
  PutU64(&out, e.attrs.mask());
  PutU64(&out, e.rows);
  uint8_t flags = 0;
  if (e.has_entropy) flags |= 1;
  if (e.has_payload) flags |= 2;
  out.push_back(static_cast<char>(flags));
  PutF64(&out, e.entropy);
  PutU32(&out, e.last_col_card);
  out.push_back(static_cast<char>(e.chain.size()));
  for (uint32_t a : e.chain) out.push_back(static_cast<char>(a));
  if (e.has_payload) PutU64(&out, e.blob_id);
  return out;
}

std::string EncodeErase(uint64_t fingerprint, uint64_t mask, uint64_t rows) {
  std::string out;
  out.push_back(static_cast<char>(kRecordErase));
  PutU64(&out, fingerprint);
  PutU64(&out, mask);
  PutU64(&out, rows);
  return out;
}

std::string EncodeQuarantine(uint64_t blob_id) {
  std::string out;
  out.push_back(static_cast<char>(kRecordQuarantine));
  PutU64(&out, blob_id);
  return out;
}

/// Frames a record payload: [u32 len][u32 crc32c(payload)][payload].
std::string FrameRecord(const std::string& payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32c(payload.data(), payload.size()));
  out += payload;
  return out;
}

bool DecodePut(const char* p, const char* end, PersistedEntryMeta* e) {
  uint64_t mask = 0;
  uint8_t flags = 0, chain_len = 0;
  if (!GetU64(&p, end, &e->fingerprint) || !GetU64(&p, end, &mask) ||
      !GetU64(&p, end, &e->rows) || !GetU8(&p, end, &flags) ||
      !GetF64(&p, end, &e->entropy) || !GetU32(&p, end, &e->last_col_card) ||
      !GetU8(&p, end, &chain_len)) {
    return false;
  }
  e->attrs = AttrSet::FromMask(mask);
  e->has_entropy = (flags & 1) != 0;
  e->has_payload = (flags & 2) != 0;
  e->chain.resize(chain_len);
  for (uint8_t i = 0; i < chain_len; ++i) {
    uint8_t a;
    if (!GetU8(&p, end, &a) || a >= kMaxAttrs) return false;
    e->chain[i] = a;
  }
  if (e->has_payload && !GetU64(&p, end, &e->blob_id)) return false;
  return p == end;
}

}  // namespace

size_t PersistentCacheStore::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      Mix64(k.fingerprint ^ Mix64(k.mask ^ Mix64(k.rows))));
}

PersistentCacheStore::PersistentCacheStore(std::string dir,
                                           PersistOptions options)
    : dir_(std::move(dir)),
      manifest_path_(dir_ + "/MANIFEST"),
      blobs_dir_(dir_ + "/blobs"),
      options_(options) {}

PersistentCacheStore::~PersistentCacheStore() {
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
}

std::string PersistentCacheStore::BlobPath(uint64_t blob_id) const {
  return blobs_dir_ + "/b" + std::to_string(blob_id) + ".blob";
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
  fs::create_directories(store->blobs_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create cache directory: " + dir + ": " +
                           ec.message());
  }

  // A crashed compaction's tmp journal is never authoritative.
  if (fs::remove(store->manifest_path_ + ".tmp", ec)) {
    ++store->stats_.tmp_files_removed;
  }

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
    // Missing, empty, or torn-inside-the-magic journal: start fresh. (A
    // non-empty unreadable prefix counts as a torn tail of size zero-live.)
    if (!bytes.empty()) {
      ++store->stats_.torn_tail_events;
      store->stats_.torn_tail_bytes += bytes.size();
    }
    std::ofstream out(store->manifest_path_,
                      std::ios::binary | std::ios::trunc);
    out.write(kManifestMagic, sizeof(kManifestMagic));
    if (!out) {
      return Status::IoError("cannot initialize manifest: " +
                             store->manifest_path_);
    }
    out.close();
    bytes.assign(kManifestMagic, sizeof(kManifestMagic));
  } else {
    const char* base = bytes.data();
    size_t pos = sizeof(kManifestMagic);
    std::unordered_map<uint64_t, bool> quarantined_ids;
    while (pos + 8 <= bytes.size()) {
      uint32_t len, crc;
      std::memcpy(&len, base + pos, 4);
      std::memcpy(&crc, base + pos + 4, 4);
      if (len == 0 || len > kMaxRecordLen || pos + 8 + len > bytes.size()) {
        break;  // torn or foreign frame: the valid prefix ends here
      }
      const char* payload = base + pos + 8;
      if (Crc32c(payload, len) != crc) break;
      const uint8_t kind = static_cast<uint8_t>(payload[0]);
      const char* p = payload + 1;
      const char* end = payload + len;
      if (kind == kRecordPut) {
        PersistedEntryMeta e;
        if (!DecodePut(p, end, &e)) break;
        const Key key{e.fingerprint, e.attrs.mask(), e.rows};
        auto it = store->index_.find(key);
        if (it != store->index_.end()) ++store->dead_records_;
        store->index_[key] = std::move(e);
      } else if (kind == kRecordErase) {
        uint64_t fp, mask, rows;
        if (!GetU64(&p, end, &fp) || !GetU64(&p, end, &mask) ||
            !GetU64(&p, end, &rows) || p != end) {
          break;
        }
        store->index_.erase(Key{fp, mask, rows});
        ++store->dead_records_;
      } else if (kind == kRecordQuarantine) {
        uint64_t blob_id;
        if (!GetU64(&p, end, &blob_id) || p != end) break;
        quarantined_ids[blob_id] = true;
        ++store->dead_records_;
      } else {
        break;  // unknown kind: treat like a torn frame
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
    // A quarantine record outlives the entries it condemned only when it
    // raced a replayed put; drop any entry still pointing at a quarantined
    // blob.
    if (!quarantined_ids.empty()) {
      for (auto it = store->index_.begin(); it != store->index_.end();) {
        if (it->second.has_payload &&
            quarantined_ids.count(it->second.blob_id) != 0) {
          it = store->index_.erase(it);
          ++store->dead_records_;
        } else {
          ++it;
        }
      }
    }
  }
  store->manifest_size_ = good_end;

  // --- blob directory recovery --------------------------------------------
  // Referenced blob ids; entries whose blob vanished are dropped up front
  // (the alternative — failing at first load — would hide the loss from
  // the recovery accounting).
  std::unordered_map<uint64_t, bool> referenced;
  for (const auto& kv : store->index_) {
    if (kv.second.has_payload) referenced[kv.second.blob_id] = true;
  }
  uint64_t max_id = 0;
  std::vector<fs::path> to_remove;
  std::unordered_map<uint64_t, bool> present;
  for (const auto& ent : fs::directory_iterator(store->blobs_dir_, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      to_remove.push_back(ent.path());  // crashed blob write
      ++store->stats_.tmp_files_removed;
      continue;
    }
    // b<id>.blob and b<id>.blob.quarantined both pin the id space.
    if (name.size() < 2 || name[0] != 'b') continue;
    uint64_t id = 0;
    size_t i = 1;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      id = id * 10 + static_cast<uint64_t>(name[i] - '0');
      ++i;
    }
    if (i == 1) continue;
    max_id = std::max(max_id, id);
    if (name.compare(i, std::string::npos, ".blob") == 0) {
      present[id] = true;
      if (referenced.count(id) == 0) {
        to_remove.push_back(ent.path());  // orphan: blob landed, record lost
        ++store->stats_.orphan_blobs_removed;
      }
    }
  }
  for (const fs::path& p : to_remove) fs::remove(p, ec);
  for (auto it = store->index_.begin(); it != store->index_.end();) {
    if (it->second.has_payload && present.count(it->second.blob_id) == 0) {
      it = store->index_.erase(it);
      ++store->dead_records_;
      ++store->stats_.missing_blob_entries_dropped;
    } else {
      ++it;
    }
  }
  for (const auto& kv : referenced) max_id = std::max(max_id, kv.first);
  store->next_blob_id_ = max_id + 1;

  Status s = store->OpenManifestLocked();
  if (!s.ok()) return s;
  store->stats_.entries = store->index_.size();
  return store;
}

Status PersistentCacheStore::AppendRecordLocked(const std::string& payload) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "persistent store is read-only after an unrecovered append failure; "
        "Compact() to rebuild the journal");
  }
  const std::string frame = FrameRecord(payload);
  size_t limit = frame.size();
  bool injected = false;
  if (AJD_FAILPOINT(failpoints::kPersistManifestAppend)) {
    injected = true;
    limit = TornLimit(frame.size());
  }
  const size_t wrote = WriteFully(manifest_fd_, frame.data(), limit);
  if (injected || wrote < frame.size()) {
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
                                    : "short write appending manifest record");
  }
  manifest_size_ += frame.size();
  if (options_.fsync_writes) ::fsync(manifest_fd_);
  return Status::OK();
}

Status PersistentCacheStore::WriteBlob(uint64_t blob_id,
                                       const PartitionPayload& payload) const {
  // Header, lengths and arrays go out in one writev straight from the
  // payload's vectors; the CRC extends over the same pieces.
  uint64_t counts[2] = {payload.rows.size(), payload.offsets.size()};
  const size_t rows_bytes = payload.rows.size() * 4;
  const size_t offsets_bytes = payload.offsets.size() * 4;
  uint32_t crc = Crc32cExtend(0, counts, sizeof(counts));
  crc = Crc32cExtend(crc, payload.rows.data(), rows_bytes);
  crc = Crc32cExtend(crc, payload.offsets.data(), offsets_bytes);
  std::string header;
  PutU32(&header, kBlobMagic);
  PutU32(&header, kBlobVersion);
  PutU64(&header, sizeof(counts) + rows_bytes + offsets_bytes);
  PutU32(&header, crc);
  struct iovec iov[4] = {
      {&header[0], header.size()},
      {counts, sizeof(counts)},
      {const_cast<uint32_t*>(payload.rows.data()), rows_bytes},
      {const_cast<uint32_t*>(payload.offsets.data()), offsets_bytes}};
  const size_t size = header.size() + sizeof(counts) + rows_bytes +
                      offsets_bytes;

  const std::string path = BlobPath(blob_id);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot create blob tmp file: " + tmp);
  size_t limit = size;
  bool injected = false;
  if (AJD_FAILPOINT(failpoints::kPersistBlobWrite)) {
    injected = true;
    limit = TornLimit(size);
  }
  const size_t wrote = WritevFully(fd, iov, 4, limit);
  if (injected || wrote < size) {
    ::close(fd);
    if (!(injected && CrashSim())) {
      std::error_code ec;
      fs::remove(tmp, ec);
    }
    // Either way the blob never reached its final name, so the entry is
    // simply not persisted; a leftover tmp (simulated crash) is removed by
    // the next open.
    return Status::IoError(injected ? "injected blob write failure"
                                    : "short write creating blob " + tmp);
  }
  if (options_.fsync_writes) ::fsync(fd);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename blob into place: " + path);
  }
  if (options_.fsync_writes) SyncDirBestEffort(blobs_dir_);
  return Status::OK();
}

Status PersistentCacheStore::Put(const PersistedEntryMeta& meta,
                                 const PartitionPayload* payload) {
  if (meta.chain.size() > kMaxAttrs) {
    return Status::InvalidArgument("persist put: chain longer than 64");
  }
  const Key key{meta.fingerprint, meta.attrs.mask(), meta.rows};
  PersistedEntryMeta entry = meta;
  entry.has_payload = payload != nullptr;
  entry.blob_id = 0;
  // 1. Under the lock: dedupe against the resident entry, reserve a blob id.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Identical-content dedupe: spill-on-evict re-offers hot entries;
      // rewriting bytes already on disk would churn the journal for
      // nothing. "Carries at least as much" is enough — an entropy-only
      // put never downgrades a resident blob entry.
      const PersistedEntryMeta& have = it->second;
      const bool payload_covered = (payload == nullptr) || have.has_payload;
      const bool entropy_covered = !meta.has_entropy || have.has_entropy;
      if (payload_covered && entropy_covered && have.chain == meta.chain) {
        ++stats_.dedup_puts;
        return Status::OK();
      }
    }
    if (payload != nullptr) {
      entry.blob_id = next_blob_id_++;
      in_flight_.insert(entry.blob_id);
    }
  }
  // 2. Without it: encode, CRC and write the blob.
  Status s = payload != nullptr ? WriteBlob(entry.blob_id, *payload)
                                : Status::OK();
  // 3. Under the lock again: journal record, then the index. The last
  // commit of a key wins; the blob it replaces (or, on failure, this put's
  // own orphaned blob) is unlinked after the lock is released.
  std::string doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(entry.blob_id);
    if (s.ok()) {
      s = AppendRecordLocked(EncodePut(entry));
      // The blob never got a manifest record: it is an orphan, removed
      // here in-process or by the next open after a simulated crash.
      if (!s.ok() && payload != nullptr && !CrashSim()) {
        doomed = BlobPath(entry.blob_id);
      }
    }
    if (!s.ok()) {
      ++stats_.put_failures;
    } else {
      auto it = index_.find(key);
      if (it != index_.end()) {
        if (it->second.has_payload) doomed = BlobPath(it->second.blob_id);
        ++dead_records_;
        it->second = std::move(entry);
      } else {
        index_.emplace(key, std::move(entry));
      }
      ++stats_.puts;
      stats_.entries = index_.size();
    }
  }
  if (!doomed.empty()) {
    std::error_code ec;
    fs::remove(doomed, ec);
  }
  return s;
}

bool PersistentCacheStore::LookupExact(uint64_t fingerprint, AttrSet attrs,
                                       uint64_t rows,
                                       PersistedEntryMeta* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = index_.find(Key{fingerprint, attrs.mask(), rows});
  if (it == index_.end()) return false;
  ++stats_.hits;
  if (out != nullptr) *out = it->second;
  return true;
}

std::vector<PersistedEntryMeta> PersistentCacheStore::AllEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PersistedEntryMeta> out;
  out.reserve(index_.size());
  for (const auto& kv : index_) out.push_back(kv.second);
  return out;
}

bool PersistentCacheStore::QuarantineBlobLocked(const Key& key,
                                                uint64_t blob_id) {
  auto it = index_.find(key);
  if (it == index_.end() || !it->second.has_payload ||
      it->second.blob_id != blob_id) {
    return false;
  }
  const std::string path = BlobPath(blob_id);
  // Keep the bytes around for postmortems (tools/ajdcache scrub removes
  // them); if even the rename fails, fall back to unlinking.
  if (::rename(path.c_str(), (path + ".quarantined").c_str()) != 0) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  // Best-effort journal note: even if the append fails, the blob file is
  // out of the way and the index entry is gone for this process; the next
  // open then drops the entry as missing-blob instead.
  (void)AppendRecordLocked(EncodeQuarantine(blob_id));
  index_.erase(it);
  ++dead_records_;
  ++stats_.quarantined_blobs;
  stats_.entries = index_.size();
  return true;
}

Result<PartitionPayload> PersistentCacheStore::LoadPayload(
    const PersistedEntryMeta& meta) {
  const Key key{meta.fingerprint, meta.attrs.mask(), meta.rows};
  uint64_t blob_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.payload_loads;
    auto it = index_.find(key);
    if (it == index_.end() || !it->second.has_payload) {
      ++stats_.payload_load_failures;
      return Status::NotFound("no persisted payload for entry");
    }
    blob_id = it->second.blob_id;
    if (AJD_FAILPOINT(failpoints::kPersistBlobRead)) {
      ++stats_.payload_load_failures;
      QuarantineBlobLocked(key, blob_id);
      return Status::IoError("injected blob read failure (quarantined)");
    }
  }
  // Read and verify without the lock: a warm restart loads every blob in
  // the store, many at once.
  PartitionPayload payload;
  const int fd = ::open(BlobPath(blob_id).c_str(), O_RDONLY);
  const bool ok = fd >= 0 && ReadBlobFd(fd, &payload);
  if (fd >= 0) ::close(fd);
  if (ok) return payload;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.payload_load_failures;
  // A Put or Erase that replaced the entry mid-read unlinks the blob this
  // load was reading: a lost race, not damage, and nothing to quarantine.
  if (!QuarantineBlobLocked(key, blob_id)) {
    return Status::NotFound("persisted entry replaced during load");
  }
  return Status::IoError("blob failed verification (quarantined)");
}

Status PersistentCacheStore::Erase(uint64_t fingerprint, AttrSet attrs,
                                   uint64_t rows) {
  std::string doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{fingerprint, attrs.mask(), rows};
    auto it = index_.find(key);
    if (it == index_.end()) return Status::OK();
    Status s =
        AppendRecordLocked(EncodeErase(fingerprint, attrs.mask(), rows));
    if (!s.ok()) return s;
    if (it->second.has_payload) doomed = BlobPath(it->second.blob_id);
    index_.erase(it);
    dead_records_ += 2;  // the put it cancels plus the erase itself
    ++stats_.erases;
    stats_.entries = index_.size();
  }
  if (!doomed.empty()) {
    std::error_code ec;
    fs::remove(doomed, ec);
  }
  return Status::OK();
}

Status PersistentCacheStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = manifest_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot create " + tmp);
    out.write(kManifestMagic, sizeof(kManifestMagic));
    for (const auto& kv : index_) {
      const std::string frame = FrameRecord(EncodePut(kv.second));
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    }
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
  dead_records_ = 0;
  read_only_ = false;  // the journal was just rebuilt whole
  // Blobs no live entry references (erase-path leftovers, quarantine races)
  // are garbage now — except those of puts still writing, which commit
  // their record after this.
  std::unordered_map<uint64_t, bool> referenced;
  for (const auto& kv : index_) {
    if (kv.second.has_payload) referenced[kv.second.blob_id] = true;
  }
  for (const auto& ent : fs::directory_iterator(blobs_dir_, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() < 6 || name[0] != 'b') continue;
    if (name.compare(name.size() - 5, 5, ".blob") != 0) continue;
    uint64_t id = 0;
    size_t i = 1;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      id = id * 10 + static_cast<uint64_t>(name[i] - '0');
      ++i;
    }
    if (i == 1 || referenced.count(id) != 0 || in_flight_.count(id) != 0) {
      continue;
    }
    std::error_code rec;
    fs::remove(ent.path(), rec);
  }
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
