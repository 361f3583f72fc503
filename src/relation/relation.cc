#include "relation/relation.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "relation/row_hash.h"
#include "util/failpoint.h"

namespace ajd {

namespace {

// Process-unique relation ids. 0 is never handed out, so a moved-from husk
// reset here can never collide with a live relation.
uint64_t NextRelationUid() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Relation::Relation()
    : data_(std::make_shared<std::vector<uint32_t>>()),
      uid_(NextRelationUid()) {}

// Copies and moves are quiesced-context operations (no concurrent appender
// on `other`): they read the counters with plain loads and the buffer
// non-atomically. A copy deep-copies the buffer so the source's future
// in-place appends can never bleed into the copy.
Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      data_(std::make_shared<std::vector<uint32_t>>(*other.data_)),
      num_rows_(other.num_rows_.load(std::memory_order_relaxed)),
      distinct_prefix_rows_(
          other.distinct_prefix_rows_.load(std::memory_order_relaxed)),
      dicts_(other.dicts_),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      uid_(NextRelationUid()) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  data_ = std::make_shared<std::vector<uint32_t>>(*other.data_);
  num_rows_.store(other.num_rows_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  distinct_prefix_rows_.store(
      other.distinct_prefix_rows_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  dicts_ = other.dicts_;
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  uid_ = NextRelationUid();
  row_index_.reset();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      data_(std::move(other.data_)),
      num_rows_(other.num_rows_.load(std::memory_order_relaxed)),
      distinct_prefix_rows_(
          other.distinct_prefix_rows_.load(std::memory_order_relaxed)),
      dicts_(std::move(other.dicts_)),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      uid_(other.uid_),
      row_index_(std::move(other.row_index_)) {
  other.data_ = std::make_shared<std::vector<uint32_t>>();
  other.num_rows_.store(0, std::memory_order_relaxed);
  other.distinct_prefix_rows_.store(0, std::memory_order_relaxed);
  other.epoch_.store(0, std::memory_order_relaxed);
  other.uid_ = 0;  // husk; see header. (0 is never a live uid.)
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  data_ = std::move(other.data_);
  num_rows_.store(other.num_rows_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  distinct_prefix_rows_.store(
      other.distinct_prefix_rows_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  dicts_ = std::move(other.dicts_);
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  uid_ = other.uid_;
  row_index_ = std::move(other.row_index_);
  other.data_ = std::make_shared<std::vector<uint32_t>>();
  other.num_rows_.store(0, std::memory_order_relaxed);
  other.distinct_prefix_rows_.store(0, std::memory_order_relaxed);
  other.epoch_.store(0, std::memory_order_relaxed);
  other.uid_ = 0;
  return *this;
}

RowsSnapshot Relation::Snapshot() const {
  RowsSnapshot snap;
  // Order matters: the row count is loaded FIRST (acquire), the buffer
  // second. The buffer pointer only ever moves forward (regrows copy the
  // full committed prefix), so the buffer loaded after the count is the
  // same or newer and contains at least `num_rows` committed rows.
  snap.num_rows = num_rows_.load(std::memory_order_acquire);
  snap.keepalive = std::atomic_load_explicit(&data_, std::memory_order_acquire);
  snap.data = snap.keepalive->data();
  snap.width = NumAttrs();
  return snap;
}

namespace {

template <typename Word>
uint64_t Load(const char* p) {
  Word w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Up to 8 bytes of `p` as one word: the first 8 when n >= 8, otherwise
/// all n packed with overlapping loads (injective for a given n).
uint64_t Head(const char* p, size_t n) {
  if (n >= 8) return Load<uint64_t>(p);
  if (n >= 4) return Load<uint32_t>(p) | Load<uint32_t>(p + n - 4) << 32;
  if (n == 0) return 0;
  return static_cast<uint64_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint64_t>(static_cast<uint8_t>(p[n / 2])) << 8 |
         static_cast<uint64_t>(static_cast<uint8_t>(p[n - 1])) << 16;
}

/// Folded 64x64->128 multiply (the wyhash mixer).
uint64_t Fold(uint64_t a, uint64_t b) {
  const __uint128_t product = static_cast<__uint128_t>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

constexpr uint64_t kHashA = 0xa0761d6478bd642fULL;
constexpr uint64_t kHashB = 0xe7037ed1a0b428dbULL;

}  // namespace

Dictionary::Key Dictionary::KeyOf(std::string_view value) {
  const size_t n = value.size();
  const char* p = value.data();
  const uint64_t prefix = Head(p, n);
  uint64_t h = Fold(prefix ^ kHashA, n ^ kHashB);
  for (size_t i = 8; i < n; i += 8) {
    h = Fold(h ^ Head(p + i, std::min<size_t>(n - i, 8)), kHashB);
  }
  const uint32_t length_byte = static_cast<uint32_t>(std::min<size_t>(n, 255));
  return {h, prefix, static_cast<uint32_t>(h >> 40) << 8 | length_byte};
}

size_t Dictionary::Probe(const Key& key, std::string_view value) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = key.hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.code == kNoCode) return i;
    // Equal check words mean equal lengths below 255, and a value of at
    // most 8 bytes is all prefix: only longer values need the full compare.
    if (s.check == key.check && s.prefix == key.prefix &&
        (value.size() <= 8 || values_[s.code] == value)) {
      return i;
    }
  }
}

void Dictionary::Rehash(size_t capacity) {
  std::vector<Slot>(capacity).swap(slots_);
  for (uint32_t code = 0; code < values_.size(); ++code) {
    const Key key = KeyOf(values_[code]);
    slots_[Probe(key, values_[code])] = {key.prefix, key.check, code};
  }
}

uint32_t Dictionary::Intern(std::string_view value) {
  // Load factor <= 3/4. Growing before the probe lets an insert claim the
  // empty slot the probe ends at (a hit may grow the table one insert early).
  if ((values_.size() + 1) * 4 > slots_.size() * 3) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  const Key key = KeyOf(value);
  const size_t i = Probe(key, value);
  if (slots_[i].code != kNoCode) return slots_[i].code;
  if (values_.size() >= kNoCode) {
    throw std::length_error("dictionary holds 2^32 - 1 values");
  }
  // Store the value before claiming the slot: if the copy throws, the
  // table still matches values_.
  const uint32_t code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(value);
  slots_[i] = {key.prefix, key.check, code};
  return code;
}

void Dictionary::TruncateTo(uint32_t size) {
  if (size >= values_.size()) return;
  // Newest code first. The table equals the sequential insertion of codes
  // 0..c, and inserting c filled exactly one slot, so emptying that slot
  // leaves the sequential insertion of codes 0..c-1.
  for (uint32_t code = static_cast<uint32_t>(values_.size()); code-- > size;) {
    slots_[Probe(KeyOf(values_[code]), values_[code])] = Slot{};
  }
  values_.resize(size);
}

std::optional<uint32_t> Dictionary::Lookup(std::string_view value) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[Probe(KeyOf(value), value)];
  if (s.code == kNoCode) return std::nullopt;
  return s.code;
}

const std::string& Dictionary::ValueOf(uint32_t code) const {
  AJD_CHECK(code < values_.size());
  return values_[code];
}

Result<Relation> Relation::FromRows(Schema schema,
                                    std::vector<std::vector<uint32_t>> rows,
                                    bool dedupe) {
  const uint32_t width = schema.size();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  RelationBuilder b(std::move(schema));
  b.Reserve(rows.size());
  for (const auto& row : rows) b.AddRow(row);
  return std::move(b).Build(dedupe);
}

Status Relation::AppendCodesUnchecked(const std::vector<uint32_t>& flat,
                                      uint64_t rows, bool dedupe) {
  const uint32_t width = NumAttrs();
  if (rows == 0 || width == 0) return Status::OK();
  const uint64_t committed = num_rows_.load(std::memory_order_relaxed);
  uint64_t appended = 0;
  try {
    AJD_INJECT_BAD_ALLOC(failpoints::kRelationAppendReserve);
    if (dedupe && row_index_ == nullptr) {
      // First deduped append: index every existing row once (O(N)); later
      // appends pay only their own rows.
      row_index_ = std::make_unique<TupleCounter>(width, committed + rows);
      for (uint64_t i = 0; i < committed; ++i) row_index_->Add(Row(i));
    }
    // RCU storage discipline: concurrent readers hold RowsSnapshot pins
    // into the current buffer, so committed bytes are immutable. Reserve
    // the worst-case capacity UP FRONT — if the current buffer can't hold
    // the whole batch, the committed prefix is copied into a fresh buffer
    // published with an atomic store (pinned readers keep the old one
    // alive) and every per-row insert below is then guaranteed in place.
    const uint64_t need = (committed + rows) * static_cast<uint64_t>(width);
    std::vector<uint32_t>* buf = data_.get();
    if (need > buf->capacity()) {
      auto grown = std::make_shared<std::vector<uint32_t>>();
      grown->reserve(std::max<uint64_t>(2 * buf->capacity(), need));
      grown->insert(grown->end(), buf->begin(), buf->end());
      buf = grown.get();
      std::atomic_store_explicit(&data_, std::move(grown),
                                 std::memory_order_release);
    }
    std::vector<uint64_t> max_code(width, 0);
    for (uint64_t i = 0; i < rows; ++i) {
      AJD_INJECT_BAD_ALLOC(failpoints::kRelationAppendStage);
      const uint32_t* row = flat.data() + i * width;
      if (dedupe) {
        const size_t before = row_index_->NumDistinct();
        row_index_->Add(row);
        if (row_index_->NumDistinct() == before) continue;  // already present
      } else if (row_index_ != nullptr) {
        // Keep a previously built index exact across multiset appends too.
        row_index_->Add(row);
      }
      buf->insert(buf->end(), row, row + width);
      ++appended;
      for (uint32_t a = 0; a < width; ++a) {
        max_code[a] = std::max<uint64_t>(max_code[a], row[a]);
      }
    }
    if (appended == 0) {
      // Every row was a duplicate: nothing publishes, but a freshly built
      // index may still prove the committed rows distinct.
      RaiseDistinctPrefix(committed);
      return Status::OK();
    }
    if (!RowsFit(committed, appended)) {
      throw std::length_error("relation would pass " +
                              std::to_string(kMaxRelationRows) + " rows");
    }
    // Domain sizes grow before the rows publish so a reader that sees the
    // new rows also sees domains covering them. (Schema counters are
    // appender-side state; concurrent readers only use the attribute
    // count, which never changes.)
    for (uint32_t a = 0; a < width; ++a) {
      schema_.EnsureDomainSize(a, max_code[a] + 1);
    }
  } catch (const std::exception& e) {
    // All-or-nothing rollback. Nothing was published (num_rows_/epoch_
    // advance only below), so readers never saw the staged rows; truncate
    // them out of the active buffer (shrinking resize: no reallocation, no
    // throw, committed bytes untouched) and drop the dedupe index, which
    // may hold rows from the failed batch — it rebuilds lazily on the next
    // deduped append. A mid-batch regrow needs no undo: the fresh buffer
    // holds the full committed prefix and truncates identically.
    data_->resize(committed * static_cast<size_t>(width));
    row_index_.reset();
    return Status::CapacityExceeded(
        std::string("append failed mid-batch; relation rolled back: ") +
        e.what());
  }
  // Publication order: row bytes are fully written above; release the row
  // count, then release the epoch. Readers pair acquire loads in the
  // opposite order (epoch first), so a reader at epoch e sees at least the
  // rows of epoch e. Stores cannot fail: the batch is committed. The
  // distinct-prefix watermark goes first, so a reader that sees the new
  // row count never finds the watermark behind a rise this batch made.
  RaiseDistinctPrefix(committed + appended);
  num_rows_.store(committed + appended, std::memory_order_release);
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  return Status::OK();
}

Status Relation::AppendBatch(const std::vector<std::vector<uint32_t>>& rows,
                             bool dedupe) {
  const uint32_t width = NumAttrs();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "append row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  try {
    std::vector<uint32_t> flat;
    flat.reserve(rows.size() * width);
    for (const auto& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return AppendCodesUnchecked(flat, rows.size(), dedupe);
  } catch (const std::exception& e) {
    // Flattening failed before any relation state was touched.
    return Status::CapacityExceeded(
        std::string("append failed staging the batch: ") + e.what());
  }
}

Status Relation::AppendStringBatch(
    const std::vector<std::vector<std::string>>& rows, bool dedupe) {
  const uint32_t width = NumAttrs();
  for (const auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "append row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
  }
  std::vector<std::string_view> fields;
  try {
    fields.reserve(rows.size() * width);
    for (const auto& row : rows) {
      fields.insert(fields.end(), row.begin(), row.end());
    }
  } catch (const std::exception& e) {
    return Status::CapacityExceeded(
        std::string("append failed staging the batch: ") + e.what());
  }
  return AppendStringBatch(fields.data(), rows.size(), dedupe);
}

Status Relation::AppendStringBatch(const std::string_view* fields,
                                   uint64_t rows, bool dedupe) {
  const uint32_t width = NumAttrs();
  // A non-empty relation built from raw codes has no dictionary to intern
  // into: inventing one here would assign fresh codes starting at 0, which
  // ALIAS the existing raw code space — silent corruption, not an append.
  if (NumRows() > 0) {
    for (uint32_t a = 0; a < width; ++a) {
      if (a >= dicts_.size() || !dicts_[a].has_value()) {
        return Status::InvalidArgument(
            "attribute " + std::to_string(a) +
            " holds raw codes (no dictionary); string appends require a "
            "dictionary-encoded relation (or an empty one)");
      }
    }
  }
  // Interning may create dictionary entries for rows that dedupe then
  // drops; that only grows a dictionary, never the relation's data, so the
  // append-only contract holds either way. On FAILURE, though, the batch's
  // entries are rolled back below so the call leaves the dictionaries
  // bit-identical: record each dictionary's pre-batch size (UINT32_MAX =
  // "did not exist") before interning anything.
  if (dicts_.size() < width) dicts_.resize(width);
  std::vector<uint32_t> dict_sizes(width, UINT32_MAX);
  for (uint32_t a = 0; a < width; ++a) {
    if (dicts_[a].has_value()) dict_sizes[a] = dicts_[a]->size();
  }
  auto roll_back_dicts = [&] {
    for (uint32_t a = 0; a < width; ++a) {
      if (dict_sizes[a] == UINT32_MAX) {
        dicts_[a].reset();  // created by this batch
      } else {
        dicts_[a]->TruncateTo(dict_sizes[a]);
      }
    }
  };
  Status append;
  try {
    std::vector<uint32_t> flat(rows * width);
    for (uint32_t a = 0; a < width && rows > 0; ++a) {
      if (!dicts_[a].has_value()) dicts_[a].emplace();
    }
    const std::string_view* value = fields;
    uint32_t* code = flat.data();
    for (uint64_t i = 0; i < rows; ++i) {
      for (uint32_t a = 0; a < width; ++a) {
        AJD_INJECT_BAD_ALLOC(failpoints::kRelationIntern);
        *code++ = dicts_[a]->Intern(*value++);
      }
    }
    append = AppendCodesUnchecked(flat, rows, dedupe);
  } catch (const std::exception& e) {
    roll_back_dicts();
    return Status::CapacityExceeded(
        std::string("string append failed interning; rolled back: ") +
        e.what());
  }
  if (!append.ok()) roll_back_dicts();
  return append;
}

void Relation::RaiseDistinctPrefix(uint64_t rows) {
  // `rows` is never below the committed count, so this never lowers it.
  if (row_index_ != nullptr && row_index_->NumDistinct() == rows) {
    distinct_prefix_rows_.store(rows, std::memory_order_release);
  }
}

bool Relation::HasDuplicateRows() const {
  return NumDistinctRows() != NumRows();
}

uint64_t Relation::NumDistinctRows() const {
  const uint64_t n = NumRows();
  if (n <= DistinctPrefixRows()) return n;
  TupleCounter counter(NumAttrs(), n);
  for (uint64_t i = 0; i < n; ++i) counter.Add(Row(i));
  return counter.NumDistinct();
}

bool Relation::ContainsRow(const uint32_t* row) const {
  const uint32_t width = NumAttrs();
  const uint64_t n = NumRows();
  for (uint64_t i = 0; i < n; ++i) {
    if (std::memcmp(Row(i), row, width * sizeof(uint32_t)) == 0) return true;
  }
  return false;
}

void Relation::SetDict(uint32_t pos, Dictionary d) {
  AJD_CHECK(pos < NumAttrs());
  if (dicts_.size() < NumAttrs()) dicts_.resize(NumAttrs());
  dicts_[pos] = std::move(d);
}

std::string Relation::RowToString(uint64_t i) const {
  std::string out = "(";
  for (uint32_t a = 0; a < NumAttrs(); ++a) {
    if (a > 0) out += ", ";
    uint32_t code = At(i, a);
    const Dictionary* d = dict(a);
    out += d != nullptr ? d->ValueOf(code) : std::to_string(code);
  }
  out += ")";
  return out;
}

std::string Relation::ToString(uint64_t max_rows) const {
  const uint64_t n = NumRows();
  std::string out = "Relation[" + schema_.ToString() + "] N=" +
                    std::to_string(n) + "\n";
  uint64_t shown = std::min(n, max_rows);
  for (uint64_t i = 0; i < shown; ++i) {
    out += "  " + RowToString(i) + "\n";
  }
  if (shown < n) {
    out += "  ... (" + std::to_string(n - shown) + " more)\n";
  }
  return out;
}

RelationBuilder::RelationBuilder(Schema schema)
    : schema_(std::move(schema)) {
  dicts_.resize(schema_.size());
}

void RelationBuilder::AddRow(const std::vector<uint32_t>& row) {
  AJD_CHECK_MSG(row.size() == schema_.size(),
                "row width %zu != schema width %u", row.size(),
                schema_.size());
  data_.insert(data_.end(), row.begin(), row.end());
  ++num_rows_;
}

void RelationBuilder::AddRowPtr(const uint32_t* row) {
  data_.insert(data_.end(), row, row + schema_.size());
  ++num_rows_;
}

void RelationBuilder::AddStringRow(const std::vector<std::string>& row) {
  AJD_CHECK_MSG(row.size() == schema_.size(),
                "row width %zu != schema width %u", row.size(),
                schema_.size());
  const std::vector<std::string_view> fields(row.begin(), row.end());
  AddStringRows(fields.data(), 1);
}

void RelationBuilder::AddStringRows(const std::string_view* fields,
                                    uint64_t rows) {
  const uint32_t width = schema_.size();
  for (uint32_t a = 0; a < width && rows > 0; ++a) {
    if (!dicts_[a].has_value()) dicts_[a].emplace();
  }
  for (uint64_t i = 0; i < rows; ++i) {
    for (uint32_t a = 0; a < width; ++a) {
      data_.push_back(dicts_[a]->Intern(*fields++));
    }
    ++num_rows_;
  }
}

void RelationBuilder::Reserve(uint64_t rows) {
  data_.reserve(data_.size() + rows * schema_.size());
}

Relation RelationBuilder::Build(bool dedupe) && {
  Relation r;
  r.schema_ = std::move(schema_);
  r.dicts_ = std::move(dicts_);
  const uint32_t width = r.schema_.size();
  if (dedupe && num_rows_ > 0 && width > 0) {
    TupleCounter counter(width, num_rows_);
    std::vector<uint32_t> unique;
    unique.reserve(data_.size());
    for (uint64_t i = 0; i < num_rows_; ++i) {
      const uint32_t* row = data_.data() + i * width;
      size_t before = counter.NumDistinct();
      counter.Add(row);
      if (counter.NumDistinct() > before) {
        unique.insert(unique.end(), row, row + width);
      }
    }
    r.data_ = std::make_shared<std::vector<uint32_t>>(std::move(unique));
    r.num_rows_.store(r.data_->size() / width, std::memory_order_relaxed);
    r.distinct_prefix_rows_.store(r.data_->size() / width,
                                  std::memory_order_relaxed);
  } else {
    r.data_ = std::make_shared<std::vector<uint32_t>>(std::move(data_));
    r.num_rows_.store(num_rows_, std::memory_order_relaxed);
  }
  // Grow domain sizes to cover observed codes.
  const uint64_t built_rows = r.NumRows();
  for (uint32_t a = 0; a < width; ++a) {
    uint64_t max_code = 0;
    for (uint64_t i = 0; i < built_rows; ++i) {
      max_code = std::max<uint64_t>(max_code, r.Row(i)[a]);
    }
    if (built_rows > 0) r.schema_.EnsureDomainSize(a, max_code + 1);
  }
  return r;
}

}  // namespace ajd
