#include "io/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "util/failpoint.h"

namespace ajd {

namespace {

/// Most bytes one read takes from the stream.
constexpr size_t kBlockBytes = size_t{1} << 20;

/// Rows per batch when ReadCsv builds a whole relation.
constexpr uint64_t kReadCsvBatchRows = 16384;

/// Reads a CSV stream block by block and splits it into row-major field
/// views. A batch's fields live in the block buffer, or — when they need
/// unescaping — in a per-batch arena; both stay put from the end of the
/// scan until the next batch starts, which is when the views are handed
/// out. While a batch is being scanned the buffer may grow or compact, so
/// fields are recorded as offsets and resolved to views only once the
/// batch is complete.
class CsvScanner {
 public:
  CsvScanner(std::istream& in, char separator)
      : in_(in), separator_(separator) {
    eof_ = !in_.good();
    if (!eof_) {
      const std::streampos pos = in_.tellg();
      if (pos != std::streampos(-1)) start_offset_ = static_cast<int64_t>(pos);
    }
  }

  /// Finds the next non-empty line and splits it into the current batch.
  /// Returns its number of fields, or 0 at end of stream.
  size_t ScanRow() {
    size_t begin = 0;
    size_t end = 0;
    if (!NextLine(&begin, &end)) return 0;
    const size_t before = refs_.size();
    SplitLine(begin, end);
    return refs_.size() - before;
  }

  /// The current batch's fields, resolved to views. Valid until
  /// StartBatch().
  const std::vector<std::string_view>& Fields() {
    fields_.resize(refs_.size());
    const char* base = buf_.data() + batch_start_;
    for (size_t i = 0; i < refs_.size(); ++i) {
      const FieldRef& ref = refs_[i];
      const char* data = ref.offset & kInArena
                             ? arena_.data() + (ref.offset & ~kInArena)
                             : base + ref.offset;
      fields_[i] = std::string_view(data, ref.size);
    }
    return fields_;
  }

  /// Drops the current batch: its bytes become reusable buffer space.
  void StartBatch() {
    batch_start_ = scan_;
    refs_.clear();
    arena_.clear();
  }

  /// Stream offset just past the last scanned row (end of stream once a
  /// scan has hit it), or -1 when the stream reports no position.
  int64_t Offset() const {
    return start_offset_ < 0 ? -1
                             : start_offset_ + static_cast<int64_t>(
                                                   discarded_ + scan_);
  }

 private:
  /// Marks a FieldRef whose bytes are in the arena, not the block buffer.
  static constexpr size_t kInArena = ~(~size_t{0} >> 1);

  /// A field's bytes: from the batch's first byte in the buffer, or from
  /// the arena's start when `offset` carries kInArena.
  struct FieldRef {
    size_t offset;
    size_t size;
  };

  /// Sets [*begin, *end) to the next non-empty line (without its '\n') and
  /// moves past it. False at end of stream.
  bool NextLine(size_t* begin, size_t* end) {
    size_t search = scan_;
    for (;;) {
      const char* base = buf_.data();
      const char* nl =
          search < buf_.size()
              ? static_cast<const char*>(
                    std::memchr(base + search, '\n', buf_.size() - search))
              : nullptr;
      if (nl != nullptr) {
        const size_t at = static_cast<size_t>(nl - base);
        *begin = scan_;
        *end = at;
        scan_ = search = at + 1;
        if (*end > *begin) return true;
        continue;  // empty line
      }
      search = buf_.size();
      const size_t shift = Fill();
      search -= shift;
      if (search == buf_.size() && eof_) {
        // The last line has no '\n'.
        if (scan_ == buf_.size()) return false;
        *begin = scan_;
        *end = scan_ = buf_.size();
        return true;
      }
    }
  }

  /// Appends more stream bytes to the buffer, first compacting away the
  /// bytes before the current batch when they outweigh the live ones.
  /// Takes only what the stream already holds (at most kBlockBytes), or
  /// blocks for a single byte when it holds nothing: a pipe-fed stream
  /// must never stall a batch whose last row has already arrived. Returns
  /// how far the compaction moved the buffer's contents. Sets eof_ at end
  /// of stream.
  size_t Fill() {
    if (eof_) return 0;
    size_t shift = 0;
    if (batch_start_ > 0 && batch_start_ >= buf_.size() - batch_start_) {
      shift = batch_start_;
      buf_.erase(0, shift);
      discarded_ += shift;
      scan_ -= shift;
      batch_start_ = 0;
    }
    std::streambuf* sb = in_.rdbuf();
    const std::streamsize avail = sb->in_avail();
    if (avail > 0) {
      const size_t want = std::min(static_cast<size_t>(avail), kBlockBytes);
      const size_t old = buf_.size();
      buf_.resize(old + want);
      const std::streamsize got =
          sb->sgetn(buf_.data() + old, static_cast<std::streamsize>(want));
      buf_.resize(old + static_cast<size_t>(std::max<std::streamsize>(got, 0)));
      if (got > 0) return shift;
    } else if (avail == 0) {
      const int c = sb->sbumpc();
      if (c != std::char_traits<char>::eof()) {
        buf_.push_back(static_cast<char>(c));
        return shift;
      }
    }
    eof_ = true;
    in_.setstate(std::ios::eofbit);
    return shift;
  }

  /// Splits buf_[begin, end) into fields. A field free of '"' and '\r' is
  /// a view of the buffer; any other goes through Unescape.
  void SplitLine(size_t begin, size_t end) {
    const char* p = buf_.data();
    size_t i = begin;
    for (;;) {
      const size_t field = i;
      while (i < end && p[i] != '"' && p[i] != '\r' && p[i] != separator_) ++i;
      if (i < end && (p[i] == '"' || p[i] == '\r')) {
        i = Unescape(field, end);
      } else {
        refs_.push_back({field - batch_start_, i - field});
      }
      if (i >= end) return;
      ++i;  // past the separator
    }
  }

  /// Unescapes the field starting at buf_[i] into the arena and returns
  /// where it ends (its separator, or `end`). Quotes toggle quoting
  /// anywhere in a field, a doubled quote inside quotes is a literal
  /// quote, and '\r' outside quotes is dropped.
  size_t Unescape(size_t i, size_t end) {
    const char* p = buf_.data();
    const size_t from = arena_.size();
    bool quoted = false;
    for (; i < end; ++i) {
      const char c = p[i];
      if (quoted) {
        if (c != '"') {
          arena_ += c;
        } else if (i + 1 < end && p[i + 1] == '"') {
          arena_ += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == separator_) {
        break;
      } else if (c != '\r') {
        arena_ += c;
      }
    }
    refs_.push_back({from | kInArena, arena_.size() - from});
    return i;
  }

  std::istream& in_;
  const char separator_;
  bool eof_ = false;
  int64_t start_offset_ = -1;  ///< tellg() at construction, -1 if none
  size_t discarded_ = 0;       ///< stream bytes compacted out of buf_
  std::string buf_;
  size_t batch_start_ = 0;     ///< the current batch's first byte in buf_
  size_t scan_ = 0;            ///< first byte in buf_ not yet scanned
  std::string arena_;
  std::vector<FieldRef> refs_;
  std::vector<std::string_view> fields_;
};

bool NeedsQuoting(const std::string& s, char sep) {
  return s.find(sep) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos;
}

std::string QuoteField(const std::string& s, char sep) {
  if (!NeedsQuoting(s, sep)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Status ScanCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               const CsvBatch& batch)>& sink) {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  CsvScanner scanner(in, options.separator);
  const size_t width = scanner.ScanRow();
  if (width == 0) return Status::InvalidArgument("empty CSV input");
  std::vector<std::string> header;
  uint64_t rows = 0;
  if (options.has_header) {
    const std::vector<std::string_view>& names = scanner.Fields();
    header.assign(names.begin(), names.end());
    scanner.StartBatch();
  } else {
    header.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      header.push_back("col" + std::to_string(i));
    }
    rows = 1;
  }
  bool delivered = false;
  for (;;) {
    bool more = true;
    while (rows < batch_rows) {
      const size_t got = scanner.ScanRow();
      if (got == 0) {
        more = false;
        break;
      }
      if (got != width) {
        return Status::InvalidArgument(
            "ragged CSV row: expected " + std::to_string(width) +
            " fields, got " + std::to_string(got));
      }
      ++rows;
    }
    // At end of stream only a tail is flushed — or, for a header-only
    // file, one empty batch so the sink still learns the schema.
    if (!more && rows == 0 && delivered) break;
    Status s =
        sink(header, CsvBatch{scanner.Fields(), rows, scanner.Offset()});
    if (!s.ok()) return s;
    if (!more) break;
    delivered = true;
    scanner.StartBatch();
    rows = 0;
  }
  return Status::OK();
}

Result<Relation> ReadCsv(std::istream& in, const CsvOptions& options) {
  std::optional<RelationBuilder> builder;
  // A bad header only surfaces once the whole input has scanned: a ragged
  // row anywhere in it is the error to report.
  Status schema_status;
  Status scanned = ScanCsvBatches(
      in, options, kReadCsvBatchRows,
      [&](const std::vector<std::string>& header, const CsvBatch& batch) {
        if (!builder.has_value() && schema_status.ok()) {
          Result<Schema> schema = Schema::MakeUniform(header, 0);
          if (!schema.ok()) {
            schema_status = schema.status();
          } else {
            builder.emplace(std::move(schema).value());
          }
        }
        if (builder.has_value()) {
          builder->AddStringRows(batch.fields.data(), batch.rows);
        }
        return Status::OK();
      });
  if (!scanned.ok()) return scanned;
  if (!schema_status.ok()) return schema_status;
  return std::move(*builder).Build(options.dedupe);
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadCsv(in, options);
}

Status ReadCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink) {
  return ScanCsvBatches(
      in, options, batch_rows,
      [&sink](const std::vector<std::string>& header, const CsvBatch& batch) {
        const size_t width = header.size();
        std::vector<std::vector<std::string>> rows(batch.rows);
        auto field = batch.fields.begin();
        for (auto& row : rows) {
          row.assign(field, field + width);
          field += width;
        }
        return sink(header, std::move(rows));
      });
}

Status ReadCsvFileBatches(
    const std::string& path, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadCsvBatches(in, options, batch_rows, sink);
}

Status ValidateCsvHeader(const std::vector<std::string>& header,
                         const Schema& schema, bool names_meaningful) {
  if (header.size() != schema.size()) {
    return Status::InvalidArgument(
        "CSV width " + std::to_string(header.size()) +
        " does not match relation width " + std::to_string(schema.size()));
  }
  if (!names_meaningful) return Status::OK();  // synthetic colN names
  // Matching width alone would let a column-reordered file append values
  // into the wrong attributes silently; with a real header the names must
  // line up positionally.
  for (uint32_t a = 0; a < schema.size(); ++a) {
    if (header[a] != schema.attr(a).name) {
      return Status::InvalidArgument(
          "CSV column " + std::to_string(a) + " is named '" + header[a] +
          "' but the relation attribute is '" + schema.attr(a).name + "'");
    }
  }
  return Status::OK();
}

Status AppendCsvBatches(std::istream& in, Relation* r,
                        const CsvOptions& options, uint64_t batch_rows,
                        CsvIngestSummary* summary) {
  if (r == nullptr) {
    return Status::InvalidArgument("AppendCsvBatches: relation is null");
  }
  CsvIngestSummary local;
  CsvIngestSummary* out = summary != nullptr ? summary : &local;
  *out = CsvIngestSummary{};
  return ScanCsvBatches(
      in, options, batch_rows,
      [r, &options, out](const std::vector<std::string>& header,
                         const CsvBatch& batch) {
        Status ok =
            ValidateCsvHeader(header, r->schema(), options.has_header);
        if (!ok.ok()) return ok;
        if (AJD_FAILPOINT(failpoints::kCsvBatch)) {
          return Status::IoError("injected fault: io/csv_batch");
        }
        if (batch.rows > 0) {
          const uint64_t before = r->NumRows();
          Status append = r->AppendStringBatch(batch.fields.data(), batch.rows,
                                               options.dedupe);
          if (!append.ok()) return append;
          out->rows_read += batch.rows;
          out->rows_appended += r->NumRows() - before;
          ++out->batches_committed;
        }
        if (batch.end_offset >= 0) out->resume_offset = batch.end_offset;
        return Status::OK();
      });
}

Status ResumeCsvIngest(std::istream& in, Relation* r,
                       const CsvOptions& options, uint64_t batch_rows,
                       int64_t resume_offset, CsvIngestSummary* summary) {
  if (r == nullptr) {
    return Status::InvalidArgument("ResumeCsvIngest: relation is null");
  }
  if (resume_offset < 0) {
    return Status::InvalidArgument(
        "ResumeCsvIngest: negative resume offset (the failed ingest "
        "reported the stream as not resumable)");
  }
  // The failed pass may have left the stream failed or at EOF; both must
  // clear before seekg can position it.
  in.clear();
  in.seekg(static_cast<std::streamoff>(resume_offset));
  if (!in) {
    return Status::IoError("ResumeCsvIngest: cannot seek to offset " +
                           std::to_string(resume_offset));
  }
  // The header row (if the file had one) lies BEFORE the resume offset —
  // the original pass consumed and validated it — so the continuation
  // parses data rows only. Width validation still applies per batch.
  CsvOptions resumed = options;
  resumed.has_header = false;
  return AppendCsvBatches(in, r, resumed, batch_rows, summary);
}

Status WriteCsv(const Relation& r, std::ostream& out, char separator) {
  for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
    if (a > 0) out << separator;
    out << QuoteField(r.schema().attr(a).name, separator);
  }
  out << '\n';
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    for (uint32_t a = 0; a < r.NumAttrs(); ++a) {
      if (a > 0) out << separator;
      uint32_t code = r.At(i, a);
      const Dictionary* d = r.dict(a);
      if (d != nullptr) {
        out << QuoteField(d->ValueOf(code), separator);
      } else {
        out << code;
      }
    }
    out << '\n';
  }
  if (!out) return Status::IoError("stream write failure");
  return Status::OK();
}

Status WriteCsvFile(const Relation& r, const std::string& path,
                    char separator) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteCsv(r, out, separator);
}

}  // namespace ajd
