// The line-at-a-time CSV reader the block scanner (io/csv.cc) replaced,
// kept as the differential oracle for tests/csv_scanner_test.cc: one
// std::getline per row, SplitCsvLine building each field one character at
// a time, nested string vectors per batch, and resume offsets from
// tellg(). Its output defines the dialect; the scanner must match it
// byte for byte, status for status.
#ifndef AJD_TESTS_CSV_ORACLE_H_
#define AJD_TESTS_CSV_ORACLE_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "io/csv.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {
namespace csv_oracle {

using BatchSink =
    std::function<Status(const std::vector<std::string>& header,
                         std::vector<std::vector<std::string>> batch)>;

// Splits one CSV line honoring double-quoted fields with doubled quotes.
inline std::vector<std::string> SplitCsvLine(const std::string& line,
                                             char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

inline Status ReadCsvBatches(std::istream& in, const CsvOptions& options,
                             uint64_t batch_rows, const BatchSink& sink) {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  std::string line;
  std::vector<std::string> header;
  bool have_header = false;
  std::vector<std::vector<std::string>> batch;
  bool delivered = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.separator);
    if (!have_header) {
      if (options.has_header) {
        header = std::move(fields);
        have_header = true;
        continue;
      }
      header.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        header.push_back("col" + std::to_string(i));
      }
      have_header = true;
    }
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "ragged CSV row: expected " + std::to_string(header.size()) +
          " fields, got " + std::to_string(fields.size()));
    }
    batch.push_back(std::move(fields));
    if (batch.size() >= batch_rows) {
      Status s = sink(header, std::move(batch));
      if (!s.ok()) return s;
      delivered = true;
      batch.clear();
    }
  }
  if (!have_header) return Status::InvalidArgument("empty CSV input");
  if (!batch.empty() || !delivered) {
    Status s = sink(header, std::move(batch));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

inline Result<Relation> ReadCsv(std::istream& in, const CsvOptions& options) {
  std::string line;
  std::vector<std::string> header;
  bool have_header = false;
  std::vector<std::vector<std::string>> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.separator);
    if (!have_header) {
      if (options.has_header) {
        header = std::move(fields);
        have_header = true;
        continue;
      }
      header.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        header.push_back("col" + std::to_string(i));
      }
      have_header = true;
    }
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "ragged CSV row: expected " + std::to_string(header.size()) +
          " fields, got " + std::to_string(fields.size()));
    }
    rows.push_back(std::move(fields));
  }
  if (!have_header) return Status::InvalidArgument("empty CSV input");

  Result<Schema> schema = Schema::MakeUniform(header, 0);
  if (!schema.ok()) return schema.status();
  RelationBuilder b(std::move(schema).value());
  b.Reserve(rows.size());
  for (const auto& row : rows) b.AddStringRow(row);
  return std::move(b).Build(options.dedupe);
}

inline Status AppendCsvBatches(std::istream& in, Relation* r,
                               const CsvOptions& options, uint64_t batch_rows,
                               CsvIngestSummary* out) {
  *out = CsvIngestSummary{};
  return csv_oracle::ReadCsvBatches(
      in, options, batch_rows,
      [r, &in, &options, out](const std::vector<std::string>& header,
                              std::vector<std::vector<std::string>> batch) {
        Status ok =
            ValidateCsvHeader(header, r->schema(), options.has_header);
        if (!ok.ok()) return ok;
        if (!batch.empty()) {
          const uint64_t before = r->NumRows();
          Status append = r->AppendStringBatch(batch, options.dedupe);
          if (!append.ok()) return append;
          out->rows_read += batch.size();
          out->rows_appended += r->NumRows() - before;
          ++out->batches_committed;
        }
        // Right after getline consumed the batch's last row, tellg() is
        // the offset just past it; at the tail the stream sits at EOF and
        // clearing eofbit first yields the end-of-file offset.
        std::streampos pos = in.tellg();
        if (pos == std::streampos(-1) && in.eof()) {
          in.clear();
          pos = in.tellg();
        }
        if (pos != std::streampos(-1)) {
          out->resume_offset = static_cast<int64_t>(pos);
        }
        return Status::OK();
      });
}

}  // namespace csv_oracle
}  // namespace ajd

#endif  // AJD_TESTS_CSV_ORACLE_H_
