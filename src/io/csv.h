// CSV input/output for relations. All columns are dictionary-encoded
// strings; the first row may carry attribute names.
//
// The accepted dialect:
//   - A row ends at '\n'. A quoted field cannot span lines: a '\n' inside
//     quotes still ends the row (and leaves the quote unterminated).
//   - Empty lines are skipped; a line holding only '\r' is a row of one
//     empty field.
//   - Fields are split at the separator outside quotes.
//   - A '"' toggles quoting anywhere in a field; it is not kept. Inside
//     quotes, a doubled quote "" is one literal '"'.
//   - '\r' outside quotes is dropped (so "\r\n" line ends work); inside
//     quotes it is kept.
//
// Every reader goes through one block scanner: it reads the stream in
// blocks of up to 1 MiB, finds row ends with memchr, and hands each batch
// on as string_views into the block (fields that need unescaping go
// through a per-batch arena). No field becomes a std::string on its way to
// a dictionary code; only ReadCsvBatches builds strings, for its callers.
#ifndef AJD_IO_CSV_H_
#define AJD_IO_CSV_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// Options for CSV parsing.
struct CsvOptions {
  char separator = ',';
  bool has_header = true;   ///< First row holds attribute names.
  bool dedupe = true;       ///< Build a set (drop duplicate rows).
};

/// One scanned batch, handed to a ScanCsvBatches sink.
struct CsvBatch {
  /// `rows` rows back to back, header-width values each. The views point
  /// into the scanner's buffers and are valid only during the sink call.
  const std::vector<std::string_view>& fields;
  uint64_t rows;
  /// Stream offset just past the batch's last row (end of stream for the
  /// final flush); -1 when the stream reports no position (tellg() = -1
  /// at the start of the scan).
  int64_t end_offset;
};

/// The scanner every reader below uses: parses `in` at most `batch_rows`
/// rows at a time and hands each batch, as views, to `sink` along with the
/// header names (the file's first non-empty row with options.has_header,
/// else "col0".."col{k-1}" sized by that row). Stops at the first non-OK
/// sink status and returns it; ragged rows and empty input yield
/// InvalidArgument. The sink also runs (with an empty batch) for a
/// header-only file, so callers always learn the schema.
///
/// It reads only what the stream already buffers (at most 1 MiB at a
/// time) and otherwise blocks for one byte at a time, so a batch reaches
/// the sink as soon as its last row has arrived, even from a pipe. It
/// reads ahead of the rows it has delivered: after an error, the stream's
/// position is meaningless — use CsvIngestSummary::resume_offset.
Status ScanCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               const CsvBatch& batch)>& sink);

/// Parses a relation from a stream. Without a header, attributes are named
/// "col0".."col{k-1}". Ragged rows yield InvalidArgument.
Result<Relation> ReadCsv(std::istream& in, const CsvOptions& options = {});

/// Parses a relation from a file.
Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// Streaming chunked reader: ScanCsvBatches with each chunk copied out as
/// string rows. The whole file is never materialized — the path that lets
/// the streaming loss monitor (core/streaming.h) follow files larger than
/// memory. Same batching, errors and header-only behaviour as
/// ScanCsvBatches.
Status ReadCsvBatches(
    std::istream& in, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink);

/// File form of ReadCsvBatches.
Status ReadCsvFileBatches(
    const std::string& path, const CsvOptions& options, uint64_t batch_rows,
    const std::function<Status(const std::vector<std::string>& header,
                               std::vector<std::vector<std::string>> batch)>&
        sink);

/// Validates a CSV header against a relation schema: the widths must
/// match, and — when `names_meaningful` (the file had a real header row) —
/// so must the column names, positionally, or a reordered file would
/// silently append values into the wrong attributes.
Status ValidateCsvHeader(const std::vector<std::string>& header,
                         const Schema& schema, bool names_meaningful);

/// What a chunked CSV ingestion actually committed — filled in even when
/// the overall Status is an error, so a caller can resume after a mid-file
/// failure instead of guessing how much landed.
struct CsvIngestSummary {
  /// Data rows handed to the relation by committed batches (including
  /// rows dedupe then dropped).
  uint64_t rows_read = 0;
  /// Rows that actually landed in the relation (NumRows() delta).
  uint64_t rows_appended = 0;
  /// Batches fully committed (each bumped the epoch unless empty/all-dup).
  uint64_t batches_committed = 0;
  /// Stream offset just past the last committed batch — seek here (and
  /// set has_header=false) to resume after a mid-file failure. -1 when the
  /// stream reports no position or nothing committed. After a failure this
  /// is the only meaningful position: the scanner reads ahead, so the
  /// stream itself may sit anywhere past it.
  int64_t resume_offset = -1;
};

/// Chunked ingestion into an existing relation: validates the header
/// (width always; names too when options.has_header) and feeds every
/// chunk straight to Relation::AppendStringBatch (one epoch bump per
/// non-empty chunk). `options.dedupe` maps to the append's dedupe flag.
///
/// Failure semantics: each batch commits atomically (AppendStringBatch's
/// all-or-nothing contract), so a mid-file failure — ragged row, header
/// mismatch, allocation failure — leaves the relation holding exactly the
/// batches committed before it. `summary` (optional) reports how many
/// rows/batches landed and the byte offset to resume from; it is filled
/// on both success and failure.
Status AppendCsvBatches(std::istream& in, Relation* r,
                        const CsvOptions& options, uint64_t batch_rows,
                        CsvIngestSummary* summary = nullptr);

/// Resumes a previously failed AppendCsvBatches from the offset its summary
/// reported: seeks `in` to `resume_offset` and continues batch ingestion of
/// the REMAINING rows into `r` (header already consumed by the original
/// pass, so options.has_header is ignored and no header row is expected at
/// the offset). The committed result of a failed ingest plus a successful
/// resume is bit-identical to one uninterrupted ingest of the whole stream
/// — batches commit atomically and the offset sits exactly past the last
/// committed batch. InvalidArgument when `resume_offset` is negative (the
/// original summary said "not resumable"); IoError when the stream cannot
/// seek there.
Status ResumeCsvIngest(std::istream& in, Relation* r,
                       const CsvOptions& options, uint64_t batch_rows,
                       int64_t resume_offset,
                       CsvIngestSummary* summary = nullptr);

/// Writes a relation as CSV (header + rows; dictionary values when
/// available, otherwise numeric codes).
Status WriteCsv(const Relation& r, std::ostream& out, char separator = ',');

/// Writes a relation to a file.
Status WriteCsvFile(const Relation& r, const std::string& path,
                    char separator = ',');

}  // namespace ajd

#endif  // AJD_IO_CSV_H_
