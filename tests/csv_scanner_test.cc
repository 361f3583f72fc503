// Differential tests of the block CSV scanner (io/csv.cc) against the
// line-at-a-time reader it replaced (tests/csv_oracle.h). A seeded
// generator and mutator produce inputs with quotes, doubled quotes, '\r'
// inside and outside quotes, empty lines, non-comma separators, ragged
// rows, a last row without '\n' and header-only files; each input runs
// through ReadCsvBatches, AppendCsvBatches and ReadCsv at several batch
// sizes, from a string stream and from a trickling streambuf whose chunk
// boundaries fall anywhere in a row. Every batch, status, ingest summary
// and resulting relation must equal the oracle's.
#include <gtest/gtest.h>

#include <istream>
#include <sstream>
#include <string>
#include <vector>

#include "csv_oracle.h"
#include "io/csv.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "test_util.h"

namespace ajd {
namespace {

using testing_util::TrickleStreambuf;

struct Batches {
  std::vector<std::vector<std::string>> headers;
  std::vector<std::vector<std::vector<std::string>>> batches;
  Status status;
};

template <typename Reader>
Batches Collect(Reader&& read) {
  Batches out;
  out.status = read([&out](const std::vector<std::string>& header,
                           std::vector<std::vector<std::string>> batch) {
    out.headers.push_back(header);
    out.batches.push_back(std::move(batch));
    return Status::OK();
  });
  return out;
}

void ExpectSameStatus(const Status& want, const Status& got,
                      const std::string& where) {
  EXPECT_EQ(want.code(), got.code()) << where;
  EXPECT_EQ(want.ToString(), got.ToString()) << where;
}

void ExpectSameRelation(const Relation& want, const Relation& got,
                        const std::string& where) {
  ASSERT_EQ(want.NumAttrs(), got.NumAttrs()) << where;
  EXPECT_EQ(want.NumRows(), got.NumRows()) << where;
  EXPECT_EQ(want.epoch(), got.epoch()) << where;
  EXPECT_EQ(want.data(), got.data()) << where;
  for (uint32_t a = 0; a < want.NumAttrs(); ++a) {
    EXPECT_EQ(want.schema().attr(a).name, got.schema().attr(a).name) << where;
    EXPECT_EQ(want.schema().attr(a).domain_size,
              got.schema().attr(a).domain_size)
        << where;
    const Dictionary* wd = want.dict(a);
    const Dictionary* gd = got.dict(a);
    ASSERT_EQ(wd == nullptr, gd == nullptr) << where << " attr " << a;
    if (wd == nullptr) continue;
    ASSERT_EQ(wd->size(), gd->size()) << where << " attr " << a;
    for (uint32_t c = 0; c < wd->size(); ++c) {
      EXPECT_EQ(wd->ValueOf(c), gd->ValueOf(c)) << where << " attr " << a;
      EXPECT_EQ(gd->Lookup(wd->ValueOf(c)), std::optional<uint32_t>(c))
          << where << " attr " << a;
    }
  }
}

void ExpectSameSummary(const CsvIngestSummary& want,
                       const CsvIngestSummary& got, const std::string& where) {
  EXPECT_EQ(want.rows_read, got.rows_read) << where;
  EXPECT_EQ(want.rows_appended, got.rows_appended) << where;
  EXPECT_EQ(want.batches_committed, got.batches_committed) << where;
  EXPECT_EQ(want.resume_offset, got.resume_offset) << where;
}

Relation EmptyRelationNamed(const std::vector<std::string>& names) {
  Result<Schema> schema = Schema::MakeUniform(names, 0);
  if (!schema.ok()) schema = Schema::MakeUniform({"a", "b"}, 0);
  return std::move(RelationBuilder(std::move(schema).value())).Build(false);
}

// Runs every reader over `text` and compares each with the oracle.
void CheckAgainstOracle(const std::string& text, const CsvOptions& options,
                        uint64_t batch_rows, uint64_t seed) {
  const std::string where = "seed " + std::to_string(seed) + " batch_rows " +
                            std::to_string(batch_rows) + " sep '" +
                            std::string(1, options.separator) + "' header " +
                            std::to_string(options.has_header) + " input [" +
                            text.substr(0, 200) + "]";
  // ReadCsvBatches: same batches, same status, from a string stream and
  // from a trickle whose chunks split rows anywhere.
  std::istringstream oracle_in(text);
  const Batches want = Collect([&](const csv_oracle::BatchSink& sink) {
    return csv_oracle::ReadCsvBatches(oracle_in, options, batch_rows, sink);
  });
  for (int trickle = 0; trickle < 2; ++trickle) {
    TrickleStreambuf buf(text, 1 + seed % 13, /*seekable=*/true,
                         /*stop_at_newline=*/false, seed);
    std::istringstream string_in(text);
    std::istream trickle_in(&buf);
    std::istream& in = trickle ? trickle_in : string_in;
    const Batches got = Collect([&](const csv_oracle::BatchSink& sink) {
      return ReadCsvBatches(in, options, batch_rows, sink);
    });
    const std::string w = where + (trickle ? " (trickle)" : "");
    ExpectSameStatus(want.status, got.status, w);
    EXPECT_EQ(want.headers, got.headers) << w;
    EXPECT_EQ(want.batches, got.batches) << w;
  }

  // AppendCsvBatches into a relation named after the file's header (or a
  // mismatched one when there is none): same status, summary and
  // relation — rows, codes, dictionaries, domain sizes, epochs.
  const std::vector<std::string> names =
      want.headers.empty() ? std::vector<std::string>{"a", "b"}
                           : want.headers.front();
  Relation oracle_rel = EmptyRelationNamed(names);
  CsvIngestSummary oracle_summary;
  std::istringstream oracle_append_in(text);
  const Status oracle_status = csv_oracle::AppendCsvBatches(
      oracle_append_in, &oracle_rel, options, batch_rows, &oracle_summary);
  for (int trickle = 0; trickle < 2; ++trickle) {
    TrickleStreambuf buf(text, 1 + seed % 7, /*seekable=*/true,
                         /*stop_at_newline=*/false, seed + 1);
    std::istringstream string_in(text);
    std::istream trickle_in(&buf);
    std::istream& in = trickle ? trickle_in : string_in;
    Relation rel = EmptyRelationNamed(names);
    CsvIngestSummary summary;
    const Status status =
        AppendCsvBatches(in, &rel, options, batch_rows, &summary);
    const std::string w =
        where + (trickle ? " (append, trickle)" : " (append)");
    ExpectSameStatus(oracle_status, status, w);
    ExpectSameSummary(oracle_summary, summary, w);
    ExpectSameRelation(oracle_rel, rel, w);
  }

  // ReadCsv: same status and, on success, the same relation.
  std::istringstream oracle_read_in(text);
  std::istringstream read_in(text);
  Result<Relation> want_rel = csv_oracle::ReadCsv(oracle_read_in, options);
  Result<Relation> got_rel = ReadCsv(read_in, options);
  ExpectSameStatus(want_rel.status(), got_rel.status(), where + " (ReadCsv)");
  if (want_rel.ok() && got_rel.ok()) {
    ExpectSameRelation(want_rel.value(), got_rel.value(),
                       where + " (ReadCsv)");
  }
}

// One random field: plain, quoted (with separators, doubled quotes and
// '\r' inside), with a stray quote mid-field, or with '\r' outside quotes.
std::string RandomField(Rng* rng, char sep) {
  static const char kPlain[] = "abcxyz0123 ";
  std::string body;
  const size_t len = rng->UniformU64(rng->Bernoulli(0.05) ? 40 : 5);
  for (size_t i = 0; i < len; ++i) {
    body += kPlain[rng->UniformU64(sizeof(kPlain) - 1)];
  }
  switch (rng->UniformU64(6)) {
    case 0: {  // quoted, with specials inside
      std::string q = "\"";
      for (char c : body) {
        q += c;
        if (rng->Bernoulli(0.2)) q += sep;
        if (rng->Bernoulli(0.2)) q += "\"\"";
        if (rng->Bernoulli(0.1)) q += '\r';
      }
      return q + "\"";
    }
    case 1:  // a quote toggling mid-field
      return body.substr(0, body.size() / 2) + "\"" + std::string(1, sep) +
             "\"" + body.substr(body.size() / 2);
    case 2:  // '\r' outside quotes (dropped)
      return body + "\r";
    default:
      return body;
  }
}

std::string RandomCsv(Rng* rng, char sep) {
  const uint32_t width = 1 + static_cast<uint32_t>(rng->UniformU64(4));
  const uint32_t rows = static_cast<uint32_t>(rng->UniformU64(12));
  std::string text;
  static const char* kNames[] = {"a", "b", "c", "d", "e"};
  for (uint32_t a = 0; a < width; ++a) {
    if (a > 0) text += sep;
    // Occasionally a duplicate (or quoted) name: ReadCsv's schema error.
    text += rng->Bernoulli(0.05) ? "a" : kNames[a];
  }
  text += rng->Bernoulli(0.2) ? "\r\n" : "\n";
  for (uint32_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(0.1)) text += "\n";  // empty line
    uint32_t fields = width;
    if (rng->Bernoulli(0.05)) fields += rng->Bernoulli(0.5) ? 1 : -1;  // ragged
    for (uint32_t a = 0; a < fields; ++a) {
      if (a > 0) text += sep;
      // Reuse values often, so dictionaries and dedupe see repeats.
      text += rng->Bernoulli(0.5) ? std::string(1, "pqr"[rng->UniformU64(3)])
                                  : RandomField(rng, sep);
    }
    if (i + 1 < rows || rng->Bernoulli(0.7)) {
      text += rng->Bernoulli(0.2) ? "\r\n" : "\n";
    }
  }
  return text;
}

// Random byte edits biased toward the characters the dialect cares about.
void Mutate(Rng* rng, char sep, std::string* text) {
  static const char kBytes[] = {'"', '\r', '\n', 'x', ',', ';', '\t', ' '};
  const uint64_t edits = 1 + rng->UniformU64(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const char c = rng->Bernoulli(0.3)
                       ? sep
                       : kBytes[rng->UniformU64(sizeof(kBytes))];
    const size_t at = text->empty() ? 0 : rng->UniformU64(text->size() + 1);
    switch (rng->UniformU64(3)) {
      case 0:
        text->insert(at, 1, c);
        break;
      case 1:
        if (at < text->size()) text->erase(at, 1);
        break;
      default:
        if (at < text->size()) (*text)[at] = c;
        break;
    }
  }
}

TEST(CsvScanner, MatchesLineReaderOnGeneratedAndMutatedInputs) {
  const char kSeparators[] = {',', ';', '\t', '|'};
  const uint64_t kBatchRows[] = {1, 2, 3, 5, 64};
  Rng rng(20261017);
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const char sep = kSeparators[seed % 4];
    std::string text = RandomCsv(&rng, sep);
    if (seed % 2 == 1) Mutate(&rng, sep, &text);
    CsvOptions options;
    options.separator = sep;
    options.has_header = seed % 5 != 0;
    options.dedupe = seed % 3 != 0;
    for (uint64_t batch_rows : kBatchRows) {
      CheckAgainstOracle(text, options, batch_rows, seed);
      if (::testing::Test::HasFailure()) return;  // one input is enough
    }
  }
}

TEST(CsvScanner, MatchesLineReaderOnEdgeInputs) {
  const std::vector<std::string> inputs = {
      "",
      "\n\n\n",
      "a,b\n",                       // header only
      "a,b",                         // header only, no '\n'
      "a,b\n\n\n",                   // header then empty lines
      "a,b\n1,2",                    // last row without '\n'
      "a,b\n1,2\n3",                 // ragged last row without '\n'
      "a,b\r\n1,2\r\n\r\n3,4\r\n",   // CRLF, and a "\r" line (one field)
      "\r\n",                        // a lone "\r" line
      "a\n\"x\ny\"\n",               // a quote cannot span lines
      "a,b\n\"1,2\",\"3\"\"4\"\n",   // quoted separator, doubled quote
      "a,b\n\"\"\"\",x\"y\"z\n",     // quote-only field, mid-field quotes
      "a,b\n\"unterminated,b\n",     // unterminated quote swallows the rest
      "a,b\n1,2\n1,2\n2,1\n",        // duplicates for dedupe
      ",\n,\n",                      // empty fields
      "a,b,\n1,2,\n",                // trailing separator: an empty field
  };
  for (const std::string& text : inputs) {
    for (bool has_header : {true, false}) {
      for (uint64_t batch_rows : {1, 2, 100}) {
        CsvOptions options;
        options.has_header = has_header;
        CheckAgainstOracle(text, options, batch_rows, 0);
      }
    }
  }
  // Separators that are also dialect characters: a quote never splits, a
  // '\r' separator splits before it could be dropped.
  for (char sep : {'"', '\r', ' '}) {
    CsvOptions options;
    options.separator = sep;
    std::string sep_text = std::string("a") + sep + "b\nx" + sep + "y\n\"q" +
                           sep + "r\"" + sep + "s\n";
    CheckAgainstOracle(sep_text, options, 2, 0);
  }
}

TEST(CsvScanner, FieldsLongerThanABlockAndBatchesAcrossBlocks) {
  // A 1.5 MiB field (longer than the scanner's 1 MiB read block), quoted
  // and unquoted, between ordinary rows: rows straddle block boundaries
  // and batch boundaries at every batch size.
  std::string text = "k,v\n1,a\n";
  text += "2," + std::string(1536 * 1024, 'x') + "\n";
  text += "3,\"" + std::string(1200 * 1024, 'y') + "\"\"z\"\n";
  for (int i = 0; i < 2000; ++i) text += std::to_string(i % 97) + ",b\n";
  text += "4,tail";
  for (uint64_t batch_rows : {1, 3, 1000}) {
    CheckAgainstOracle(text, CsvOptions{}, batch_rows, 11);
  }
}

}  // namespace
}  // namespace ajd
