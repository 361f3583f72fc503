#include <gtest/gtest.h>

#include <sstream>

#include "io/csv.h"
#include "io/table_printer.h"
#include "relation/ops.h"
#include "test_util.h"

namespace ajd {
namespace {

TEST(Csv, ReadSimpleWithHeader) {
  std::istringstream in("city,state\nSeattle,WA\nPortland,OR\n");
  Relation r = ReadCsv(in).value();
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.schema().attr(0).name, "city");
  EXPECT_EQ(r.RowToString(0), "(Seattle, WA)");
}

TEST(Csv, ReadWithoutHeaderNamesColumns) {
  std::istringstream in("1,2\n3,4\n");
  CsvOptions options;
  options.has_header = false;
  Relation r = ReadCsv(in, options).value();
  EXPECT_EQ(r.schema().attr(0).name, "col0");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, DedupesByDefault) {
  std::istringstream in("a,b\nx,y\nx,y\nx,z\n");
  Relation r = ReadCsv(in).value();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, MultisetModeKeepsDuplicates) {
  std::istringstream in("a\nv\nv\n");
  CsvOptions options;
  options.dedupe = false;
  Relation r = ReadCsv(in, options).value();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(Csv, QuotedFieldsWithCommasAndQuotes) {
  std::istringstream in("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
  Relation r = ReadCsv(in).value();
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.dict(0)->ValueOf(r.At(0, 0)), "Smith, John");
  EXPECT_EQ(r.dict(1)->ValueOf(r.At(0, 1)), "said \"hi\"");
}

TEST(Csv, RaggedRowsFail) {
  std::istringstream in("a,b\n1\n");
  EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(Csv, EmptyInputFails) {
  std::istringstream in("");
  EXPECT_FALSE(ReadCsv(in).ok());
}

TEST(Csv, RoundTripPreservesRelation) {
  std::istringstream in("a,b\nx,1\ny,2\nz,1\n");
  Relation r = ReadCsv(in).value();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(r, out).ok());
  std::istringstream back(out.str());
  Relation r2 = ReadCsv(back).value();
  EXPECT_TRUE(SetEquals(Project(r, r.schema().AllAttrs()),
                        Project(r2, r2.schema().AllAttrs())));
}

TEST(Csv, WriteQuotesWhenNeeded) {
  Schema s = Schema::Make({{"n", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"has,comma"});
  Relation r = std::move(b).Build();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(r, out).ok());
  EXPECT_NE(out.str().find("\"has,comma\""), std::string::npos);
}

TEST(Csv, FileRoundTrip) {
  Schema s = Schema::Make({{"k", 0}, {"v", 0}}).value();
  RelationBuilder b(s);
  b.AddStringRow({"a", "1"});
  b.AddStringRow({"b", "2"});
  Relation r = std::move(b).Build();
  const std::string path = "/tmp/ajd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(r, path).ok());
  Relation r2 = ReadCsvFile(path).value();
  EXPECT_EQ(r2.NumRows(), 2u);
}

TEST(Csv, MissingFileFails) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/x.csv").status().code(),
            StatusCode::kIoError);
}

TEST(Csv, ResumeIngestMatchesUninterruptedBitIdentical) {
  // An ingest that stops after two committed batches (the "crash"), then a
  // second pass resuming at the recorded offset, must land exactly the
  // relation an uninterrupted ingest produces.
  const std::string text =
      "a,b\n"
      "x1,y1\nx2,y2\n"
      "x3,y3\nx4,y4\n"
      "x5,y5\nx6,y6\nx7,y7\n";
  CsvOptions opts;
  opts.dedupe = false;
  auto empty_rel = [] {
    Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
    return std::move(RelationBuilder(s)).Build(false);
  };

  Relation clean = empty_rel();
  {
    std::istringstream in(text);
    ASSERT_TRUE(AppendCsvBatches(in, &clean, opts, 2).ok());
    ASSERT_EQ(clean.NumRows(), 7u);
  }

  // First pass sees only a prefix of the file (the bytes that made it
  // before the interruption): 4 complete data rows.
  const size_t prefix_end = text.find("x5");
  Relation r = empty_rel();
  CsvIngestSummary first;
  {
    std::istringstream in(text.substr(0, prefix_end));
    ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2, &first).ok());
  }
  EXPECT_EQ(first.batches_committed, 2u);
  EXPECT_EQ(r.NumRows(), 4u);
  ASSERT_EQ(first.resume_offset, static_cast<int64_t>(prefix_end));

  // Second pass: the full file again, resumed at the recorded offset. The
  // header lies before the offset — the continuation must not re-consume
  // (or misparse) it.
  CsvIngestSummary resumed;
  {
    std::istringstream in(text);
    ASSERT_TRUE(
        ResumeCsvIngest(in, &r, opts, 2, first.resume_offset, &resumed)
            .ok());
  }
  EXPECT_EQ(resumed.rows_appended, 3u);
  EXPECT_EQ(r.NumRows(), clean.NumRows());
  EXPECT_EQ(r.data(), clean.data());
  for (uint32_t a = 0; a < 2; ++a) {
    ASSERT_NE(r.dict(a), nullptr);
    EXPECT_EQ(r.dict(a)->size(), clean.dict(a)->size());
  }
}

TEST(Csv, ResumeIngestRejectsNegativeOffset) {
  std::istringstream in("a,b\nx,y\n");
  Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
  Relation r = std::move(RelationBuilder(s)).Build(false);
  CsvOptions opts;
  // -1 is AppendCsvBatches' "stream not resumable" sentinel.
  EXPECT_EQ(ResumeCsvIngest(in, &r, opts, 2, -1).code(),
            StatusCode::kInvalidArgument);
}

// A two-column CSV of `rows` data rows (row `ragged_row`, if any, lacks
// its second field), and the byte offset just past the last row of each
// `batch_rows`-row batch.
struct BatchedText {
  std::string text;
  std::vector<size_t> batch_ends;
};

BatchedText TwoColumnCsv(int rows, int batch_rows, int ragged_row = -1) {
  BatchedText out{"a,b\n", {}};
  for (int i = 0; i < rows; ++i) {
    out.text += "x" + std::to_string(i % 5);
    if (i != ragged_row) out.text += ",y" + std::to_string(i % 3);
    out.text += "\n";
    if ((i + 1) % batch_rows == 0 || i + 1 == rows) {
      out.batch_ends.push_back(out.text.size());
    }
  }
  return out;
}

Relation EmptyAB() {
  Schema s = Schema::Make({{"a", 0}, {"b", 0}}).value();
  return std::move(RelationBuilder(s)).Build(false);
}

TEST(Csv, RaggedRowReportsCommittedBatchesAndResumesBitIdentical) {
  // A ragged row in batch k = 3 (batches of 4 rows): batches 1 and 2
  // commit, the resume offset sits just past batch 2's last row, and
  // resuming from a corrected stream gives the uninterrupted relation.
  constexpr int kBatch = 4;
  const BatchedText broken = TwoColumnCsv(14, kBatch, /*ragged_row=*/9);
  const BatchedText fixed = TwoColumnCsv(14, kBatch);
  CsvOptions opts;
  opts.dedupe = false;

  Relation clean = EmptyAB();
  {
    std::istringstream in(fixed.text);
    ASSERT_TRUE(AppendCsvBatches(in, &clean, opts, kBatch).ok());
  }

  Relation r = EmptyAB();
  CsvIngestSummary summary;
  {
    std::istringstream in(broken.text);
    Status s = AppendCsvBatches(in, &r, opts, kBatch, &summary);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(summary.batches_committed, 2u);
  EXPECT_EQ(summary.rows_read, 2u * kBatch);
  EXPECT_EQ(summary.rows_appended, 2u * kBatch);
  EXPECT_EQ(r.NumRows(), 2u * kBatch);
  EXPECT_EQ(r.epoch(), 2u);
  ASSERT_EQ(summary.resume_offset,
            static_cast<int64_t>(broken.batch_ends[1]));

  // The fixed stream has the same bytes before the ragged row, so the
  // offset is valid in it too.
  std::istringstream in(fixed.text);
  CsvIngestSummary resumed;
  ASSERT_TRUE(
      ResumeCsvIngest(in, &r, opts, kBatch, summary.resume_offset, &resumed)
          .ok());
  EXPECT_EQ(resumed.batches_committed, 2u);  // rows 8..11, then 12..13
  EXPECT_EQ(resumed.resume_offset, static_cast<int64_t>(fixed.text.size()));
  EXPECT_EQ(r.NumRows(), clean.NumRows());
  EXPECT_EQ(r.data(), clean.data());
  EXPECT_EQ(r.epoch(), clean.epoch());
  for (uint32_t a = 0; a < 2; ++a) {
    ASSERT_EQ(r.dict(a)->size(), clean.dict(a)->size());
    for (uint32_t c = 0; c < r.dict(a)->size(); ++c) {
      EXPECT_EQ(r.dict(a)->ValueOf(c), clean.dict(a)->ValueOf(c));
    }
  }
}

TEST(Csv, StreamWithoutPositionReportsNoResumeOffset) {
  const BatchedText text = TwoColumnCsv(7, 2);
  CsvOptions opts;
  {
    testing_util::TrickleStreambuf buf(text.text, 5, /*seekable=*/false,
                                       /*stop_at_newline=*/false);
    std::istream in(&buf);
    Relation r = EmptyAB();
    CsvIngestSummary summary;
    ASSERT_TRUE(AppendCsvBatches(in, &r, opts, 2, &summary).ok());
    EXPECT_EQ(summary.batches_committed, 4u);
    EXPECT_EQ(summary.resume_offset, -1);
  }
  {
    // A failure from such a stream is not resumable either.
    const BatchedText broken = TwoColumnCsv(7, 2, /*ragged_row=*/4);
    testing_util::TrickleStreambuf buf(broken.text, 5, /*seekable=*/false,
                                       /*stop_at_newline=*/false);
    std::istream in(&buf);
    Relation r = EmptyAB();
    CsvIngestSummary summary;
    EXPECT_EQ(AppendCsvBatches(in, &r, opts, 2, &summary).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(summary.batches_committed, 2u);
    EXPECT_EQ(summary.resume_offset, -1);
  }
}

TEST(Csv, TricklingStreamDeliversEachBatchBeforeReadingTheNext) {
  // A pipe-like stream handing out at most 3 bytes per read, never past a
  // row end: every batch must reach the sink when its last row's bytes
  // are in, before any byte of the next batch is asked for.
  constexpr int kBatch = 3;
  const BatchedText text = TwoColumnCsv(11, kBatch);
  testing_util::TrickleStreambuf buf(text.text, 3, /*seekable=*/true,
                                     /*stop_at_newline=*/true);
  std::istream in(&buf);
  std::vector<size_t> seen;
  Status s = ReadCsvBatches(
      in, CsvOptions{}, kBatch,
      [&](const std::vector<std::string>&,
          std::vector<std::vector<std::string>>) {
        seen.push_back(buf.handed_out());
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(seen, text.batch_ends);

  // The same through AppendCsvBatches, whose resume offsets must track the
  // batch ends as well.
  testing_util::TrickleStreambuf buf2(text.text, 3, /*seekable=*/true,
                                      /*stop_at_newline=*/true);
  std::istream in2(&buf2);
  Relation r = EmptyAB();
  CsvIngestSummary summary;
  ASSERT_TRUE(AppendCsvBatches(in2, &r, CsvOptions{}, kBatch, &summary).ok());
  EXPECT_EQ(summary.resume_offset, static_cast<int64_t>(text.text.size()));
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"id", "value"});
  t.AddRow({"1", "short"});
  t.AddRow({"22", "a-much-longer-value"});
  std::string out = t.Render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("id"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-value"), std::string::npos);
}

TEST(TablePrinter, CountsRows) {
  TablePrinter t({"x"});
  EXPECT_EQ(t.NumRows(), 0u);
  t.AddRow({"1"});
  EXPECT_EQ(t.NumRows(), 1u);
}

}  // namespace
}  // namespace ajd
