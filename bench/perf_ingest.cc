// Experiment PERF-INGEST — CSV ingest split by stage.
//
// Times the three stages of AppendCsvBatches on CSV text held in memory:
//   scan          — ScanCsvBatches with a sink that only touches the views
//                   (block reads, row ends, field splitting);
//   intern        — Dictionary::Intern over the scanned views, one
//                   dictionary per column, timed inside the sink;
//   append+dedupe — the rest of a full AppendCsvBatches(dedupe = true):
//                   its total minus scan and intern.
// Two inputs: the e2e `fit` shape (10 columns, domain 16, values "v<k>")
// and a wide-value case whose first column is a near key of 18-byte
// values, so interning compares past the 8-byte inline key. Each stage
// reports the minimum over the repetitions, as ns per field; the whole
// ingest also reports rows/s.
//
// Guard: the ingested relation must equal one built by a reference
// per-column std::map interning with first-occurrence codes and
// first-occurrence dedupe (rows, codes and every dictionary value), or the
// bench exits 1.
//
//   perf_ingest [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "random/rng.h"
#include "relation/relation.h"

namespace {

using namespace ajd;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr uint64_t kBatchRows = 16384;  // as e2ebench's fit ingest

struct Input {
  std::string name;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::string csv;
};

std::string Render(const Input& in) {
  std::string out;
  for (size_t a = 0; a < in.header.size(); ++a) {
    if (a > 0) out += ',';
    out += in.header[a];
  }
  out += '\n';
  for (const auto& row : in.rows) {
    for (size_t a = 0; a < row.size(); ++a) {
      if (a > 0) out += ',';
      out += row[a];
    }
    out += '\n';
  }
  return out;
}

// The e2e shape: uniform values "v0".."v15" in 10 columns.
Input E2eInput(Rng* rng, uint32_t rows) {
  Input in;
  in.name = "e2e";
  for (int a = 0; a < 10; ++a) in.header.push_back("A" + std::to_string(a));
  in.rows.assign(rows, std::vector<std::string>(10));
  for (auto& row : in.rows) {
    for (auto& v : row) v = "v" + std::to_string(rng->UniformU64(16));
  }
  in.csv = Render(in);
  return in;
}

// A near-key column of 18-byte values plus three domain-16 columns.
Input WideInput(Rng* rng, uint32_t rows) {
  Input in;
  in.name = "wide";
  in.header = {"id", "B", "C", "D"};
  in.rows.assign(rows, std::vector<std::string>(4));
  char id[32];
  for (auto& row : in.rows) {
    const uint64_t key = rng->UniformU64(4ULL * rows);
    std::snprintf(id, sizeof(id), "customer-%09llu",
                  static_cast<unsigned long long>(key));
    row[0] = id;
    for (int a = 1; a < 4; ++a) {
      row[a] = "v" + std::to_string(rng->UniformU64(16));
    }
  }
  in.csv = Render(in);
  return in;
}

Relation EmptyRelation(const std::vector<std::string>& header) {
  return std::move(RelationBuilder(Schema::MakeUniform(header, 0).value()))
      .Build(false);
}

// Reference ingest: std::map per column, first-occurrence codes, then
// first-occurrence dedupe. True iff `r` holds exactly that relation.
bool MatchesReference(const Input& in, const Relation& r) {
  const size_t width = in.header.size();
  std::vector<std::map<std::string, uint32_t>> codes(width);
  std::vector<std::vector<std::string>> values(width);
  std::set<std::vector<uint32_t>> seen;
  std::vector<uint32_t> data;
  for (const auto& row : in.rows) {
    std::vector<uint32_t> coded(width);
    for (size_t a = 0; a < width; ++a) {
      auto [it, fresh] = codes[a].emplace(row[a], values[a].size());
      if (fresh) values[a].push_back(row[a]);
      coded[a] = it->second;
    }
    if (seen.insert(coded).second) {
      data.insert(data.end(), coded.begin(), coded.end());
    }
  }
  if (r.NumAttrs() != width || r.data() != data) return false;
  for (uint32_t a = 0; a < width; ++a) {
    const Dictionary* d = r.dict(a);
    if (d == nullptr || d->size() != values[a].size()) return false;
    for (uint32_t c = 0; c < d->size(); ++c) {
      if (d->ValueOf(c) != values[a][c]) return false;
      if (d->Lookup(values[a][c]) != std::optional<uint32_t>(c)) return false;
    }
  }
  return true;
}

struct StageNs {
  double scan = 1e300;
  double intern = 1e300;
  double total = 1e300;
};

bool Measure(const Input& in, int reps, StageNs* best) {
  CsvOptions options;
  options.dedupe = true;
  for (int rep = 0; rep < reps; ++rep) {
    {
      std::istringstream stream(in.csv);
      size_t bytes = 0;
      const double t0 = NowNs();
      Status s = ScanCsvBatches(
          stream, options, kBatchRows,
          [&bytes](const std::vector<std::string>&, const CsvBatch& batch) {
            for (std::string_view v : batch.fields) bytes += v.size();
            return Status::OK();
          });
      const double t1 = NowNs();
      if (!s.ok() || bytes == 0) return false;
      best->scan = std::min(best->scan, t1 - t0);
    }
    {
      std::istringstream stream(in.csv);
      std::vector<Dictionary> dicts(in.header.size());
      double ns = 0.0;
      Status s = ScanCsvBatches(
          stream, options, kBatchRows,
          [&](const std::vector<std::string>& header, const CsvBatch& batch) {
            const size_t width = header.size();
            const double t0 = NowNs();
            const std::string_view* value = batch.fields.data();
            for (uint64_t i = 0; i < batch.rows; ++i) {
              for (size_t a = 0; a < width; ++a) dicts[a].Intern(*value++);
            }
            ns += NowNs() - t0;
            return Status::OK();
          });
      if (!s.ok()) return false;
      best->intern = std::min(best->intern, ns);
    }
    {
      std::istringstream stream(in.csv);
      Relation r = EmptyRelation(in.header);
      const double t0 = NowNs();
      Status s = AppendCsvBatches(stream, &r, options, kBatchRows);
      const double t1 = NowNs();
      if (!s.ok()) {
        std::fprintf(stderr, "%s: ingest failed: %s\n", in.name.c_str(),
                     s.ToString().c_str());
        return false;
      }
      best->total = std::min(best->total, t1 - t0);
      if (rep == 0 && !MatchesReference(in, r)) {
        std::fprintf(stderr,
                     "%s: RELATION MISMATCH against the reference std::map "
                     "interning\n",
                     in.name.c_str());
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t rows = smoke ? 5000 : 200000;
  const int reps = smoke ? 1 : 7;
  Rng rng(20261017);
  const Input inputs[] = {E2eInput(&rng, rows), WideInput(&rng, rows)};

  std::string json = "{\"bench\":\"perf_ingest\",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"rows\":" + std::to_string(rows) +
          ",\"reps\":" + std::to_string(reps);
  char buf[512];
  for (const Input& in : inputs) {
    StageNs best;
    if (!Measure(in, reps, &best)) return 1;
    const double fields = static_cast<double>(rows) *
                          static_cast<double>(in.header.size());
    const double append = std::max(0.0, best.total - best.scan - best.intern);
    std::snprintf(
        buf, sizeof(buf),
        ",\"%s_fields\":%.0f,\"%s_scan_ns_per_field\":%.2f,"
        "\"%s_intern_ns_per_field\":%.2f,"
        "\"%s_append_dedupe_ns_per_field\":%.2f,"
        "\"%s_ingest_ms\":%.2f,\"%s_rows_per_s\":%.0f",
        in.name.c_str(), fields, in.name.c_str(), best.scan / fields,
        in.name.c_str(), best.intern / fields, in.name.c_str(),
        append / fields, in.name.c_str(), best.total / 1e6, in.name.c_str(),
        static_cast<double>(rows) / (best.total / 1e9));
    json += buf;
  }
  json += ",\"reference_match\":true}";
  std::printf("%s\n", json.c_str());
  return 0;
}
