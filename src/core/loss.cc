#include "core/loss.h"

#include <cmath>

#include "core/partition_counts.h"
#include "engine/analysis_session.h"
#include "relation/row_hash.h"
#include "util/math.h"

namespace ajd {

Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree) {
  if (r.NumRows() == 0) {
    return Status::FailedPrecondition("loss is undefined for |R| = 0");
  }
  if (!tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument(
        "join tree references attributes outside the relation");
  }
  AcyclicJoinCount count = CountAcyclicJoin(r, tree);
  LossReport report;
  report.num_tuples = r.NumRows();
  report.join_size = count.approx;
  report.join_size_exact = count.exact;
  const double n = static_cast<double>(r.NumRows());
  report.rho = (count.approx - n) / n;
  // R is contained in R' whenever chi(T) covers R's attributes; guard
  // against tiny negative values from floating point accumulation.
  if (report.rho < 0.0 && report.rho > -1e-9) report.rho = 0.0;
  report.log1p_rho = std::log1p(report.rho);
  return report;
}

namespace {

Status ValidateMvdLoss(const Relation& r, uint64_t rows, const Mvd& mvd) {
  if (rows == 0) {
    return Status::FailedPrecondition("loss is undefined for |R| = 0");
  }
  if (!mvd.Universe().IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument(
        "MVD references attributes outside the relation");
  }
  if (!mvd.WellFormed()) {
    return Status::InvalidArgument("malformed MVD: " + mvd.ToString());
  }
  return Status::OK();
}

LossReport MvdLossReport(uint64_t num_tuples, uint64_t join_size) {
  LossReport report;
  report.num_tuples = num_tuples;
  report.join_size = static_cast<double>(join_size);
  report.join_size_exact = join_size;
  const double n = static_cast<double>(num_tuples);
  report.rho = (static_cast<double>(join_size) - n) / n;
  if (report.rho < 0.0 && report.rho > -1e-9) report.rho = 0.0;
  report.log1p_rho = std::log1p(report.rho);
  return report;
}

}  // namespace

Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd) {
  Status valid = ValidateMvdLoss(r, r.NumRows(), mvd);
  if (!valid.ok()) return valid;
  // Natural-join key = all shared attributes of the two sides.
  AttrSet key_attrs = mvd.side_a.Intersect(mvd.side_b);
  std::vector<uint32_t> a_pos = mvd.side_a.ToIndices();
  std::vector<uint32_t> b_pos = mvd.side_b.ToIndices();
  std::vector<uint32_t> key_pos = key_attrs.ToIndices();

  // Count distinct side tuples grouped by the join key. A side tuple embeds
  // its key, so it suffices to dedupe side tuples and bump per-key counts;
  // the join size is then sum_k cntA(k) * cntB(k).
  uint64_t join_size = 0;
  if (key_pos.empty()) {
    // Cross product of the distinct side tuples.
    uint64_t a_count = 0;
    uint64_t b_count = 0;
    {
      TupleCounter side(a_pos.size(), r.NumRows());
      std::vector<uint32_t> t(a_pos.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        for (size_t k = 0; k < a_pos.size(); ++k) t[k] = r.Row(i)[a_pos[k]];
        side.Add(t.data());
      }
      a_count = side.NumDistinct();
    }
    {
      TupleCounter side(b_pos.size(), r.NumRows());
      std::vector<uint32_t> t(b_pos.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        for (size_t k = 0; k < b_pos.size(); ++k) t[k] = r.Row(i)[b_pos[k]];
        side.Add(t.data());
      }
      b_count = side.NumDistinct();
    }
    join_size = a_count * b_count;
  } else {
    auto group = [&r](const std::vector<uint32_t>& side_pos,
                      const std::vector<uint32_t>& key_pos_global,
                      TupleCounter* keys, std::vector<uint64_t>* counts) {
      TupleCounter side(side_pos.size(), r.NumRows());
      std::vector<uint32_t> side_t(side_pos.size());
      std::vector<uint32_t> key_t(key_pos_global.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        const uint32_t* row = r.Row(i);
        for (size_t k = 0; k < side_pos.size(); ++k) {
          side_t[k] = row[side_pos[k]];
        }
        if (side.Find(side_t.data()) != UINT32_MAX) continue;
        side.Add(side_t.data());
        for (size_t k = 0; k < key_pos_global.size(); ++k) {
          key_t[k] = row[key_pos_global[k]];
        }
        uint32_t idx = keys->Add(key_t.data());
        if (idx >= counts->size()) counts->resize(idx + 1, 0);
        ++(*counts)[idx];
      }
    };
    TupleCounter a_keys(key_pos.size(), r.NumRows());
    std::vector<uint64_t> a_counts;
    group(a_pos, key_pos, &a_keys, &a_counts);
    TupleCounter b_keys(key_pos.size(), r.NumRows());
    std::vector<uint64_t> b_counts;
    group(b_pos, key_pos, &b_keys, &b_counts);
    for (uint32_t i = 0; i < a_keys.NumDistinct(); ++i) {
      uint32_t j = b_keys.Find(a_keys.TupleAt(i));
      if (j != UINT32_MAX) join_size += a_counts[i] * b_counts[j];
    }
  }

  return MvdLossReport(r.NumRows(), join_size);
}

Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd) {
  EntropyEngine& engine = session->EngineFor(r);
  engine.CatchUp();
  return ComputeMvdLossAt(&engine, engine.Pin(), mvd);
}

Result<LossReport> ComputeMvdLossAt(EntropyEngine* engine, const EpochPin& pin,
                                    const Mvd& mvd) {
  Status valid = ValidateMvdLoss(engine->relation(), pin.rows, mvd);
  if (!valid.ok()) return valid;
  return MvdLossReport(pin.rows, MvdJoinSizeAt(engine, pin, mvd));
}

}  // namespace ajd
