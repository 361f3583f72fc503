#include "core/loss.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/partition_counts.h"
#include "engine/analysis_session.h"
#include "engine/partition.h"

namespace ajd {

namespace {

constexpr uint32_t kNoGroup = UINT32_MAX;

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

LossReport MakeLossReport(uint64_t num_tuples, double join_size,
                          std::optional<uint64_t> join_size_exact) {
  LossReport report;
  report.num_tuples = num_tuples;
  report.join_size = join_size;
  report.join_size_exact = join_size_exact;
  const double n = static_cast<double>(num_tuples);
  report.rho = (join_size - n) / n;
  // R is contained in R' whenever chi(T) covers R's attributes; guard
  // against tiny negative values from floating point accumulation.
  if (report.rho < 0.0 && report.rho > -1e-9) report.rho = 0.0;
  report.log1p_rho = std::log1p(report.rho);
  return report;
}

// Writes each stripped block's id into `label` at its rows; every other
// row (a stripped singleton) reads kNoGroup.
void LabelBlocks(const Partition& p, std::vector<uint32_t>* label) {
  std::fill(label->begin(), label->end(), kNoGroup);
  for (uint32_t b = 0; b < p.NumBlocks(); ++b) {
    for (const uint32_t* it = p.BlockBegin(b); it != p.BlockEnd(b); ++it) {
      (*label)[*it] = b;
    }
  }
}

// The distinct tuples of R[bag], one representative row each: the first
// row of every stripped block, then every stripped singleton.
std::vector<uint32_t> RepresentativeRows(EntropyEngine* engine,
                                         const EpochPin& pin, AttrSet bag,
                                         std::vector<uint32_t>* scratch) {
  if (bag.Empty()) return {0};  // the empty tuple
  const std::shared_ptr<const Partition> p = engine->PartitionAt(bag, pin);
  std::vector<uint32_t> reps;
  reps.reserve(p->NumDistinct(pin.rows));
  for (uint32_t b = 0; b < p->NumBlocks(); ++b) {
    reps.push_back(*p->BlockBegin(b));
  }
  if (p->NumStrippedRows() == pin.rows) return reps;
  LabelBlocks(*p, scratch);
  for (uint32_t row = 0; row < pin.rows; ++row) {
    if ((*scratch)[row] == kNoGroup) reps.push_back(row);
  }
  return reps;
}

// Keys the tuples on both sides of a tree edge by the separator value of
// their representative rows: the separator partition's block id, or a
// fresh id for a value only one row holds. That row then represents its
// tuple on BOTH sides, so the id the child side assigns in `label` is the
// one the parent side reads back. Returns the number of ids.
uint32_t KeyEdge(EntropyEngine* engine, const EpochPin& pin, AttrSet sep,
                 const std::vector<uint32_t>& child_reps,
                 const std::vector<uint32_t>& parent_reps,
                 std::vector<uint32_t>* label,
                 std::vector<uint32_t>* child_keys,
                 std::vector<uint32_t>* parent_keys) {
  if (sep.Empty()) {
    child_keys->assign(child_reps.size(), 0);
    parent_keys->assign(parent_reps.size(), 0);
    return 1;
  }
  const std::shared_ptr<const Partition> p = engine->PartitionAt(sep, pin);
  LabelBlocks(*p, label);
  uint32_t next = p->NumBlocks();
  child_keys->resize(child_reps.size());
  for (size_t i = 0; i < child_reps.size(); ++i) {
    uint32_t& l = (*label)[child_reps[i]];
    if (l == kNoGroup) l = next++;
    (*child_keys)[i] = l;
  }
  parent_keys->resize(parent_reps.size());
  for (size_t i = 0; i < parent_reps.size(); ++i) {
    (*parent_keys)[i] = (*label)[parent_reps[i]];
    AJD_CHECK((*parent_keys)[i] != kNoGroup);
  }
  return next;
}

// A node's message to its parent: per separator id, the number of join
// results of the node's subtree carrying that separator value. The root
// sends one over the empty separator: the join size.
struct Message {
  std::vector<double> approx;
  std::vector<uint64_t> exact;
  std::vector<uint32_t> parent_keys;  // separator id of each parent tuple
};

}  // namespace

Status ValidateLossInputs(const Relation& r, uint64_t rows,
                          const JoinTree& tree) {
  if (rows == 0) {
    return Status::FailedPrecondition("loss is undefined for |R| = 0");
  }
  if (!tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument(
        "join tree references attributes outside the relation");
  }
  return Status::OK();
}

Result<LossReport> ComputeLossAt(EntropyEngine* engine, const EpochPin& pin,
                                 const JoinTree& tree) {
  Status valid = ValidateLossInputs(engine->relation(), pin.rows, tree);
  if (!valid.ok()) return valid;
  const DfsDecomposition dec = tree.Decompose(0);
  const uint32_t m = tree.NumNodes();
  std::vector<uint32_t> scratch(pin.rows);
  std::vector<std::vector<uint32_t>> reps(m);
  for (uint32_t v = 0; v < m; ++v) {
    reps[v] = RepresentativeRows(engine, pin, tree.bag(v), &scratch);
  }
  std::vector<std::vector<uint32_t>> children(m);
  std::vector<const DfsStep*> up(m, nullptr);
  for (const DfsStep& s : dec.steps) {
    children[s.parent].push_back(s.node);
    up[s.node] = &s;
  }

  // Count propagation from the leaves up (reverse DFS order). Projections
  // of one relation are pairwise consistent, hence (the schema being
  // acyclic) globally consistent: no tuple dangles, and every partial
  // count is at most the join size. So `exact` overflows somewhere iff
  // the join size does, and `approx` is exact below 2^53.
  bool exact_ok = true;
  std::vector<Message> messages(m);
  std::vector<uint32_t> child_keys;
  for (size_t oi = dec.order.size(); oi-- > 0;) {
    const uint32_t v = dec.order[oi];
    std::vector<double> w(reps[v].size(), 1.0);
    std::vector<uint64_t> w_exact(reps[v].size(), 1);
    for (uint32_t c : children[v]) {
      Message& child = messages[c];
      for (size_t i = 0; i < w.size(); ++i) {
        const uint32_t k = child.parent_keys[i];
        w[i] *= child.approx[k];
        exact_ok = exact_ok && !__builtin_mul_overflow(
                                   w_exact[i], child.exact[k], &w_exact[i]);
      }
      child = Message();
    }
    Message& msg = messages[v];
    uint32_t groups = 1;
    if (up[v] == nullptr) {
      child_keys.assign(w.size(), 0);
    } else {
      groups = KeyEdge(engine, pin, up[v]->delta, reps[v],
                       reps[up[v]->parent], &scratch, &child_keys,
                       &msg.parent_keys);
    }
    msg.approx.assign(groups, 0.0);
    msg.exact.assign(groups, 0);
    for (size_t i = 0; i < w.size(); ++i) {
      const uint32_t k = child_keys[i];
      msg.approx[k] += w[i];
      exact_ok = exact_ok && !__builtin_add_overflow(msg.exact[k], w_exact[i],
                                                     &msg.exact[k]);
    }
  }
  const Message& root = messages[dec.order[0]];
  return MakeLossReport(pin.rows, root.approx[0],
                        exact_ok ? std::optional<uint64_t>(root.exact[0])
                                 : std::nullopt);
}

Result<LossReport> ComputeLoss(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree) {
  EntropyEngine& engine = session->EngineFor(r);
  const EpochPin pin = engine.SyncedPin();
  Status valid = ValidateLossInputs(r, pin.rows, tree);
  if (!valid.ok()) return valid;
  // The count reads the bag and separator partitions; one prewarm builds
  // the missing ones on the engine's pool.
  std::vector<AttrSet> terms = tree.bags();
  for (const DfsStep& s : tree.Decompose(0).steps) terms.push_back(s.delta);
  engine.PrewarmSubsets(terms);
  return ComputeLossAt(&engine, pin, tree);
}

Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree) {
  AnalysisSession session;
  return ComputeLoss(&session, r, tree);
}

Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd) {
  AnalysisSession session;
  return ComputeMvdLoss(&session, r, mvd);
}

Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd) {
  EntropyEngine& engine = session->EngineFor(r);
  return ComputeMvdLossAt(&engine, engine.SyncedPin(), mvd);
}

Result<LossReport> ComputeMvdLossAt(EntropyEngine* engine, const EpochPin& pin,
                                    const Mvd& mvd) {
  Status valid = ValidateMvdLoss(engine->relation(), pin.rows, mvd);
  if (!valid.ok()) return valid;
  const uint64_t join_size = MvdJoinSizeAt(engine, pin, mvd);
  return MakeLossReport(pin.rows, static_cast<double>(join_size), join_size);
}

}  // namespace ajd
