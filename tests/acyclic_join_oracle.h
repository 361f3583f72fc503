// The hash-based join counters that ComputeLoss and ComputeMvdLoss
// (core/loss.h) replaced, kept as differential oracles for the engine's
// partition counts (tests/loss_engine_test.cc, tests/analysis_test.cc and
// the join-size tests):
//  * CountAcyclicJoin: one relation-sized TupleCounter per bag holding the
//    distinct projection R[Omega_i], and Yannakakis count propagation
//    whose messages are TupleCounters keyed by separator tuples. The
//    engine count must match it: exact bitwise, and approx bitwise
//    whenever exact < 2^53.
//  * MvdJoinSize: the two-sided join of an MVD by hash group counting.
#ifndef AJD_TESTS_ACYCLIC_JOIN_ORACLE_H_
#define AJD_TESTS_ACYCLIC_JOIN_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "jointree/join_tree.h"
#include "jointree/mvd.h"
#include "relation/attr_set.h"
#include "relation/relation.h"
#include "relation/row_hash.h"
#include "util/check.h"
#include "util/math.h"

namespace ajd {
namespace join_oracle {

/// Size of an acyclic join, tracked both in floating point (always valid;
/// exact below 2^53) and as uint64 when it does not overflow.
struct AcyclicJoinCount {
  /// |R'| as a double. Exact when |R'| < 2^53.
  double approx = 0.0;
  /// |R'| as an exact integer, when representable in uint64.
  std::optional<uint64_t> exact;
};

namespace internal {

// Distinct projection of r onto the (ascending) positions of `attrs`,
// held as a TupleCounter (counts are 1 per distinct tuple here).
inline TupleCounter DistinctProjection(const Relation& r, AttrSet attrs) {
  std::vector<uint32_t> positions = attrs.ToIndices();
  TupleCounter counter(positions.size(), r.NumRows());
  std::vector<uint32_t> key(positions.size());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    const uint32_t* row = r.Row(i);
    for (size_t k = 0; k < positions.size(); ++k) key[k] = row[positions[k]];
    // Count each distinct projected tuple once.
    if (counter.Find(key.data()) == UINT32_MAX) counter.Add(key.data());
  }
  return counter;
}

// Positions (within the ascending index list of `bag`) of the attributes in
// `subset` (a subset of bag), in ascending attribute order.
inline std::vector<uint32_t> LocalPositions(AttrSet bag, AttrSet subset) {
  AJD_CHECK(subset.IsSubsetOf(bag));
  std::vector<uint32_t> bag_idx = bag.ToIndices();
  std::vector<uint32_t> out;
  out.reserve(subset.Count());
  for (uint32_t i = 0; i < bag_idx.size(); ++i) {
    if (subset.Contains(bag_idx[i])) out.push_back(i);
  }
  return out;
}

// A message from a child node to its parent: for each separator tuple, the
// total weight (number of join results in the child's subtree consistent
// with that separator value).
struct Message {
  // Separator width 0 means the message is a scalar (stored in
  // scalar_approx / scalar_exact).
  TupleCounter keys{1};
  std::vector<double> approx;
  std::vector<uint64_t> exact;
  bool exact_valid = true;
  double scalar_approx = 0.0;
  std::optional<uint64_t> scalar_exact = 0;  // nullopt once overflowed
  size_t sep_width = 0;
};

}  // namespace internal

/// Computes |join_i R[Omega_i]| for the bags of `tree` by count propagation.
/// Requires tree's attributes to be a subset of r's attributes. The bags of
/// the tree need not cover all of r's attributes: the join (and hence the
/// count) is over chi(T) only.
inline AcyclicJoinCount CountAcyclicJoin(const Relation& r,
                                        const JoinTree& tree) {
  AJD_CHECK(tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs()));
  DfsDecomposition dec = tree.Decompose(0);
  const uint32_t m = tree.NumNodes();

  // Projections of r onto each bag.
  using internal::LocalPositions;
  using internal::Message;
  std::vector<TupleCounter> proj;
  proj.reserve(m);
  for (uint32_t v = 0; v < m; ++v) {
    proj.push_back(internal::DistinctProjection(r, tree.bag(v)));
  }

  // Children of each node under the DFS rooting.
  std::vector<std::vector<uint32_t>> children(m);
  std::vector<AttrSet> sep(m);  // separator with parent, for non-roots
  for (const DfsStep& s : dec.steps) {
    children[s.parent].push_back(s.node);
    sep[s.node] = s.delta;
  }

  // Process nodes in reverse DFS order (leaves first).
  std::vector<Message> messages(m);
  for (size_t oi = dec.order.size(); oi-- > 0;) {
    uint32_t v = dec.order[oi];
    AttrSet bag = tree.bag(v);
    std::vector<uint32_t> bag_positions = bag.ToIndices();

    // For each child, where its separator lives inside this bag's tuple.
    struct ChildRef {
      const Message* msg;
      std::vector<uint32_t> local;  // positions within v's tuple
    };
    std::vector<ChildRef> child_refs;
    child_refs.reserve(children[v].size());
    for (uint32_t c : children[v]) {
      child_refs.push_back({&messages[c], LocalPositions(bag, sep[c])});
    }

    const bool is_root = (v == dec.order[0]);
    AttrSet up_sep = is_root ? AttrSet() : sep[v];
    std::vector<uint32_t> up_local = LocalPositions(bag, up_sep);

    Message msg;
    msg.sep_width = up_local.size();
    msg.keys = TupleCounter(std::max<size_t>(msg.sep_width, 1),
                            proj[v].NumDistinct());
    double total_approx = 0.0;
    uint64_t total_exact = 0;
    bool total_exact_valid = true;

    std::vector<uint32_t> child_key;
    std::vector<uint32_t> up_key(std::max<size_t>(msg.sep_width, 1));
    for (uint32_t t = 0; t < proj[v].NumDistinct(); ++t) {
      const uint32_t* tuple = proj[v].TupleAt(t);
      double w_approx = 1.0;
      uint64_t w_exact = 1;
      bool w_exact_valid = true;
      bool dangling = false;
      for (const ChildRef& cr : child_refs) {
        double child_approx;
        std::optional<uint64_t> child_exact;
        if (cr.msg->sep_width == 0) {
          child_approx = cr.msg->scalar_approx;
          child_exact = cr.msg->scalar_exact;
        } else {
          child_key.resize(cr.local.size());
          for (size_t k = 0; k < cr.local.size(); ++k) {
            child_key[k] = tuple[cr.local[k]];
          }
          uint32_t idx = cr.msg->keys.Find(child_key.data());
          if (idx == UINT32_MAX) {
            dangling = true;
            break;
          }
          child_approx = cr.msg->approx[idx];
          if (cr.msg->exact_valid) child_exact = cr.msg->exact[idx];
        }
        w_approx *= child_approx;
        if (w_exact_valid && child_exact.has_value()) {
          auto prod = CheckedMul(w_exact, *child_exact);
          if (prod) {
            w_exact = *prod;
          } else {
            w_exact_valid = false;
          }
        } else {
          w_exact_valid = false;
        }
      }
      if (dangling) continue;

      if (is_root) {
        total_approx += w_approx;
        if (total_exact_valid && w_exact_valid) {
          auto sum = CheckedAdd(total_exact, w_exact);
          if (sum) {
            total_exact = *sum;
          } else {
            total_exact_valid = false;
          }
        } else {
          total_exact_valid = false;
        }
        continue;
      }

      if (msg.sep_width == 0) {
        msg.scalar_approx += w_approx;
        if (msg.scalar_exact.has_value() && w_exact_valid) {
          auto sum = CheckedAdd(*msg.scalar_exact, w_exact);
          msg.scalar_exact = sum;  // nullopt on overflow
        } else {
          msg.scalar_exact = std::nullopt;
        }
        continue;
      }

      for (size_t k = 0; k < up_local.size(); ++k) {
        up_key[k] = tuple[up_local[k]];
      }
      uint32_t idx = msg.keys.Find(up_key.data());
      if (idx == UINT32_MAX) {
        idx = msg.keys.Add(up_key.data());
        msg.approx.push_back(0.0);
        msg.exact.push_back(0);
      }
      msg.approx[idx] += w_approx;
      if (msg.exact_valid && w_exact_valid) {
        auto sum = CheckedAdd(msg.exact[idx], w_exact);
        if (sum) {
          msg.exact[idx] = *sum;
        } else {
          msg.exact_valid = false;
        }
      } else {
        msg.exact_valid = false;
      }
    }

    if (is_root) {
      AcyclicJoinCount out;
      out.approx = total_approx;
      if (total_exact_valid) out.exact = total_exact;
      return out;
    }
    if (msg.sep_width == 0 && !msg.scalar_exact.has_value()) {
      msg.exact_valid = false;
    }
    messages[v] = std::move(msg);
  }
  AJD_CHECK_MSG(false, "unreachable: root not processed");
  return {};
}

/// |Pi_{side_a}(R) join Pi_{side_b}(R)| on every shared attribute, by hash
/// group counting: the MVD join size behind rho(R, phi) (Eq. 28) that
/// MvdJoinSizeAt (core/partition_counts.h) reads off partitions.
inline uint64_t MvdJoinSize(const Relation& r, const Mvd& mvd) {
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

  return join_size;
}

}  // namespace join_oracle
}  // namespace ajd

#endif  // AJD_TESTS_ACYCLIC_JOIN_ORACLE_H_
