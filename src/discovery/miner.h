// Approximate acyclic-schema miner, in the spirit of Kenig et al. (SIGMOD
// 2020) — the motivating application of the paper (Section 1).
//
// Strategy: start from the trivial one-bag tree and repeatedly split bags.
// A split of bag Omega_v picks a separator C and a bipartition A | B of the
// remaining attributes minimizing the empirical conditional mutual
// information I(A; B | C); the bag is replaced by two bags (A u C), (B u C)
// joined by an edge, and existing neighbors re-attach to the side containing
// their separator (preserving the running intersection property by
// construction). Splitting continues while bags exceed `max_bag_size`, or
// while a split below `cmi_threshold` exists.
//
// Because every split adds I(A;B|C) to the chain-rule decomposition of the
// J-measure, the sum of accepted split scores upper-bounds J(T), which in
// turn lower-bounds the loss via Lemma 4.1 — the miner reports both.
#ifndef AJD_DISCOVERY_MINER_H_
#define AJD_DISCOVERY_MINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jointree/join_tree.h"
#include "random/rng.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h
class WorkerPool;       // engine/worker_pool.h

/// Tuning knobs for the miner.
struct MinerOptions {
  /// Maximum separator size |C| considered per split.
  uint32_t max_separator_size = 2;
  /// Bags of at most this many attributes are never forced to split.
  uint32_t max_bag_size = 3;
  /// Accept a split only when its CMI (nats) is at most this threshold —
  /// unless the bag exceeds max_bag_size, in which case the best split is
  /// forced regardless.
  double cmi_threshold = 1e-9;
  /// Number of hill-climb restarts when the bipartition search space is too
  /// large to enumerate.
  uint32_t hill_climb_restarts = 4;
  /// Seed for hill-climb randomization.
  uint64_t seed = 1234;
  /// Engine threads for batched entropy scoring in the convenience
  /// overload: EngineOptions::num_threads semantics, so the default 0 uses
  /// every CPU the process may run on wherever a batch's predicted work
  /// pays for it, and 1 keeps the fully serial engine. The mined tree and
  /// every score are bit-identical at any setting — entropies are pure
  /// functions of the attribute set, and selection runs after each batch
  /// completes, in deterministic mask order — so threads buy wall clock,
  /// not different answers. Like any engine setting above 1, a fan-out
  /// caps glibc malloc at one arena for the whole process the first time
  /// a pool worker spawns, unless the MALLOC_ARENA_MAX environment
  /// variable is set (see EngineOptions::num_threads). The session
  /// overload uses the session's own EngineOptions instead.
  uint32_t num_threads = 0;
  /// Batch pool for the convenience overload's session. nullptr = the
  /// process-wide shared pool; inject one to isolate a miner run's
  /// threading from the rest of the process. The session overload uses the
  /// session's pool instead.
  std::shared_ptr<WorkerPool> worker_pool;
};

/// One accepted split, for diagnostics.
struct SplitRecord {
  AttrSet separator;
  AttrSet side_a;   ///< A u C
  AttrSet side_b;   ///< B u C
  double cmi = 0.0;
};

/// Miner output: the discovered join tree and quality metrics. Every field
/// but the tree carries a member default — construct from the tree and
/// assign the metrics by name, so adding a field can never silently shift
/// positional initializers onto the wrong members.
struct MinerReport {
  explicit MinerReport(JoinTree t) : tree(std::move(t)) {}

  JoinTree tree;
  std::vector<SplitRecord> splits;
  double sum_split_cmi = 0.0;   ///< Upper-bounds J(T) (chain rule).
  double j = 0.0;               ///< Exact J-measure of the result.
  double rho_lower_bound = 0.0; ///< Lemma 4.1: e^J - 1.

  std::string ToString(const Schema& schema) const;
};

/// Mines a join tree for `r`. The relation must have at least 2 attributes
/// and at least 1 row.
Result<MinerReport> MineJoinTree(const Relation& r,
                                 const MinerOptions& options = {});

/// Session-sharing variant: the thousands of overlapping entropy terms the
/// split search evaluates are cached in the session's engine for `r`, so a
/// subsequent AnalyzeAjd(session, r, mined_tree) answers mostly from cache.
///
/// The reuse extends ACROSS EPOCHS: after Relation::AppendBatch grows `r`,
/// re-mining through the same session first catches the engine up
/// incrementally (cached partitions delta-extend over the appended rows,
/// engine/entropy_engine.h), so the re-mine pays O(delta) maintenance plus
/// the search — not a cold rebuild of every term. core/streaming.h's
/// re-mine-on-drift policy is built on exactly this path.
Result<MinerReport> MineJoinTree(AnalysisSession* session, const Relation& r,
                                 const MinerOptions& options = {});

}  // namespace ajd

#endif  // AJD_DISCOVERY_MINER_H_
