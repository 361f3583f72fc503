// Approximate acyclic-schema miner, in the spirit of Kenig et al. (SIGMOD
// 2020) — the motivating application of the paper (Section 1).
//
// Strategy: build the join tree bottom-up, one attribute at a time. By
// Theorem 3.2 a tree's J-measure is the KL divergence it loses, and the
// tree built by attaching attributes w_1, w_2, ... on separators S_1, S_2,
// ... (each S_i inside a bag that already exists) has
//
//   J(T) = sum_i H(w_i | S_i) - H(Omega) = sum_w H(w) - sum_i I(w_i; S_i)
//          - H(Omega),
//
// so every attribute pays H(w) once and the builder greedily collects the
// largest I(w; S) available: it starts from the pair with the largest
// mutual information, then repeatedly either GROWS a bag b by w (S = b,
// while |b| < max_bag_size) or HANGS a new bag S u {w} off b (S a proper
// subset of b, |S| <= max_separator_size, possibly empty). With
// max_bag_size = 2 this is Prim's algorithm on pairwise mutual information
// and returns the Chow–Liu tree, the J-optimal pair tree (Chow & Liu, IEEE
// Trans. Inf. Theory 1968).
//
// The tree comes out as fine as it is lossless: I(w; S) is monotone in S
// and ties go to the smaller separator, so wherever w is exactly
// independent of the rest of a bag given some S inside it, the builder
// hangs w on S instead of growing the bag. The result is also reduced: a
// hung bag holds an attribute its parent never gets, and a grow only adds
// uncovered attributes, so no bag is contained in another.
//
// Trade-off: the opening pair must share information (I > 1e-9). When
// every pair is exactly independent, the tree opens with one attribute and
// the rest hang on the empty separator, one singleton bag each. The
// builder looks one attribute ahead, so a relation whose pairs are all
// independent but whose triples are not (a2 = a0 XOR a1 on uniform bits)
// mines to singleton bags with J = ln 2, although the bag {a0,a1,a2} is
// lossless. Opening with a pair regardless would catch that only when the
// pair happened to lie inside the triple.
//
// Each step sends the entropy terms it has not seen yet through one batch,
// and selection runs after the batch completes, so the tree and every score
// are the same at any thread count.
#ifndef AJD_DISCOVERY_MINER_H_
#define AJD_DISCOVERY_MINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jointree/join_tree.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h
class WorkerPool;       // engine/worker_pool.h

/// Tuning knobs for the miner.
struct MinerOptions {
  /// Largest separator |S| of a hang step.
  uint32_t max_separator_size = 2;
  /// Hard cap on bag size: the builder never grows a bag past it (1 yields
  /// singleton bags; 0 is treated as 1).
  uint32_t max_bag_size = 3;
  /// Engine threads for batched entropy scoring in the convenience
  /// overload: EngineOptions::num_threads semantics, so the default 0 uses
  /// every CPU the process may run on wherever a batch's predicted work
  /// pays for it, and 1 keeps the fully serial engine. The mined tree and
  /// every score are bit-identical at any setting — entropies are pure
  /// functions of the attribute set, and selection runs after each batch
  /// completes, in a fixed candidate order — so threads buy wall clock,
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

/// One builder step, for diagnostics: attribute `attr` joined the tree on
/// separator `separator` inside `bag` (the bag as it was before the step).
/// `separator == bag` grows the bag; a proper subset hangs the new bag
/// separator u {attr} off it. The first step has an empty bag: it opens
/// the tree.
struct AttachStep {
  uint32_t attr = 0;
  AttrSet bag;
  AttrSet separator;
  double mi = 0.0;  ///< I(attr; separator), nats.
};

/// Miner output: the discovered join tree and quality metrics. Every field
/// but the tree carries a member default — construct from the tree and
/// assign the metrics by name, so adding a field can never silently shift
/// positional initializers onto the wrong members.
struct MinerReport {
  explicit MinerReport(JoinTree t) : tree(std::move(t)) {}

  JoinTree tree;
  /// The builder's steps, one per attribute, in order:
  /// J = sum H(attr | separator) - H(all attributes) exactly.
  std::vector<AttachStep> steps;
  double j = 0.0;               ///< Exact J-measure of the result.
  double rho_lower_bound = 0.0; ///< Lemma 4.1: e^J - 1.

  std::string ToString(const Schema& schema) const;
};

/// Mines a join tree for `r`. The relation must have at least 2 attributes
/// and at least 1 row.
Result<MinerReport> MineJoinTree(const Relation& r,
                                 const MinerOptions& options = {});

/// Session-sharing variant: the entropy terms the builder evaluates (every
/// singleton and pair, then each step's candidates) are cached in the
/// session's engine for `r`, so a subsequent AnalyzeAjd(session, r,
/// mined_tree) answers its bag and separator terms from cache.
///
/// The reuse extends ACROSS EPOCHS: after Relation::AppendBatch grows `r`,
/// re-mining through the same session first catches the engine up
/// incrementally (cached partitions delta-extend over the appended rows,
/// engine/entropy_engine.h), so the re-mine pays O(delta) maintenance plus
/// the build — not a cold rebuild of every term. core/streaming.h's
/// re-mine-on-drift policy is built on exactly this path.
Result<MinerReport> MineJoinTree(AnalysisSession* session, const Relation& r,
                                 const MinerOptions& options = {});

}  // namespace ajd

#endif  // AJD_DISCOVERY_MINER_H_
