#include "discovery/miner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bounds.h"
#include "engine/analysis_session.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "util/string_util.h"

namespace ajd {

namespace {

// A candidate split of one bag.
struct SplitCandidate {
  AttrSet separator;
  AttrSet side_a;  // A u C
  AttrSet side_b;  // B u C
  double cmi = std::numeric_limits<double>::infinity();
  double sep_entropy = std::numeric_limits<double>::infinity();
  bool valid = false;
};

// Margin a candidate must win by before it replaces the incumbent in any
// scoring or candidate comparison. Entropies are exact functions of the
// attribute set (the same bits at any thread count), but a CMI is a
// difference of four of them, so two splits that are mathematically tied
// can still differ by cancellation error. At or below this margin the
// earliest candidate in the deterministic scan order wins instead; 1e-9
// matches the CMI clamp in the engine.
constexpr double kSelectionEps = 1e-9;

// Ordering on candidates: primarily by CMI; ties (within tolerance) go to
// the separator with smaller entropy. Without the tie-break, conditioning
// on a key attribute always achieves CMI = 0 while duplicating the key into
// every bag — a useless decomposition for storage.
bool BetterThan(const SplitCandidate& a, const SplitCandidate& b) {
  if (!a.valid) return false;
  if (!b.valid) return true;
  if (a.cmi < b.cmi - kSelectionEps) return true;
  if (a.cmi > b.cmi + kSelectionEps) return false;
  return a.sep_entropy < b.sep_entropy - kSelectionEps;
}

// The units that must stay on one side of a split: the (separator-minus-C)
// groups of existing neighbor edges, plus singletons for loose attributes.
std::vector<AttrSet> BuildUnits(AttrSet bag, AttrSet c,
                                const std::vector<AttrSet>& neighbor_seps) {
  std::vector<AttrSet> units;
  AttrSet grouped;
  for (AttrSet sep : neighbor_seps) {
    AttrSet residual = sep.Minus(c);
    if (residual.Empty()) continue;
    // Merge overlapping residuals into one unit (both constraints then pin
    // the union to a single side).
    AttrSet merged = residual;
    std::vector<AttrSet> next_units;
    for (AttrSet u : units) {
      if (!u.DisjointFrom(merged)) {
        merged = merged.Union(u);
      } else {
        next_units.push_back(u);
      }
    }
    next_units.push_back(merged);
    units = std::move(next_units);
    grouped = grouped.Union(residual);
  }
  AttrSet loose = bag.Minus(c).Minus(grouped);
  loose.ForEach([&](uint32_t a) { units.push_back(AttrSet::Singleton(a)); });
  return units;
}

// Expands an assignment (bitmask over units: 1 = side A) into its sides.
void ExpandMask(const std::vector<AttrSet>& units, uint64_t mask, AttrSet* a,
                AttrSet* b) {
  for (size_t u = 0; u < units.size(); ++u) {
    if ((mask >> u) & 1) {
      *a = a->Union(units[u]);
    } else {
      *b = b->Union(units[u]);
    }
  }
}

// Scores an assignment and returns the CMI.
double ScoreAssignment(EntropyCalculator* calc,
                       const std::vector<AttrSet>& units, uint64_t mask,
                       AttrSet c, AttrSet* side_a, AttrSet* side_b) {
  AttrSet a, b;
  ExpandMask(units, mask, &a, &b);
  *side_a = a.Union(c);
  *side_b = b.Union(c);
  return calc->ConditionalMutualInformation(a, b, c);
}

// Exhaustive enumeration is feasible up to this many units (2^15 candidate
// masks); beyond it BestBipartition hill-climbs.
constexpr size_t kMaxExhaustiveUnits = 16;

// Candidate terms BestSplit hands WarmEntropies per call.
constexpr size_t kWarmBatchTerms = size_t{1} << 16;

// Appends the side terms H(A u C), H(B u C) of every exhaustive candidate
// mask for `units` under separator `c` to *terms (at most 2^16 of them;
// the masks of one separator give distinct sides, and WarmEntropies folds
// duplicates across separators). No-op when the space is too large to
// enumerate (the hill-climb case batches per neighborhood instead).
void CollectExhaustiveTerms(const std::vector<AttrSet>& units, AttrSet c,
                            std::vector<AttrSet>* terms) {
  const size_t k = units.size();
  if (k < 2 || k > kMaxExhaustiveUnits) return;
  const uint64_t total = uint64_t{1} << k;
  // Skip empty/full masks; halve the space by fixing unit 0 on side A
  // (mirrors the scoring loop below).
  for (uint64_t mask = 1; mask < total; ++mask) {
    if ((mask & 1) == 0) continue;      // unit 0 pinned to A
    if (mask == total - 1) continue;    // side B empty
    AttrSet a, b;
    ExpandMask(units, mask, &a, &b);
    terms->push_back(a.Union(c));
    terms->push_back(b.Union(c));
  }
}

// Exhaustive best bipartition: every candidate's terms were already batched
// by BestSplit, so the mask-order scan below reads a warm cache; selection
// is deterministic regardless of how many threads filled it.
SplitCandidate BestBipartitionExhaustive(EntropyCalculator* calc,
                                         const std::vector<AttrSet>& units,
                                         AttrSet c) {
  SplitCandidate best;
  best.separator = c;
  const size_t k = units.size();
  const uint64_t total = uint64_t{1} << k;
  for (uint64_t mask = 1; mask < total; ++mask) {
    if ((mask & 1) == 0) continue;
    if (mask == total - 1) continue;
    AttrSet sa, sb;
    double cmi = ScoreAssignment(calc, units, mask, c, &sa, &sb);
    if (!best.valid || cmi < best.cmi - kSelectionEps) {
      best.cmi = cmi;
      best.side_a = sa;
      best.side_b = sb;
      best.valid = true;
    }
  }
  return best;
}

// Hill climbing with restarts for spaces too large to enumerate. Each sweep
// scores the whole neighborhood — the k single-unit flips of the current
// mask, 4 entropy terms each of which H(A u B u C) and H(C) are shared —
// as one deduped batch, then applies the steepest strictly-improving flip.
// Selection happens after the batch completes, in ascending unit order, so
// serial and threaded engines walk identical trajectories.
SplitCandidate BestBipartitionHillClimb(EntropyCalculator* calc,
                                        const std::vector<AttrSet>& units,
                                        AttrSet c, const MinerOptions& options,
                                        Rng* rng) {
  SplitCandidate best;
  best.separator = c;
  const size_t k = units.size();
  // k can reach 64 (a kMaxAttrs relation under the empty separator), where
  // `1 << k` would be undefined.
  const uint64_t full =
      k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  const bool batch = calc->engine().ParallelBatches();
  std::vector<AttrSet> terms;
  for (uint32_t restart = 0; restart < options.hill_climb_restarts;
       ++restart) {
    uint64_t mask = 0;
    // Random non-trivial start.
    for (size_t u = 0; u < k; ++u) {
      if (rng->Bernoulli(0.5)) mask |= uint64_t{1} << u;
    }
    if (mask == 0) mask = 1;
    if (mask == full) mask &= ~uint64_t{1};
    AttrSet sa, sb;
    double current = ScoreAssignment(calc, units, mask, c, &sa, &sb);
    bool improved = true;
    while (improved) {
      improved = false;
      if (batch) {
        terms.clear();
        for (size_t u = 0; u < k; ++u) {
          uint64_t flipped = mask ^ (uint64_t{1} << u);
          if (flipped == 0 || flipped == full) continue;
          AttrSet a, b;
          ExpandMask(units, flipped, &a, &b);
          terms.push_back(a.Union(c));
          terms.push_back(b.Union(c));
        }
        calc->engine().WarmEntropies(terms);  // values re-read below
      }
      size_t best_u = k;
      double best_cmi = current;
      AttrSet ba, bb;
      for (size_t u = 0; u < k; ++u) {
        uint64_t flipped = mask ^ (uint64_t{1} << u);
        if (flipped == 0 || flipped == full) continue;
        AttrSet ta, tb;
        double cmi = ScoreAssignment(calc, units, flipped, c, &ta, &tb);
        if (cmi < best_cmi - kSelectionEps) {
          best_cmi = cmi;
          best_u = u;
          ba = ta;
          bb = tb;
        }
      }
      if (best_u < k) {
        mask ^= uint64_t{1} << best_u;
        current = best_cmi;
        sa = ba;
        sb = bb;
        improved = true;
      }
    }
    if (!best.valid || current < best.cmi - kSelectionEps) {
      best.cmi = current;
      best.side_a = sa;
      best.side_b = sb;
      best.valid = true;
    }
  }
  return best;
}

// One separator's share of a split search: the separator and the immovable
// unit groups of the remainder.
struct SeparatorWork {
  AttrSet c;
  std::vector<AttrSet> units;
};

// Finds the best split of `bag` over all separators up to the size cap.
// All separators of one size build their candidate entropy-term lists up
// front and fan out through one deduped batch, so a threaded engine
// saturates its pool on the misses; the selection pass that follows runs
// in subset-enumeration order either way, keeping the result independent
// of thread count.
SplitCandidate BestSplit(EntropyCalculator* calc, AttrSet bag,
                const std::vector<AttrSet>& neighbor_seps,
                const MinerOptions& options, Rng* rng) {
  SplitCandidate best;
  uint32_t max_sep = std::min(options.max_separator_size, bag.Count());
  for (uint32_t size = 0; size <= max_sep; ++size) {
    std::vector<SeparatorWork> work;
    ForEachSubsetOfSize(bag, size, [&](AttrSet c) {
      work.push_back({c, BuildUnits(bag, c, neighbor_seps)});
    });

    // Seed the separator ancestors: every candidate term is a superset of
    // its separator, so a materialized C partition turns each A u C / B u C
    // miss into a single refinement step. Worth it even on a serial engine.
    std::vector<AttrSet> seps;
    seps.reserve(work.size());
    for (const SeparatorWork& w : work) seps.push_back(w.c);
    calc->engine().PrewarmSubsets(seps);

    if (calc->engine().ParallelBatches()) {
      // Every exhaustive candidate this size emits goes to the pool in
      // batches of about kWarmBatchTerms (every mask shares H(bag) and
      // H(C), neighboring masks share side terms), which bounds the
      // transient however many separators there are. WarmEntropies drops
      // a batch whose predicted work cannot pay for the pool, and with a
      // serial engine the scoring loop below fills the same cache at the
      // same cost, so batching there would be pure overhead. Term order is
      // irrelevant: the engine orders its misses itself.
      std::vector<AttrSet> terms{bag};
      for (const SeparatorWork& w : work) {
        if (!w.c.Empty()) terms.push_back(w.c);
        CollectExhaustiveTerms(w.units, w.c, &terms);
        if (terms.size() >= kWarmBatchTerms) {
          calc->engine().WarmEntropies(terms);
          terms.clear();
        }
      }
      calc->engine().WarmEntropies(terms);
    }

    for (const SeparatorWork& w : work) {
      if (w.units.size() < 2) continue;  // cannot split
      SplitCandidate s =
          w.units.size() <= kMaxExhaustiveUnits
              ? BestBipartitionExhaustive(calc, w.units, w.c)
              : BestBipartitionHillClimb(calc, w.units, w.c, options, rng);
      if (!s.valid) continue;
      s.sep_entropy = calc->Entropy(w.c);
      if (BetterThan(s, best)) best = s;
    }
  }
  return best;
}

// Mutable tree under construction.
struct WorkTree {
  std::vector<AttrSet> bags;
  std::vector<bool> alive;
  // Edges as (u, v) pairs over work indexes; dead nodes have no edges.
  std::vector<std::pair<uint32_t, uint32_t>> edges;

  std::vector<uint32_t> NeighborsOf(uint32_t v) const {
    std::vector<uint32_t> out;
    for (auto [a, b] : edges) {
      if (a == v) out.push_back(b);
      if (b == v) out.push_back(a);
    }
    return out;
  }
};

}  // namespace

Result<MinerReport> MineJoinTree(const Relation& r,
                                 const MinerOptions& options) {
  // A throwaway session still shards: its engines share one worker pool
  // and one cache budget (SessionOptions defaults), so callers that mine
  // several relations through one session get global LRU across them.
  SessionOptions session_options;
  session_options.engine.num_threads = options.num_threads;
  session_options.engine.worker_pool = options.worker_pool;
  AnalysisSession session(session_options);
  return MineJoinTree(&session, r, options);
}

Result<MinerReport> MineJoinTree(AnalysisSession* session, const Relation& r,
                                 const MinerOptions& options) {
  if (r.NumAttrs() < 2) {
    return Status::InvalidArgument("miner needs at least two attributes");
  }
  if (r.NumRows() == 0) {
    return Status::InvalidArgument("miner needs a non-empty relation");
  }
  EntropyCalculator calc(session, &r);
  Rng rng(options.seed);

  WorkTree work;
  work.bags.push_back(r.schema().AllAttrs());
  work.alive.push_back(true);

  std::vector<SplitRecord> splits;
  double sum_cmi = 0.0;

  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t v = 0; v < work.bags.size(); ++v) {
      if (!work.alive[v]) continue;
      AttrSet bag = work.bags[v];
      if (bag.Count() < 2) continue;
      std::vector<uint32_t> neighbors = work.NeighborsOf(v);
      std::vector<AttrSet> neighbor_seps;
      neighbor_seps.reserve(neighbors.size());
      for (uint32_t u : neighbors) {
        neighbor_seps.push_back(bag.Intersect(work.bags[u]));
      }
      SplitCandidate split = BestSplit(&calc, bag, neighbor_seps, options, &rng);
      if (!split.valid) continue;
      const bool forced = bag.Count() > options.max_bag_size;
      if (!forced && split.cmi > options.cmi_threshold) continue;

      // Apply: v becomes side A; a fresh node becomes side B.
      uint32_t vb = static_cast<uint32_t>(work.bags.size());
      work.bags[v] = split.side_a;
      work.bags.push_back(split.side_b);
      work.alive.push_back(true);
      // Re-attach neighbors to the side containing their separator.
      for (auto& [a, b] : work.edges) {
        uint32_t* endpoint = nullptr;
        uint32_t other = 0;
        if (a == v) {
          endpoint = &a;
          other = b;
        } else if (b == v) {
          endpoint = &b;
          other = a;
        } else {
          continue;
        }
        AttrSet sep = work.bags[other].Intersect(bag);
        if (!sep.IsSubsetOf(split.side_a)) {
          AJD_CHECK(sep.IsSubsetOf(split.side_b));
          *endpoint = vb;
        }
      }
      work.edges.emplace_back(v, vb);
      splits.push_back({split.separator, split.side_a, split.side_b,
                        std::max(split.cmi, 0.0)});
      sum_cmi += std::max(split.cmi, 0.0);
      progress = true;
    }
  }

  // Contract bags contained in a neighbor (keeps the schema reduced).
  bool contracted = true;
  while (contracted) {
    contracted = false;
    for (uint32_t v = 0; v < work.bags.size() && !contracted; ++v) {
      if (!work.alive[v]) continue;
      for (uint32_t u : work.NeighborsOf(v)) {
        if (work.bags[v].IsSubsetOf(work.bags[u])) {
          // Move v's other edges to u, drop v.
          std::vector<std::pair<uint32_t, uint32_t>> next_edges;
          for (auto [a, b] : work.edges) {
            if ((a == v && b == u) || (a == u && b == v)) continue;
            if (a == v) a = u;
            if (b == v) b = u;
            next_edges.emplace_back(a, b);
          }
          work.edges = std::move(next_edges);
          work.alive[v] = false;
          contracted = true;
          break;
        }
      }
    }
  }

  // Compact to final ids and build the validated JoinTree.
  std::vector<uint32_t> remap(work.bags.size(), UINT32_MAX);
  std::vector<AttrSet> bags;
  for (uint32_t v = 0; v < work.bags.size(); ++v) {
    if (work.alive[v]) {
      remap[v] = static_cast<uint32_t>(bags.size());
      bags.push_back(work.bags[v]);
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (auto [a, b] : work.edges) {
    AJD_CHECK(remap[a] != UINT32_MAX && remap[b] != UINT32_MAX);
    edges.emplace_back(remap[a], remap[b]);
  }
  Result<JoinTree> tree = JoinTree::Make(std::move(bags), std::move(edges));
  if (!tree.ok()) {
    return Status::Internal("miner produced an invalid tree: " +
                            tree.status().ToString());
  }

  // Member-by-member assembly (not positional aggregate init): adding a
  // field to MinerReport must not silently shift later initializers onto
  // the wrong members.
  MinerReport report{std::move(tree).value()};
  report.splits = std::move(splits);
  report.sum_split_cmi = sum_cmi;
  report.j = JMeasure(&calc, report.tree);
  report.rho_lower_bound = RhoLowerBoundFromJ(report.j);
  return report;
}

std::string MinerReport::ToString(const Schema& schema) const {
  auto names = [&schema](AttrSet s) {
    std::string out = "{";
    bool first = true;
    s.ForEach([&](uint32_t pos) {
      if (!first) out += ",";
      first = false;
      out += schema.attr(pos).name;
    });
    return out + "}";
  };
  std::string s = "Mined join tree with " +
                  std::to_string(tree.NumNodes()) + " bags:\n";
  for (uint32_t v = 0; v < tree.NumNodes(); ++v) {
    s += "  bag " + std::to_string(v) + " = " + names(tree.bag(v)) + "\n";
  }
  s += "splits:\n";
  for (const SplitRecord& sp : splits) {
    s += "  " + names(sp.separator) + " ->> " + names(sp.side_a) + " | " +
         names(sp.side_b) + "  CMI = " + FormatDouble(sp.cmi) + "\n";
  }
  s += "sum split CMI = " + FormatDouble(sum_split_cmi) +
       " (>= J), J = " + FormatDouble(j) +
       ", Lemma 4.1 loss lower bound rho >= " +
       FormatDouble(rho_lower_bound) + "\n";
  return s;
}

}  // namespace ajd
