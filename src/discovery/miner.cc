#include "discovery/miner.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "core/bounds.h"
#include "engine/analysis_session.h"
#include "info/entropy.h"
#include "info/j_measure.h"
#include "util/string_util.h"

namespace ajd {

namespace {

// Margin a candidate must win by before it replaces the incumbent in any
// comparison. Entropies are exact functions of the attribute set (the same
// bits at any thread count), but a mutual information is a difference of
// three or four of them, so two candidates that are mathematically tied
// can still differ by cancellation error. At or below this margin the
// tie-breaks decide instead; 1e-9 matches the CMI clamp in the engine.
constexpr double kSelectionEps = 1e-9;

// Mutable tree under construction.
struct WorkTree {
  std::vector<AttrSet> bags;
  // Edges as (u, v) pairs over bag indexes.
  std::vector<std::pair<uint32_t, uint32_t>> edges;

  uint32_t AddBag(AttrSet bag) {
    bags.push_back(bag);
    return static_cast<uint32_t>(bags.size() - 1);
  }
};

// A candidate step: attach attribute w on separator s inside bag v.
struct Attach {
  uint32_t w = 0;
  uint32_t v = 0;
  AttrSet s;
  double mi = 0.0;     // I(w; s)
  double sep_h = 0.0;  // H(s)
  bool valid = false;
};

// Largest I(w; S) wins; ties go to the smaller H(S) (a low-entropy
// separator stores less: conditioning on a key always scores as well as
// anything while duplicating the key into every bag), then to the lowest
// (w, bag, S) in mask order. The hang candidates of a bag precede its grow
// (S ⊊ b has the smaller mask), so a grow never wins a tie.
bool Better(const Attach& a, const Attach& b) {
  if (!b.valid) return true;
  if (a.mi > b.mi + kSelectionEps) return true;
  if (a.mi < b.mi - kSelectionEps) return false;
  if (a.sep_h < b.sep_h - kSelectionEps) return true;
  if (a.sep_h > b.sep_h + kSelectionEps) return false;
  return std::make_tuple(a.w, a.v, a.s.mask()) <
         std::make_tuple(b.w, b.v, b.s.mask());
}

// Calls fn(S) for every separator an attribute may attach on inside bag b:
// b itself (grow) while |b| < cap, and every proper subset of at most
// max_sep attributes (hang).
template <typename Fn>
void ForEachAttachSeparator(AttrSet b, uint32_t cap, uint32_t max_sep,
                            Fn&& fn) {
  const uint32_t top = std::min(max_sep, b.Count() - 1);
  for (uint32_t k = 0; k <= top; ++k) ForEachSubsetOfSize(b, k, fn);
  if (b.Count() < cap) fn(b);
}

// Builds the tree greedily (see miner.h) into *work and records the steps.
std::vector<AttachStep> BuildGreedy(EntropyCalculator* calc, AttrSet all,
                                    const MinerOptions& options,
                                    WorkTree* work) {
  const uint32_t cap = std::max(options.max_bag_size, 1u);
  const uint32_t max_sep = options.max_separator_size;
  auto h = [calc](AttrSet s) { return calc->Entropy(s); };
  std::vector<AttachStep> steps;

  // Start: every singleton and pair in one batch, then the pair with the
  // largest I(a; b) (the lowest such pair on ties). If no pair shares
  // information the tree opens with `first` alone, and the steps hang every
  // other attribute on the empty separator (a tie goes to H(S) = 0).
  const std::vector<uint32_t> attrs = all.ToIndices();
  std::vector<AttrSet> terms;
  for (uint32_t a : attrs) {
    terms.push_back(AttrSet{a});
    for (uint32_t b : attrs) {
      if (a < b) terms.push_back(AttrSet{a, b});
    }
  }
  calc->engine().WarmEntropies(terms);
  uint32_t first = attrs[0];
  uint32_t second = attrs[1];
  double best = -std::numeric_limits<double>::infinity();
  for (uint32_t a : attrs) {
    for (uint32_t b : attrs) {
      if (cap == 1 || b <= a) continue;
      const double mi = h(AttrSet{a}) + h(AttrSet{b}) - h(AttrSet{a, b});
      if (mi > best + kSelectionEps) {
        best = mi;
        first = a;
        second = b;
      }
    }
  }
  steps.push_back({first, AttrSet(), AttrSet(), 0.0});
  if (best <= kSelectionEps) {  // also cap == 1: best stays at -inf
    work->AddBag(AttrSet{first});
  } else {
    work->AddBag(AttrSet{first, second});
    steps.push_back({second, AttrSet{first}, AttrSet{first},
                     std::max(best, 0.0)});
  }

  AttrSet covered = work->bags[0];
  while (covered != all) {
    const AttrSet uncovered = all.Minus(covered);
    auto for_each_candidate = [&](auto&& fn) {
      uncovered.ForEach([&](uint32_t w) {
        const AttrSet ws = AttrSet::Singleton(w);
        for (uint32_t v = 0; v < work->bags.size(); ++v) {
          ForEachAttachSeparator(work->bags[v], cap, max_sep,
                                 [&](AttrSet s) { fn(w, ws, v, s); });
        }
      });
    };
    terms.clear();
    for_each_candidate([&](uint32_t, AttrSet ws, uint32_t, AttrSet s) {
      terms.push_back(s);
      terms.push_back(s.Union(ws));
    });
    calc->engine().WarmEntropies(terms);
    Attach best;
    for_each_candidate([&](uint32_t w, AttrSet ws, uint32_t v, AttrSet s) {
      const double sep_h = h(s);
      const Attach c{w, v, s, h(ws) + sep_h - h(s.Union(ws)), sep_h, true};
      if (Better(c, best)) best = c;
    });

    const AttrSet bag = work->bags[best.v];
    const AttrSet ws = AttrSet::Singleton(best.w);
    if (best.s == bag) {
      work->bags[best.v] = bag.Union(ws);
    } else {
      const uint32_t fresh = work->AddBag(best.s.Union(ws));
      work->edges.emplace_back(best.v, fresh);
    }
    steps.push_back({best.w, bag, best.s, std::max(best.mi, 0.0)});
    covered = covered.Union(ws);
  }
  return steps;
}

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
  WorkTree work;
  std::vector<AttachStep> steps =
      BuildGreedy(&calc, r.schema().AllAttrs(), options, &work);
  Result<JoinTree> tree =
      JoinTree::Make(std::move(work.bags), std::move(work.edges));
  if (!tree.ok()) {
    return Status::Internal("miner produced an invalid tree: " +
                            tree.status().ToString());
  }

  // Member-by-member assembly (not positional aggregate init): adding a
  // field to MinerReport must not silently shift later initializers onto
  // the wrong members.
  MinerReport report{std::move(tree).value()};
  report.steps = std::move(steps);
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
  s += "attach steps:\n";
  for (const AttachStep& st : steps) {
    const AttrSet w = AttrSet::Singleton(st.attr);
    s += "  " + schema.attr(st.attr).name;
    if (st.bag.Empty()) {
      s += " opens the tree\n";
      continue;
    }
    if (st.separator == st.bag) {
      s += " grows " + names(st.bag) + " into " + names(st.bag.Union(w));
    } else {
      s += " hangs " + names(st.separator.Union(w)) + " off " +
           names(st.bag) + " on " + names(st.separator);
    }
    s += "  I = " + FormatDouble(st.mi) + "\n";
  }
  s += "J = " + FormatDouble(j) + ", Lemma 4.1 loss lower bound rho >= " +
       FormatDouble(rho_lower_bound) + "\n";
  return s;
}

}  // namespace ajd
