// Experiment DISC — miner ablation: on planted AJD instances with growing
// noise, the J-guided greedy miner finds schemas whose measured loss (a)
// tracks the planted structure, (b) respects the Lemma 4.1 prediction made
// BEFORE materializing anything, and (c) beats a structure-oblivious
// baseline (the full-independence star schema).
//
// Exits 1 unless the noise-0 schema is lossless and every mined schema's
// exact rho is at most the baseline's, so a clean exit is the check.
#include <cstdio>

#include "core/analysis.h"
#include "core/worstcase.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "io/table_printer.h"
#include "random/rng.h"
#include "util/string_util.h"

int main() {
  using namespace ajd;
  std::printf("== DISC: miner quality on planted AJD + noise ==\n\n");
  Rng rng(991);

  TablePrinter table({"noise", "N", "mined bags", "mined J",
                      "predicted rho >=", "actual rho", "baseline rho",
                      "lossless?"});
  bool ok = true;
  for (uint64_t noise : {0ull, 4ull, 16ull, 64ull, 256ull}) {
    Instance planted =
        MakeLosslessMvdInstance(24, 24, 16, 5, 5, &rng).value();
    Relation r = noise == 0
                     ? planted.relation
                     : AddNoiseTuples(planted.relation, noise, &rng).value();

    MinerOptions options;
    options.max_bag_size = 2;
    // One session per relation: the analysis after mining answers its
    // entropy terms from the cache the builder already filled.
    AnalysisSession session;
    MinerReport mined = MineJoinTree(&session, r, options).value();
    AjdAnalysis a = AnalyzeAjd(&session, r, mined.tree).value();

    // Baseline: fully-independent star schema {A},{B},{C}.
    JoinTree baseline =
        JoinTree::FromMvdPartition(AttrSet(),
                                   {AttrSet{0}, AttrSet{1}, AttrSet{2}})
            .value();
    AjdAnalysis base = AnalyzeAjd(&session, r, baseline).value();

    table.AddRow({std::to_string(noise), std::to_string(r.NumRows()),
                  std::to_string(mined.tree.NumNodes()),
                  FormatDouble(mined.j, 5),
                  FormatDouble(mined.rho_lower_bound, 5),
                  FormatDouble(a.loss.rho, 5),
                  FormatDouble(base.loss.rho, 5),
                  a.lossless ? "yes" : "no"});
    if (noise == 0 && !a.lossless) {
      std::fprintf(stderr, "FAIL: the noise-0 schema is lossy\n");
      ok = false;
    }
    if (a.loss.rho > base.loss.rho) {
      std::fprintf(stderr, "FAIL: noise %llu: mined rho %g > baseline %g\n",
                   static_cast<unsigned long long>(noise), a.loss.rho,
                   base.loss.rho);
      ok = false;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Shape: at noise 0 the miner recovers the planted MVD losslessly;\n"
      "as noise grows, mined J and actual rho grow together while the\n"
      "Lemma 4.1 prediction stays below the actual loss; the mined schema\n"
      "always beats the independence baseline by orders of magnitude.\n");
  return ok ? 0 : 1;
}
