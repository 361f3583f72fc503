#include "core/analysis.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "engine/analysis_session.h"
#include "info/entropy.h"
#include "info/factorized.h"
#include "info/j_measure.h"
#include "relation/ops.h"
#include "util/string_util.h"

namespace ajd {

Result<AjdAnalysis> AnalyzeAjd(const Relation& r, const JoinTree& tree,
                               double delta) {
  AnalysisSession session;
  return AnalyzeAjd(&session, r, tree, delta);
}

Result<AjdAnalysis> AnalyzeAjd(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree, double delta) {
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  Result<LossReport> loss = ComputeLoss(r, tree);
  if (!loss.ok()) return loss.status();

  AjdAnalysis out;
  out.n = r.NumRows();
  out.loss = loss.value();
  out.delta = delta;

  // One calculator backed by the session's engine serves every entropy
  // term below — J, the chain rule, the sandwich, and the support CMIs all
  // walk overlapping sublattices of the same attribute lattice.
  EntropyCalculator calc(session, &r);
  out.j = JMeasure(&calc, tree);
  // The paper's relations are sets: over repeated rows the join of the
  // projections can be smaller than |R|, and every loss goes negative.
  // H(chi(T)), already cached by J, is exactly ln N when the rows are
  // distinct over chi(T); one repeat lowers it by at least 2 ln 2 / N, so
  // half that gap tells the two apart at any row count.
  const double n = static_cast<double>(out.n);
  if (calc.Entropy(tree.AllAttrs()) < std::log(n) - std::log(2.0) / n) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(out.n) + " rows but only " +
        std::to_string(CountDistinct(r, tree.AllAttrs())) +
        " distinct ones over the join tree's attributes; the analysis "
        "needs a set of rows (build the relation with dedupe = true)");
  }
  FactorizedDistribution pt(r, tree);
  out.kl = pt.KlFromEmpirical();
  out.chain_rule_j = JMeasureViaChainRule(&calc, tree);
  SandwichBounds sandwich = DfsSandwich(&calc, tree);
  out.max_dfs_cmi = sandwich.max_cmi;
  out.sum_dfs_cmi = sandwich.sum_cmi;

  out.rho_lower_bound = RhoLowerBoundFromJ(out.j);
  std::vector<double> losses;
  std::vector<double> cmis;
  std::vector<double> epsilons;
  bool all_apply = true;
  for (const Mvd& mvd : tree.SupportMvds()) {
    MvdStat stat;
    stat.mvd = mvd;
    stat.cmi = calc.ConditionalMutualInformation(mvd.side_a, mvd.side_b,
                                                 mvd.lhs);
    Result<LossReport> mvd_loss = ComputeMvdLoss(r, mvd);
    if (!mvd_loss.ok()) return mvd_loss.status();
    stat.rho = mvd_loss.value().rho;
    stat.log1p_rho = mvd_loss.value().log1p_rho;
    AttrSet a_branch = mvd.side_a.Minus(mvd.lhs);
    AttrSet b_branch = mvd.side_b.Minus(mvd.lhs);
    stat.d_a = a_branch.Empty() ? 1 : CountDistinct(r, a_branch);
    stat.d_b = b_branch.Empty() ? 1 : CountDistinct(r, b_branch);
    stat.d_c = mvd.lhs.Empty() ? 1 : CountDistinct(r, mvd.lhs);
    stat.epsilon_star =
        EpsilonStarMvd(stat.d_a, stat.d_b, stat.d_c, out.n, delta);
    stat.thm51_applies =
        Theorem51Applies(stat.d_a, stat.d_b, stat.d_c, out.n, delta);
    all_apply = all_apply && stat.thm51_applies;
    losses.push_back(stat.rho);
    cmis.push_back(stat.cmi);
    epsilons.push_back(stat.epsilon_star);
    out.max_support_cmi = std::max(out.max_support_cmi, stat.cmi);
    out.support.push_back(std::move(stat));
  }
  out.prop51_bound = Proposition51ProductBound(losses);
  SchemaUpperBound prop53 = Proposition53Bound(cmis, epsilons, out.j);
  out.prop53_upper = prop53.sum_cmi_plus_eps;
  out.prop53_valid = all_apply && !out.support.empty();
  out.lossless = out.loss.rho == 0.0;
  return out;
}

std::string AjdAnalysis::ToString() const {
  std::string s;
  s += "AJD loss analysis\n";
  s += "  N = " + std::to_string(n) +
       ", |R'| = " + FormatDouble(loss.join_size) +
       ", rho = " + FormatDouble(loss.rho) +
       ", ln(1+rho) = " + FormatDouble(loss.log1p_rho) + " nats\n";
  s += "  J-measure    = " + FormatDouble(j) + " nats (Eq. 7)\n";
  s += "  D(P || P^T)  = " + FormatDouble(kl) + " nats (Theorem 3.2: == J)\n";
  s += "  chain-rule J = " + FormatDouble(chain_rule_j) + " nats\n";
  s += "  Thm 2.2 sandwich: max support CMI = " +
       FormatDouble(max_support_cmi) +
       " <= J <= sum DFS CMI = " + FormatDouble(sum_dfs_cmi) + "\n";
  s += "  Lemma 4.1: rho >= e^J - 1 = " + FormatDouble(rho_lower_bound) +
       "\n";
  s += "  Prop 5.1:  ln(1+rho) <= " + FormatDouble(prop51_bound) + "\n";
  s += "  support (" + std::to_string(support.size()) + " MVDs):\n";
  for (const MvdStat& m : support) {
    s += "    " + m.mvd.ToString() + ": CMI = " + FormatDouble(m.cmi) +
         ", rho = " + FormatDouble(m.rho) +
         ", eps* = " + FormatDouble(m.epsilon_star) +
         (m.thm51_applies ? " (Thm 5.1 applies)" : " (Thm 5.1 N too small)") +
         "\n";
  }
  if (prop53_valid) {
    s += "  Prop 5.3 (delta = " + FormatDouble(delta) +
         "): ln(1+rho) <= " + FormatDouble(prop53_upper) + " w.h.p.\n";
  }
  s += lossless ? "  => R |= AJD(S): the decomposition is lossless\n"
                : "  => lossy decomposition\n";
  return s;
}

}  // namespace ajd
