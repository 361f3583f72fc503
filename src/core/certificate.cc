#include "core/certificate.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "core/groupwise.h"
#include "core/partition_counts.h"
#include "engine/analysis_session.h"
#include "info/entropy.h"
#include "util/string_util.h"

namespace ajd {

Result<LossCertificate> CertifyLoss(const Relation& r, const JoinTree& tree,
                                    double delta) {
  AnalysisSession session;
  return CertifyLoss(&session, r, tree, delta);
}

Result<LossCertificate> CertifyLoss(AnalysisSession* session,
                                    const Relation& r, const JoinTree& tree,
                                    double delta) {
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (r.NumRows() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  if (!tree.AllAttrs().IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument(
        "join tree references attributes outside the relation");
  }
  if (tree.NumNodes() < 2) {
    return Status::InvalidArgument(
        "a certificate needs at least two bags (one MVD)");
  }

  LossCertificate cert;
  cert.delta = delta;
  cert.n = r.NumRows();
  const std::vector<Mvd> support = tree.SupportMvds();
  const double per_mvd_delta = delta / static_cast<double>(support.size());

  EntropyCalculator calc(session, &r);
  EntropyEngine& engine = calc.engine();
  engine.CatchUp();
  const EpochPin pin = engine.Pin();
  bool all_qualified = true;
  for (const Mvd& mvd : support) {
    MvdCertificate mc;
    mc.mvd = mvd;
    mc.cmi =
        calc.ConditionalMutualInformation(mvd.side_a, mvd.side_b, mvd.lhs);
    AttrSet a_branch = mvd.side_a.Minus(mvd.lhs);
    AttrSet b_branch = mvd.side_b.Minus(mvd.lhs);
    const MvdDomainSizes d = MvdDomainSizesAt(&engine, pin, mvd);
    mc.d_a = d.d_a;
    mc.d_b = d.d_b;
    mc.d_c = d.d_c;
    mc.epsilon =
        EpsilonStarMvd(mc.d_a, mc.d_b, mc.d_c, cert.n, per_mvd_delta);
    mc.qualifies_37 =
        Theorem51Applies(mc.d_a, mc.d_b, mc.d_c, cert.n, per_mvd_delta);
    // Lemma C.1 group condition via the groupwise analyzer (branches must
    // be disjoint for it; support MVDs satisfy this by RIP).
    Result<GroupwiseMvdReport> group = AnalyzeMvdGroupwise(
        session, r, a_branch.Empty() ? mvd.side_a : a_branch,
        b_branch.Empty() ? mvd.side_b : b_branch, mvd.lhs, per_mvd_delta);
    if (group.ok()) {
      mc.min_group = group.value().min_group;
      mc.qualifies_c1 = group.value().lemma_c1_holds;
    }
    all_qualified = all_qualified && mc.qualifies_37 && mc.qualifies_c1;
    cert.bound_nats += mc.cmi + mc.epsilon;
    cert.mvds.push_back(std::move(mc));
  }
  cert.bound_rho = std::expm1(cert.bound_nats);
  cert.fully_qualified = all_qualified;
  return cert;
}

std::string LossCertificate::ToString() const {
  std::string s = "Loss certificate (delta = " + FormatDouble(delta) +
                  ", N = " + std::to_string(n) + ")\n";
  for (const MvdCertificate& mc : mvds) {
    s += "  " + mc.mvd.ToString() + ": CMI = " + FormatDouble(mc.cmi) +
         ", eps = " + FormatDouble(mc.epsilon, 4) +
         (mc.qualifies_37 ? ", (37) ok" : ", (37) FAILS") +
         (mc.qualifies_c1 ? ", C.1 ok" : ", C.1 FAILS (min group " +
                                             std::to_string(mc.min_group) +
                                             ")") +
         "\n";
  }
  s += "  => w.p. >= " + FormatDouble(1.0 - delta) +
       ": ln(1+rho) <= " + FormatDouble(bound_nats) +
       "  (rho <= " + FormatDouble(bound_rho, 4) + ")\n";
  s += fully_qualified
           ? "  status: FULLY QUALIFIED (paper guarantee regime)\n"
           : "  status: ADVISORY (qualifying conditions not met at this "
             "scale;\n          Prop 5.1's composition is typical-case "
             "only: see bench/prop51_decomposition.cc)\n";
  return s;
}

Result<uint64_t> PlanSampleSize(uint64_t d_a, uint64_t d_b, uint64_t d_c,
                                double delta, double target_eps,
                                uint64_t n_cap) {
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (target_eps <= 0.0) {
    return Status::InvalidArgument("target_eps must be positive");
  }
  auto good = [&](uint64_t n) {
    return Theorem51Applies(d_a, d_b, d_c, n, delta) &&
           EpsilonStarMvd(d_a, d_b, d_c, n, delta) <= target_eps;
  };
  if (!good(n_cap)) {
    return Status::OutOfRange("no N <= n_cap achieves the target epsilon");
  }
  uint64_t lo = 1, hi = n_cap;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (good(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace ajd
