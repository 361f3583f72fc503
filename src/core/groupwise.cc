#include "core/groupwise.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "engine/analysis_session.h"
#include "engine/block_histogram.h"
#include "relation/row_hash.h"
#include "util/math.h"
#include "util/string_util.h"

namespace ajd {

namespace {
Result<GroupwiseMvdReport> AnalyzeMvdGroupwiseImpl(const Relation& r,
                                                   AttrSet a_attrs,
                                                   AttrSet b_attrs,
                                                   AttrSet c_attrs,
                                                   double delta);
}  // namespace

Result<GroupwiseMvdReport> AnalyzeMvdGroupwise(const Relation& r,
                                               AttrSet a_attrs,
                                               AttrSet b_attrs,
                                               AttrSet c_attrs,
                                               double delta) {
  return AnalyzeMvdGroupwiseImpl(r, a_attrs, b_attrs, c_attrs, delta);
}

Result<GroupwiseMvdReport> AnalyzeMvdGroupwise(AnalysisSession* session,
                                               const Relation& r,
                                               AttrSet a_attrs,
                                               AttrSet b_attrs,
                                               AttrSet c_attrs,
                                               double delta) {
  Result<GroupwiseMvdReport> report =
      AnalyzeMvdGroupwiseImpl(r, a_attrs, b_attrs, c_attrs, delta);
  if (report.ok()) {
    // Warm the session's engine with the Eq. (4) terms of this MVD; the
    // value is the mixture CMI again (Eq. 336), so only the caching side
    // effect matters here.
    session->EngineFor(r).ConditionalMutualInformation(a_attrs, b_attrs,
                                                       c_attrs);
  }
  return report;
}

namespace {

Result<GroupwiseMvdReport> AnalyzeMvdGroupwiseImpl(const Relation& r,
                                                   AttrSet a_attrs,
                                                   AttrSet b_attrs,
                                                   AttrSet c_attrs,
                                                   double delta) {
  if (r.NumRows() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  if (a_attrs.Empty() || b_attrs.Empty()) {
    return Status::InvalidArgument("branches must be non-empty");
  }
  if (!a_attrs.DisjointFrom(b_attrs) || !a_attrs.DisjointFrom(c_attrs) ||
      !b_attrs.DisjointFrom(c_attrs)) {
    return Status::InvalidArgument("A, B, C must be pairwise disjoint");
  }
  AttrSet all = a_attrs.Union(b_attrs).Union(c_attrs);
  if (!all.IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument("attributes outside the relation");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }

  GroupwiseMvdReport report;
  report.n = r.NumRows();
  auto dom = [&r](AttrSet s) -> uint64_t {
    auto p = r.schema().DomainProduct(s);
    return p.has_value() ? std::max<uint64_t>(*p, 1) : UINT64_MAX;
  };
  report.d_a = dom(a_attrs);
  report.d_b = dom(b_attrs);
  report.d_c = dom(c_attrs);

  // One pass: group rows by C; per group, count rows and collect distinct
  // A-side / B-side / AB-side tuples (the per-group sub-relation is small,
  // so nested TupleCounters per group are built lazily).
  std::vector<uint32_t> a_pos = a_attrs.ToIndices();
  std::vector<uint32_t> b_pos = b_attrs.ToIndices();
  std::vector<uint32_t> c_pos = c_attrs.ToIndices();

  TupleCounter c_groups(std::max<size_t>(c_pos.size(), 1), r.NumRows());
  struct GroupAccum {
    TupleCounter a{1};
    TupleCounter b{1};
    TupleCounter ab{1};
    uint64_t n = 0;
  };
  std::vector<GroupAccum> accums;

  std::vector<uint32_t> c_key(std::max<size_t>(c_pos.size(), 1), 0);
  std::vector<uint32_t> a_key(a_pos.size());
  std::vector<uint32_t> b_key(b_pos.size());
  std::vector<uint32_t> ab_key(a_pos.size() + b_pos.size());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    const uint32_t* row = r.Row(i);
    for (size_t k = 0; k < c_pos.size(); ++k) c_key[k] = row[c_pos[k]];
    uint32_t g = c_groups.Find(c_key.data());
    if (g == UINT32_MAX) {
      g = c_groups.Add(c_key.data());
      accums.emplace_back();
      accums.back().a = TupleCounter(a_pos.size());
      accums.back().b = TupleCounter(b_pos.size());
      accums.back().ab = TupleCounter(ab_key.size());
    } else {
      c_groups.AddWeighted(c_key.data(), 0);  // no-op; keep counts via n
    }
    GroupAccum& acc = accums[g];
    ++acc.n;
    for (size_t k = 0; k < a_pos.size(); ++k) a_key[k] = row[a_pos[k]];
    for (size_t k = 0; k < b_pos.size(); ++k) b_key[k] = row[b_pos[k]];
    std::copy(a_key.begin(), a_key.end(), ab_key.begin());
    std::copy(b_key.begin(), b_key.end(), ab_key.begin() + a_pos.size());
    acc.a.Add(a_key.data());
    acc.b.Add(b_key.data());
    acc.ab.Add(ab_key.data());
  }

  const double n = static_cast<double>(r.NumRows());
  // Every entropy below — the per-group H_c terms and H(C) itself — is
  // evaluated from a group-size histogram, the same accumulator the engine
  // uses (engine/block_histogram.h).
  BlockSizeHistogram sizes;
  BlockSizeHistogram c_sizes;
  double mvd_join_size = 0.0;
  double mixture = 0.0;
  double eq44_mixture = 0.0;
  report.min_group = UINT64_MAX;
  for (uint32_t g = 0; g < accums.size(); ++g) {
    const GroupAccum& acc = accums[g];
    GroupStat stat;
    const uint32_t* ct = c_groups.TupleAt(g);
    stat.c_value.assign(ct, ct + c_pos.size());
    stat.n = acc.n;
    stat.distinct_a = acc.a.NumDistinct();
    stat.distinct_b = acc.b.NumDistinct();
    double group_join = static_cast<double>(stat.distinct_a) *
                        static_cast<double>(stat.distinct_b);
    stat.rho = group_join / static_cast<double>(stat.n) - 1.0;
    if (stat.rho < 0.0 && stat.rho > -1e-12) stat.rho = 0.0;
    mvd_join_size += group_join;

    // I(A;B | C=c) over the group's empirical distribution:
    //   H_c(A) + H_c(B) - H_c(AB), with H from the per-group counters.
    auto entropy = [&](const TupleCounter& counter) {
      sizes.Clear();
      for (uint32_t i = 0; i < counter.NumDistinct(); ++i) {
        sizes.Add(counter.CountAt(i));
      }
      return sizes.EntropyNats(stat.n);
    };
    stat.mi = entropy(acc.a) + entropy(acc.b) - entropy(acc.ab);
    if (stat.mi < 0.0 && stat.mi > -1e-9) stat.mi = 0.0;

    double p_c = static_cast<double>(stat.n) / n;
    mixture += p_c * stat.mi;
    // Eq. (44) uses the domain-capped per-group loss d_A d_B / N(c) - 1.
    double rho_bar = static_cast<double>(report.d_a) *
                         static_cast<double>(report.d_b) /
                         static_cast<double>(stat.n) -
                     1.0;
    eq44_mixture += p_c * std::log1p(std::max(rho_bar, 0.0));
    c_sizes.Add(stat.n);
    report.min_group = std::min(report.min_group, stat.n);
    report.groups.push_back(std::move(stat));
  }

  report.h_c = c_sizes.EntropyNats(report.n);
  report.mixture_cmi = mixture;
  report.cmi = mixture;  // Eq. (336): the mixture IS the conditional MI.
  report.log1p_rho = std::log(mvd_join_size / n);
  report.eq44_rhs = std::log(static_cast<double>(report.d_c)) -
                    report.h_c + eq44_mixture;
  report.lemma_c1_threshold =
      128.0 * static_cast<double>(report.d_a) *
      std::log(128.0 * static_cast<double>(report.d_a) / delta);
  report.lemma_c1_holds =
      static_cast<double>(report.min_group) >= report.lemma_c1_threshold;
  return report;
}

}  // namespace

std::string GroupwiseMvdReport::ToString() const {
  std::string s = "Groupwise MVD analysis: " + std::to_string(groups.size()) +
                  " groups, N = " + std::to_string(n) + "\n";
  s += "  I(A;B|C) = " + FormatDouble(cmi) +
       " nats (mixture identity, Eq. 336)\n";
  s += "  ln(1+rho(phi)) = " + FormatDouble(log1p_rho) +
       " <= Eq.(44) rhs = " + FormatDouble(eq44_rhs) + "\n";
  s += "  H(C) = " + FormatDouble(h_c) + ", ln d_C = " +
       FormatDouble(std::log(static_cast<double>(d_c))) + "\n";
  s += "  min group = " + std::to_string(min_group) +
       (lemma_c1_holds ? " (Lemma C.1 holds)" : " (below Lemma C.1)") + "\n";
  return s;
}

}  // namespace ajd
