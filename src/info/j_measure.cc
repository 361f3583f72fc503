#include "info/j_measure.h"

#include <algorithm>

namespace ajd {

double JMeasure(const Relation& r, const JoinTree& tree) {
  EntropyCalculator calc(&r);
  return JMeasure(&calc, tree);
}

double JMeasure(EntropyCalculator* calc, const JoinTree& tree) {
  return JMeasureDetailed(calc, tree).j;
}

JMeasureBreakdown JMeasureDetailed(const Relation& r, const JoinTree& tree) {
  EntropyCalculator calc(&r);
  return JMeasureDetailed(&calc, tree);
}

JMeasureBreakdown JMeasureDetailed(EntropyCalculator* calc,
                                   const JoinTree& tree) {
  JMeasureBreakdown out;
  for (uint32_t v = 0; v < tree.NumNodes(); ++v) {
    out.sum_bag_entropies += calc->Entropy(tree.bag(v));
  }
  for (const auto& [u, v] : tree.Edges()) {
    out.sum_sep_entropies +=
        calc->Entropy(tree.bag(u).Intersect(tree.bag(v)));
  }
  out.total_entropy = calc->Entropy(tree.AllAttrs());
  out.j = out.sum_bag_entropies - out.sum_sep_entropies - out.total_entropy;
  // J >= 0 always (Theorem 3.2: it is a KL divergence); clamp fp noise.
  if (out.j < 0.0 && out.j > -1e-9) out.j = 0.0;
  return out;
}

SandwichBounds DfsSandwich(const Relation& r, const JoinTree& tree,
                           uint32_t root) {
  EntropyCalculator calc(&r);
  return DfsSandwich(&calc, tree, root);
}

SandwichBounds DfsSandwich(EntropyCalculator* calc, const JoinTree& tree,
                           uint32_t root) {
  DfsDecomposition dec = tree.Decompose(root);
  SandwichBounds out;
  for (const DfsStep& s : dec.steps) {
    double cmi =
        calc->ConditionalMutualInformation(s.prefix, s.suffix, s.delta);
    out.per_step_cmi.push_back(cmi);
    out.max_cmi = std::max(out.max_cmi, cmi);
    out.sum_cmi += cmi;
  }
  return out;
}

double JMeasureViaChainRule(const Relation& r, const JoinTree& tree,
                            uint32_t root) {
  EntropyCalculator calc(&r);
  return JMeasureViaChainRule(&calc, tree, root);
}

double JMeasureViaChainRule(EntropyCalculator* calc, const JoinTree& tree,
                            uint32_t root) {
  DfsDecomposition dec = tree.Decompose(root);
  double sum = 0.0;
  for (const DfsStep& s : dec.steps) {
    sum += calc->ConditionalMutualInformation(s.prefix, s.bag, s.delta);
  }
  return sum;
}

std::vector<double> SupportCmis(const Relation& r, const JoinTree& tree) {
  EntropyCalculator calc(&r);
  return SupportCmis(&calc, tree);
}

std::vector<double> SupportCmis(EntropyCalculator* calc,
                                const JoinTree& tree) {
  std::vector<double> out;
  for (const Mvd& mvd : tree.SupportMvds()) {
    out.push_back(
        calc->ConditionalMutualInformation(mvd.side_a, mvd.side_b, mvd.lhs));
  }
  return out;
}

}  // namespace ajd
