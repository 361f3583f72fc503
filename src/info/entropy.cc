#include "info/entropy.h"

#include <cmath>

#include "engine/analysis_session.h"
#include "engine/block_histogram.h"
#include "relation/row_hash.h"
#include "util/math.h"

namespace ajd {

double EntropyOf(const Relation& r, AttrSet attrs) {
  AJD_CHECK(attrs.IsSubsetOf(r.schema().AllAttrs()));
  if (attrs.Empty() || r.NumRows() == 0) return 0.0;
  std::vector<uint32_t> positions = attrs.ToIndices();
  TupleCounter counter(positions.size(), r.NumRows());
  std::vector<uint32_t> key(positions.size());
  for (uint64_t i = 0; i < r.NumRows(); ++i) {
    const uint32_t* row = r.Row(i);
    for (size_t k = 0; k < positions.size(); ++k) key[k] = row[positions[k]];
    counter.Add(key.data());
  }
  // H = ln N - (1/N) sum_y c_y ln c_y, numerically stabler than summing
  // p ln p for large N, and evaluated from the group-size histogram so it
  // equals the engine's value for the same grouping bit for bit.
  BlockSizeHistogram sizes;
  for (uint32_t i = 0; i < counter.NumDistinct(); ++i) {
    sizes.Add(counter.CountAt(i));
  }
  return sizes.EntropyNats(r.NumRows());
}

EntropyCalculator::EntropyCalculator(const Relation* r)
    : owned_(std::make_unique<EntropyEngine>(r)), engine_(owned_.get()) {}

EntropyCalculator::EntropyCalculator(const Relation* r,
                                     const EngineOptions& options)
    : owned_(std::make_unique<EntropyEngine>(r, options)),
      engine_(owned_.get()) {}

EntropyCalculator::EntropyCalculator(AnalysisSession* session,
                                     const Relation* r)
    : engine_(&session->EngineFor(*r)) {}

EntropyCalculator::EntropyCalculator(EntropyEngine* engine,
                                     const EpochPin& pin)
    : engine_(engine), pin_(pin) {}

double EntropyCalculator::Entropy(AttrSet attrs) {
  return pin_ ? engine_->EntropyAt(attrs, *pin_) : engine_->Entropy(attrs);
}

double EntropyCalculator::ConditionalEntropy(AttrSet a, AttrSet c) {
  return Entropy(a.Union(c)) - Entropy(c);
}

double EntropyCalculator::ConditionalMutualInformation(AttrSet a, AttrSet b,
                                                       AttrSet c) {
  double h_ac = Entropy(a.Union(c));
  double h_bc = Entropy(b.Union(c));
  double h_abc = Entropy(a.Union(b).Union(c));
  double h_c = Entropy(c);
  double cmi = h_ac + h_bc - h_abc - h_c;
  // Clamp tiny negative values from floating-point cancellation.
  return cmi < 0.0 && cmi > -1e-9 ? 0.0 : cmi;
}

double EntropyCalculator::MutualInformation(AttrSet a, AttrSet b) {
  return ConditionalMutualInformation(a, b, AttrSet());
}

}  // namespace ajd
