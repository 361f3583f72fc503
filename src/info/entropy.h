// Entropies and (conditional) mutual information over the empirical
// distribution of a relation (Section 2.2, Eqs. 2-4). All values in nats.
//
// EntropyCalculator keeps its historical API but delegates to the shared
// columnar EntropyEngine (engine/entropy_engine.h): entropies are answered
// from an AttrSet-keyed cache backed by partition refinement instead of
// re-scanning the row-major data per call. Construct it with an
// AnalysisSession to share one engine (and every cached term) across the
// J-measure, the Theorem 2.2 sandwiches, and the schema miner.
#ifndef AJD_INFO_ENTROPY_H_
#define AJD_INFO_ENTROPY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/entropy_engine.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace ajd {

class AnalysisSession;  // engine/analysis_session.h

/// H(attrs) over the empirical distribution of r, in nats. H(empty) = 0.
/// For a duplicate-free relation, H(all attrs) = ln N.
///
/// This is the legacy single-shot path: it re-scans the relation on every
/// call. Use EntropyCalculator (or an AnalysisSession-backed engine) for
/// anything that evaluates more than one term.
double EntropyOf(const Relation& r, AttrSet attrs);

/// Memoizing entropy oracle over one relation, backed by an EntropyEngine.
///
/// The relation must outlive the calculator; when constructed from an
/// AnalysisSession, the session must outlive it too.
class EntropyCalculator {
 public:
  /// Stand-alone calculator owning a private engine for `r` (default
  /// EngineOptions: batches on every CPU where they pay, process-shared
  /// worker pool).
  explicit EntropyCalculator(const Relation* r);

  /// Stand-alone calculator with explicit engine tuning (cache budget,
  /// batch threads, worker pool).
  EntropyCalculator(const Relation* r, const EngineOptions& options);

  /// Calculator sharing the session's engine for `r`: terms cached by any
  /// other consumer of the session are visible here and vice versa.
  EntropyCalculator(AnalysisSession* session, const Relation* r);

  /// H(attrs) in nats, memoized.
  double Entropy(AttrSet attrs);

  /// Batch form: out[i] = H(sets[i]), evaluated on the engine's thread
  /// pool when the batch is large enough to pay for it.
  std::vector<double> BatchEntropy(const std::vector<AttrSet>& sets);

  /// H(a | c) = H(a u c) - H(c).
  double ConditionalEntropy(AttrSet a, AttrSet c);

  /// I(a ; b | c) = H(a u c) + H(b u c) - H(a u b u c) - H(c)  (Eq. 4).
  /// The sets may overlap; overlapping variables contribute their
  /// conditional entropy, matching the paper's usage.
  double ConditionalMutualInformation(AttrSet a, AttrSet b, AttrSet c);

  /// I(a ; b) = I(a ; b | empty).
  double MutualInformation(AttrSet a, AttrSet b);

  /// The relation being measured.
  const Relation& relation() const { return engine_->relation(); }

  /// The backing engine (shared when session-constructed).
  EntropyEngine& engine() { return *engine_; }

  /// Number of distinct entropy terms cached so far in the backing engine.
  size_t CacheSize() const { return engine_->CacheSize(); }

 private:
  std::unique_ptr<EntropyEngine> owned_;  // null when session-backed
  EntropyEngine* engine_;
};

}  // namespace ajd

#endif  // AJD_INFO_ENTROPY_H_
