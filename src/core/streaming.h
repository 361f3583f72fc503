// StreamingLossMonitor: tracks how close a growing relation stays to an
// acyclic join dependency, batch by batch.
//
// The paper's headline quantities (the loss rho, its J-measure
// characterization, Lemma 4.1's e^J - 1 lower bound) are defined over a
// frozen relation; this driver serves the setting where the data ARRIVES —
// the "mining approximate acyclic schemes from evolving tables" workload
// the ROADMAP calls streaming monitoring. Every ingested batch appends to
// the monitored relation (one epoch bump, relation/relation.h), and the
// J-measure of the monitored join tree is re-evaluated through one
// AnalysisSession whose engine catches up INCREMENTALLY: dense columns
// extend over the appended rows, cached partitions (the tree's bag and
// separator terms — the same sets every batch) delta-extend instead of
// rebuilding, so the per-batch cost is O(delta), not O(N).
//
// Drift policy: the tree being monitored goes stale as the distribution
// shifts. When J(T) rises more than drift_threshold nats above its value
// at the last (re)mine, the monitor re-mines a tree on the data so far,
// through the same session, so the miner's entropy terms (every singleton
// and pair, then each build step's candidates) reuse everything the
// monitoring already cached, and continues with it.
//
// Threading: the monitor's own state (trajectory, tree, baselines) is
// single-writer — call Ingest*/Observe from one thread at a time. The
// underlying session and engine, however, are safe to QUERY from other
// threads concurrently with ingestion: readers pin the epoch they start
// with and keep computing over that prefix while a batch lands
// (engine/entropy_engine.h). There is no quiescence requirement anymore.
#ifndef AJD_CORE_STREAMING_H_
#define AJD_CORE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/loss.h"
#include "discovery/miner.h"
#include "engine/analysis_session.h"
#include "jointree/join_tree.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// What an Ingest* call does with a batch whose append FAILS (allocation
/// failure, injected fault — the relation itself rolls back either way,
/// see Relation::AppendBatch's all-or-nothing contract).
enum class BatchFaultPolicy : uint8_t {
  /// Return the error to the caller immediately. The monitor stays
  /// consistent and the batch can be re-submitted (the default).
  kFail = 0,
  /// Retry the append up to max_batch_retries times, then fail.
  kRetryThenFail = 1,
  /// Retry up to max_batch_retries times, then QUARANTINE: drop the batch,
  /// record it (NumQuarantinedBatches / LastQuarantineError), and keep the
  /// stream going with a no-op trajectory point.
  kRetryThenSkip = 2,
  /// Quarantine immediately, no retries.
  kSkip = 3,
};

/// Tuning for a StreamingLossMonitor.
struct StreamingOptions {
  /// Re-mine when J(T) exceeds its last-mined value by more than this
  /// many nats; <= 0 disables re-mining (pure fixed-tree monitoring).
  double drift_threshold = 0.1;
  /// Minimum batches between re-mines. The default 1 allows a re-mine on
  /// the very next drifted batch (immediate re-tracking of a sustained
  /// shift); raise it to amortize the miner against drift spikes.
  uint32_t min_batches_between_remines = 1;
  /// Also compute the exact loss rho per batch: count propagation over the
  /// tree's bag and separator partitions (ComputeLossAt), which the J
  /// path already keeps cached and delta-extended, at the batch's pin. No
  /// hashing, but still O(N) a batch (one scratch sweep per separator and
  /// per bag with stripped singletons) against J's O(delta): the
  /// J-trajectory stays the cheap default (bench/perf_streaming's exact
  /// arm prices the difference).
  bool compute_exact_loss = false;
  /// Poison-batch handling for IngestBatch/IngestStringBatch (and the CSV
  /// ingest built on them): one bad batch need not kill a stream.
  BatchFaultPolicy batch_fault_policy = BatchFaultPolicy::kFail;
  /// Append retries before the policy's terminal action (kRetryThen*).
  uint32_t max_batch_retries = 2;
  /// Miner configuration for WithMinedTree and every re-mine.
  MinerOptions miner;
  /// Session tuning (cache budget, threads, shared pool/arbiter).
  SessionOptions session;
};

/// One point of the loss trajectory: the monitored quantities right after
/// a batch landed.
struct StreamingPoint {
  uint64_t epoch = 0;       ///< relation epoch after the batch.
  uint64_t rows = 0;        ///< |R| after the batch.
  uint64_t batch_rows = 0;  ///< rows this batch actually appended.
  double j = 0.0;           ///< J(T) of the monitored tree, nats.
  double rho_lower_bound = 0.0;  ///< Lemma 4.1: e^J - 1 <= rho.
  /// Exact rho (when compute_exact_loss; otherwise unset).
  std::optional<double> rho;
  bool remined = false;     ///< the tree was re-mined after this batch.
  /// J of the NEW tree when remined (the next baseline).
  std::optional<double> j_after_remine;

  /// One JSON object per point, for trajectory tooling:
  /// {"epoch":..,"rows":..,"j":..,...}.
  std::string ToJsonLine() const;
};

/// Monitors one caller-owned relation. The relation must outlive the
/// monitor and must only grow through it (or at least: between Ingest
/// calls, not during them).
/// Failure semantics: every Ingest*/Observe call returns Status through
/// Result — an error never aborts the process and never leaves the monitor
/// half-updated (trajectory, baselines, and observed-row watermark only
/// move after every fallible step succeeded; rows appended before a failed
/// Observe simply stay unobserved and fold into the next point). The
/// constructor CHECK-aborts on invalid arguments (programmer contract);
/// user input should flow through Create/WithMinedTree, which validate and
/// return InvalidArgument instead.
class StreamingLossMonitor {
 public:
  /// Monitors `r` against a fixed starting tree. The tree's attributes
  /// must be covered by r's schema — CHECKED (aborts on violation); use
  /// Create() when the tree or relation comes from user input.
  StreamingLossMonitor(Relation* r, JoinTree tree,
                       StreamingOptions options = {});

  /// Validating form of the constructor: InvalidArgument on a null
  /// relation or a tree mentioning attributes outside its schema.
  static Result<StreamingLossMonitor> Create(Relation* r, JoinTree tree,
                                             StreamingOptions options = {});

  /// Mines the starting tree from the relation's current contents (which
  /// must satisfy the miner's preconditions: >= 2 attributes, >= 1 row).
  /// InvalidArgument on a null relation.
  static Result<StreamingLossMonitor> WithMinedTree(
      Relation* r, StreamingOptions options = {});

  StreamingLossMonitor(StreamingLossMonitor&&) = default;
  StreamingLossMonitor& operator=(StreamingLossMonitor&&) = delete;

  /// Appends a batch of code rows and records a trajectory point. A batch
  /// whose append fails is handled per options().batch_fault_policy:
  /// failed, retried, or quarantined (the stream continues with a no-op
  /// point). The relation is never left half-appended either way.
  Result<StreamingPoint> IngestBatch(
      const std::vector<std::vector<uint32_t>>& rows, bool dedupe = false);

  /// Appends a batch of string rows (dictionary-interned) and records a
  /// trajectory point. Same fault policy as IngestBatch.
  Result<StreamingPoint> IngestStringBatch(
      const std::vector<std::vector<std::string>>& rows,
      bool dedupe = false);

  /// Records a trajectory point for rows the CALLER already appended to
  /// the relation (e.g. io/csv.h's AppendCsvBatches feeding AppendBatch
  /// directly). A no-op point results if nothing was appended.
  /// Every quantity of the point is read at one engine pin covering all
  /// of the relation's rows (EntropyEngine::SyncedPin: a catch-up another
  /// thread has in flight is waited for).
  /// FailedPrecondition if the relation shrank (relations are
  /// append-only); CapacityExceeded if the engine's catch-up aborted
  /// (it degrades instead of failing, e.g. on allocation failure). On any
  /// error no monitor state moves — the rows stay unobserved and fold
  /// into the next successful Observe.
  Result<StreamingPoint> Observe();

  /// Batches dropped by a kSkip/kRetryThenSkip fault policy so far.
  uint64_t NumQuarantinedBatches() const { return quarantined_batches_; }

  /// The error that quarantined the most recent dropped batch (OK when
  /// nothing was ever quarantined).
  const Status& LastQuarantineError() const { return last_quarantine_error_; }

  /// The tree currently monitored (the latest re-mine's output, or the
  /// constructor's tree).
  const JoinTree& tree() const { return tree_; }

  /// Every recorded point, oldest first.
  const std::vector<StreamingPoint>& trajectory() const {
    return trajectory_;
  }

  /// Number of drift-triggered re-mines so far.
  uint32_t NumRemines() const { return remines_; }

  /// J(T) at the last (re)mine — the drift baseline.
  double BaselineJ() const { return j_at_mine_; }

  /// The session serving every entropy term (exposed so callers can run
  /// further analyses — AnalyzeAjd, CertifyLoss — against the same warm
  /// caches).
  AnalysisSession& session() { return *session_; }

  /// The monitored relation.
  const Relation& relation() const { return *r_; }

 private:
  /// J(`tree`) over the first pin.rows rows, read through the session's
  /// engine at `pin`.
  double CurrentJ(const JoinTree& tree, const EpochPin& pin);

  /// Shared Ingest* body: runs `append` under the batch fault policy
  /// (retry/quarantine), then Observes.
  Result<StreamingPoint> IngestWith(const std::function<Status()>& append);

  Relation* r_;
  JoinTree tree_;
  StreamingOptions options_;
  /// Owned behind a pointer so the monitor stays movable (AnalysisSession
  /// holds a mutex).
  std::unique_ptr<AnalysisSession> session_;
  std::vector<StreamingPoint> trajectory_;
  double j_at_mine_ = 0.0;
  uint32_t remines_ = 0;
  uint32_t batches_since_remine_ = 0;
  uint64_t observed_rows_ = 0;  ///< rows covered by the last point.
  uint64_t quarantined_batches_ = 0;
  Status last_quarantine_error_;
};

/// Ingests a CSV stream into the monitor's relation in `batch_rows`-sized
/// chunks (io/csv.h ReadCsvBatches -> Relation::AppendStringBatch),
/// recording one trajectory point per chunk. The CSV header must match
/// the relation's schema (width always; names too when has_header).
/// `dedupe` drops rows already present (set semantics), matching
/// AppendCsvBatches' CsvOptions::dedupe.
Status IngestCsvStream(StreamingLossMonitor* monitor, std::istream& in,
                       uint64_t batch_rows, bool has_header = true,
                       char separator = ',', bool dedupe = false);

/// File form of IngestCsvStream.
Status IngestCsvFile(StreamingLossMonitor* monitor, const std::string& path,
                     uint64_t batch_rows, bool has_header = true,
                     char separator = ',', bool dedupe = false);

}  // namespace ajd

#endif  // AJD_CORE_STREAMING_H_
