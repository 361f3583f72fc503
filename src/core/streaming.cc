#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "info/entropy.h"
#include "info/j_measure.h"
#include "io/csv.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ajd {

namespace {

std::string JsonDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string StreamingPoint::ToJsonLine() const {
  std::string out = "{\"epoch\":" + std::to_string(epoch) +
                    ",\"rows\":" + std::to_string(rows) +
                    ",\"batch_rows\":" + std::to_string(batch_rows) +
                    ",\"j\":" + JsonDouble(j) +
                    ",\"rho_lower_bound\":" + JsonDouble(rho_lower_bound);
  if (rho.has_value()) out += ",\"rho\":" + JsonDouble(*rho);
  out += std::string(",\"remined\":") + (remined ? "true" : "false");
  if (j_after_remine.has_value()) {
    out += ",\"j_after_remine\":" + JsonDouble(*j_after_remine);
  }
  out += "}";
  return out;
}

StreamingLossMonitor::StreamingLossMonitor(Relation* r, JoinTree tree,
                                           StreamingOptions options)
    : r_(r),
      tree_(std::move(tree)),
      options_(std::move(options)),
      session_(std::make_unique<AnalysisSession>(options_.session)),
      observed_rows_(r != nullptr ? r->NumRows() : 0) {
  AJD_CHECK(r_ != nullptr);
  AJD_CHECK_MSG(
      tree_.AllAttrs().IsSubsetOf(r_->schema().AllAttrs()),
      "monitored tree mentions attributes outside the relation's schema");
  j_at_mine_ = CurrentJ(tree_, session_->EngineFor(*r_).SyncedPin());
}

Result<StreamingLossMonitor> StreamingLossMonitor::Create(
    Relation* r, JoinTree tree, StreamingOptions options) {
  if (r == nullptr) {
    return Status::InvalidArgument(
        "StreamingLossMonitor: relation must be non-null");
  }
  if (!tree.AllAttrs().IsSubsetOf(r->schema().AllAttrs())) {
    return Status::InvalidArgument(
        "StreamingLossMonitor: monitored tree mentions attributes outside "
        "the relation's schema");
  }
  return StreamingLossMonitor(r, std::move(tree), std::move(options));
}

Result<StreamingLossMonitor> StreamingLossMonitor::WithMinedTree(
    Relation* r, StreamingOptions options) {
  if (r == nullptr) {
    return Status::InvalidArgument(
        "StreamingLossMonitor: relation must be non-null");
  }
  // Start from the trivial one-bag tree (J = 0 by construction), then mine
  // through the monitor's own session so the miner's terms pre-warm the
  // monitoring cache.
  Result<JoinTree> trivial =
      JoinTree::Path({r->schema().AllAttrs()});
  if (!trivial.ok()) return trivial.status();
  StreamingLossMonitor monitor(r, std::move(trivial).value(),
                               std::move(options));
  Result<MinerReport> mined =
      MineJoinTree(&monitor.session(), *r, monitor.options_.miner);
  if (!mined.ok()) return mined.status();
  monitor.tree_ = std::move(mined).value().tree;
  monitor.j_at_mine_ = monitor.CurrentJ(
      monitor.tree_, monitor.session_->EngineFor(*r).SyncedPin());
  return monitor;
}

double StreamingLossMonitor::CurrentJ(const JoinTree& tree,
                                      const EpochPin& pin) {
  EntropyEngine& engine = session_->EngineFor(*r_);
  // Materialize every term's partition (bags, separators, chi(T)). A
  // count-only final pass would re-tally O(mass) rows per term per batch;
  // a materialized partition instead delta-extends at catch-up and its H
  // is one XLogX sweep over the stored blocks. The prewarm is a no-op on
  // every batch after the first (the partitions stay cached and hot), and
  // the bag and separator partitions are the ones the exact loss counts
  // from.
  std::vector<AttrSet> terms;
  terms.reserve(2 * tree.NumNodes());
  for (AttrSet bag : tree.bags()) terms.push_back(bag);
  for (const auto& [u, v] : tree.Edges()) {
    terms.push_back(tree.bag(u).Intersect(tree.bag(v)));
  }
  terms.push_back(tree.AllAttrs());
  engine.PrewarmSubsets(terms);
  EntropyCalculator calc(&engine, pin);
  return JMeasureDetailed(&calc, tree).j;
}

Result<StreamingPoint> StreamingLossMonitor::Observe() {
  const uint64_t rows_now = r_->NumRows();
  if (rows_now < observed_rows_) {
    // User-reachable (hand a monitor a relation that was moved-from or
    // restored), so an error, not a CHECK: the monitor's incremental
    // caches are only sound over append-only growth.
    return Status::FailedPrecondition(
        "monitored relation shrank; relations are append-only");
  }
  StreamingPoint point;
  const uint32_t batches_since = batches_since_remine_ + 1;
  JoinTree remined_tree = tree_;
  std::optional<double> j_after_remine;
  // Every fallible step — entropy terms, exact loss, re-mining — runs
  // BEFORE any monitor state moves, and exceptions (allocation failure,
  // injected faults in the engine) convert to Status here: on error the
  // appended rows simply remain unobserved, and the next Observe folds
  // them into its batch instead of dropping a trajectory point.
  try {
    // Every quantity of the point is read at one pin. SyncedPin waits
    // out a catch-up another thread has in flight, so a pin short of the
    // relation means a catch-up aborted (it degrades instead of failing):
    // the rows stay unobserved. A pin past rows_now covers rows another
    // appender landed meanwhile; the point takes them too.
    const EpochPin pin = session_->EngineFor(*r_).SyncedPin();
    if (pin.rows < rows_now) {
      return Status::CapacityExceeded(
          "engine catch-up aborted; rows remain unobserved");
    }
    point.epoch = pin.epoch;
    point.rows = pin.rows;
    point.batch_rows = pin.rows - observed_rows_;
    point.j = CurrentJ(tree_, pin);
    point.rho_lower_bound = std::expm1(point.j);
    if (options_.compute_exact_loss) {
      Result<LossReport> loss =
          ComputeLossAt(&session_->EngineFor(*r_), pin, tree_);
      if (!loss.ok()) return loss.status();
      point.rho = loss.value().rho;
    }
    // The drift margin the trigger compares against: plain nats under
    // kAbsolute; a baseline-scaled fraction with an absolute floor under
    // kRelative (scale-free across trees of very different J magnitudes,
    // with the floor absorbing noise around a near-zero baseline).
    const double margin =
        options_.drift_policy == DriftPolicy::kRelative
            ? std::max(options_.drift_threshold * std::abs(j_at_mine_),
                       options_.drift_floor_nats)
            : options_.drift_threshold;
    const bool drifted = options_.drift_threshold > 0.0 &&
                         point.j - j_at_mine_ > margin;
    if (drifted && batches_since >= options_.min_batches_between_remines &&
        r_->NumAttrs() >= 2 && pin.rows >= 1) {
      Result<MinerReport> mined =
          MineJoinTree(session_.get(), *r_, options_.miner);
      if (!mined.ok()) return mined.status();
      remined_tree = std::move(mined).value().tree;
      point.remined = true;
      j_after_remine = CurrentJ(remined_tree, pin);
    }
  } catch (const std::exception& e) {
    return Status::CapacityExceeded(
        std::string("observe failed; rows remain unobserved: ") + e.what());
  }

  // Commit: everything fallible succeeded.
  observed_rows_ = point.rows;
  batches_since_remine_ = point.remined ? 0 : batches_since;
  if (point.remined) {
    tree_ = std::move(remined_tree);
    ++remines_;
    point.j_after_remine = j_after_remine;
    j_at_mine_ = *point.j_after_remine;
  }
  trajectory_.push_back(point);
  return point;
}

Result<StreamingPoint> StreamingLossMonitor::IngestWith(
    const std::function<Status()>& append) {
  const BatchFaultPolicy policy = options_.batch_fault_policy;
  const bool retry = policy == BatchFaultPolicy::kRetryThenFail ||
                     policy == BatchFaultPolicy::kRetryThenSkip;
  const bool skip = policy == BatchFaultPolicy::kRetryThenSkip ||
                    policy == BatchFaultPolicy::kSkip;
  const uint32_t attempts = 1 + (retry ? options_.max_batch_retries : 0);
  Status last = Status::OK();
  for (uint32_t a = 0; a < attempts; ++a) {
    last = append();
    if (last.ok()) return Observe();
  }
  if (!skip) return last;
  // Quarantine: the append rolled the relation back (all-or-nothing), so
  // dropping the batch leaves everything consistent; record it and keep
  // the stream alive with a no-op point.
  ++quarantined_batches_;
  last_quarantine_error_ = last;
  return Observe();
}

Result<StreamingPoint> StreamingLossMonitor::IngestBatch(
    const std::vector<std::vector<uint32_t>>& rows, bool dedupe) {
  return IngestWith([&] {
    if (AJD_FAILPOINT(failpoints::kStreamingIngestBatch)) {
      return Status::Internal("injected fault: streaming/ingest_batch");
    }
    return r_->AppendBatch(rows, dedupe);
  });
}

Result<StreamingPoint> StreamingLossMonitor::IngestStringBatch(
    const std::vector<std::vector<std::string>>& rows, bool dedupe) {
  return IngestWith([&] {
    if (AJD_FAILPOINT(failpoints::kStreamingIngestBatch)) {
      return Status::Internal("injected fault: streaming/ingest_batch");
    }
    return r_->AppendStringBatch(rows, dedupe);
  });
}

Status IngestCsvStream(StreamingLossMonitor* monitor, std::istream& in,
                       uint64_t batch_rows, bool has_header, char separator,
                       bool dedupe) {
  if (monitor == nullptr) {
    return Status::InvalidArgument("IngestCsvStream: monitor is null");
  }
  CsvOptions csv;
  csv.separator = separator;
  csv.has_header = has_header;
  return ReadCsvBatches(
      in, csv, batch_rows,
      [monitor, has_header,
       dedupe](const std::vector<std::string>& header,
               std::vector<std::vector<std::string>> batch) {
        Status ok = ValidateCsvHeader(
            header, monitor->relation().schema(), has_header);
        if (!ok.ok()) return ok;
        if (batch.empty()) return Status::OK();
        Result<StreamingPoint> point =
            monitor->IngestStringBatch(batch, dedupe);
        return point.ok() ? Status::OK() : point.status();
      });
}

Status IngestCsvFile(StreamingLossMonitor* monitor, const std::string& path,
                     uint64_t batch_rows, bool has_header, char separator,
                     bool dedupe) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return IngestCsvStream(monitor, in, batch_rows, has_header, separator,
                         dedupe);
}

}  // namespace ajd
