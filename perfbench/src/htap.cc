// htap_stream: the paper's mixed workload (Section 5.2) driven serially
// from one thread, so every run with one seed does exactly the same work.
// The 9 OLTP kinds are drawn from a seeded stream; every olap_period-th
// commit an OLAP query runs as its own OLAP transaction, each block of 7
// of them one of each kind in a seeded order. Inside that transaction,
// after the timed query, the hand-written reference kernel runs untimed
// on the same snapshot and must reproduce its digest.
#include <algorithm>
#include <iterator>
#include <utility>

#include "checks.h"
#include "engine/database.h"
#include "phases.h"
#include "query/query.h"
#include "storage/value.h"
#include "tpch/datagen.h"
#include "tpch/oltp_transactions.h"
#include "tpch/queries.h"
#include "tpch/reference_kernels.h"

namespace perfbench {

using namespace anker;

namespace {

/// Columns the 9 OLTP kinds write (oltp_transactions.h).
const char* const kWrittenColumns[][2] = {
    {"lineitem", "l_returnflag"},  {"lineitem", "l_linestatus"},
    {"lineitem", "l_discount"},    {"lineitem", "l_extendedprice"},
    {"lineitem", "l_shipdate"},    {"orders", "o_orderpriority"},
    {"orders", "o_orderstatus"},   {"orders", "o_totalprice"},
    {"part", "p_brand"},           {"part", "p_retailprice"},
};

snapshot::BufferStats SumBufferStats(const tpch::TpchInstance& inst) {
  snapshot::BufferStats sum;
  for (storage::Table* table : {inst.lineitem, inst.orders, inst.part}) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const snapshot::BufferStats s =
          table->GetColumnAt(c)->buffer()->stats();
      sum.dirty_pages_flushed += s.dirty_pages_flushed;
      sum.forced_cow_pages += s.forced_cow_pages;
      sum.flush_nanos += s.flush_nanos;
      sum.map_nanos += s.map_nanos;
    }
  }
  return sum;
}

class HtapPhase : public Phase {
 public:
  explicit HtapPhase(const HtapPlan& plan)
      : plan_(plan), stream_(plan.seed * 0x9E3779B97F4A7C15ULL + 1) {}
  ~HtapPhase() override {
    if (db_) db_->Stop();
  }
  void Setup() override;
  void Begin(bool traced, PhaseSinks* sinks) override;
  void Slice(size_t k, size_t n) override;
  void Finish() override;

 private:
  void RunOlap(uint64_t at_commit);

  const HtapPlan plan_;
  std::unique_ptr<engine::Database> db_;
  tpch::TpchInstance inst_;
  std::unique_ptr<tpch::TpchQueries> queries_;
  std::unique_ptr<tpch::OltpTransactions> oltp_;
  std::unique_ptr<tpch::ReferenceKernels> kernels_;
  std::vector<storage::Column*> written_;
  std::vector<tpch::OlapKind> order_ = {std::begin(tpch::kAllOlapKinds),
                                        std::end(tpch::kAllOlapKinds)};

  // Run state, carried across slices.
  Tracer tracer_{false};
  PhaseSinks* sinks_ = nullptr;
  Rng stream_;
  txn::TxnStats stats0_;
  size_t mat0_ = 0;
  snapshot::BufferStats buf0_;
  SlicedSamples oltp_lat_, olap_lat_;
  Samples versions_live_;
  engine::ScanStats scan_;
  uint64_t next_ = 1;  ///< Next commit index of the stream (1-based).
  uint64_t committed_ = 0, olap_done_ = 0, failed_ = 0, request_ = 0;
  std::vector<double> slice_tps_;  ///< Per slice, checks excluded.
  int64_t check_nanos_ = 0;
};

void HtapPhase::Setup() {
  engine::DatabaseConfig config;  // Heterogeneous serializable, vm_snapshot.
  config.snapshot_interval_commits = plan_.snapshot_interval;
  config.scan_threads = 1;
  db_ = std::make_unique<engine::Database>(config);
  tpch::TpchConfig tpch;
  tpch.lineitem_rows = plan_.lineitem_rows;
  tpch.seed = plan_.seed;
  auto loaded = tpch::LoadTpch(db_.get(), tpch);
  ANKER_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  inst_ = loaded.value();
  db_->Start();
  queries_ = std::make_unique<tpch::TpchQueries>(db_.get(), inst_);
  oltp_ = std::make_unique<tpch::OltpTransactions>(db_.get(), inst_);
  kernels_ = std::make_unique<tpch::ReferenceKernels>(inst_);
  // The kernel reads the query's own OLAP context, so it must need no
  // column outside the query's column set.
  for (const tpch::OlapKind kind : tpch::kAllOlapKinds) {
    const std::vector<storage::Column*>& set =
        queries_->QueryFor(kind).columns();
    for (storage::Column* column : kernels_->ColumnsFor(kind)) {
      ANKER_CHECK_MSG(std::find(set.begin(), set.end(), column) != set.end(),
                      column->name().c_str());
    }
  }
  for (const auto& [table, column] : kWrittenColumns) {
    written_.push_back(db_->catalog().GetTable(table)->GetColumn(column));
  }
}

void HtapPhase::Begin(bool traced, PhaseSinks* sinks) {
  tracer_ = Tracer(traced);
  sinks_ = sinks;
  stats0_ = db_->txn_manager().stats();
  mat0_ = db_->snapshot_manager()->total_materializations();
  buf0_ = SumBufferStats(inst_);
}

void HtapPhase::Slice(size_t k, size_t n) {
  oltp_lat_.StartSlice();
  olap_lat_.StartSlice();
  const uint64_t end = plan_.oltp_txns() * (k + 1) / n;
  const int64_t start = NowNanos();
  const int64_t checks_before = check_nanos_;
  const uint64_t done_before = committed_ + olap_done_;
  for (; next_ <= end; ++next_) {
    const tpch::OltpKind kind = tpch::kAllOltpKinds[stream_.NextBounded(9)];
    const int64_t t0 = NowNanos();
    Status status;
    {
      ScopedSpan span(&tracer_, "txn.oltp", ++request_);
      status = oltp_->Run(kind, &stream_);
    }
    oltp_lat_.Add(NowNanos() - t0);
    if (status.ok()) {
      ++committed_;
    } else {
      ++failed_;
      sinks_->checks->Expect(std::string("serial OLTP ") + tpch::OltpKindName(kind) +
                  " did not commit: " + status.ToString());
    }
    if (next_ % plan_.olap_period == 0) RunOlap(next_);
  }
  const int64_t stream_nanos =
      NowNanos() - start - (check_nanos_ - checks_before);
  slice_tps_.push_back((committed_ + olap_done_ - done_before) /
                       (stream_nanos / 1e9));
}

void HtapPhase::RunOlap(uint64_t at_commit) {
  const uint64_t index = at_commit / plan_.olap_period - 1;
  if (index % order_.size() == 0) {  // A new block: a new seeded order.
    for (size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[stream_.NextBounded(i + 1)]);
    }
  }
  const tpch::OlapKind kind = order_[index % order_.size()];
  const tpch::OlapParams params = queries_->RandomParams(kind, &stream_);
  if (tracer_.enabled()) {
    double live = 0;
    for (const storage::Column* c : written_) {
      live += static_cast<double>(c->versions()->current()->TotalVersions());
    }
    versions_live_.Add(static_cast<int64_t>(live));
  }
  // One OLAP transaction per query, traced or not: the query runs in it
  // as Database::Run runs it (BeginOlap, query::Execute, FinishOlap), and
  // the reference kernel reads the same context untimed before it
  // finishes. So each OLAP adds exactly one read-only commit, and traced
  // and untraced runs trigger the same epochs.
  const query::Query& q = queries_->QueryFor(kind);
  std::unique_ptr<engine::OlapContext> ctx;
  tpch::OlapResult result;
  int64_t t0 = NowNanos();
  {
    ScopedSpan olap(&tracer_, "olap", ++request_);
    {
      ScopedSpan span(&tracer_, "engine.begin_olap", request_);
      auto begun = db_->BeginOlap(q.columns());
      ANKER_CHECK(begun.ok());
      ctx = begun.TakeValue();
    }
    ScopedSpan span(&tracer_, "query.exec", request_);
    result = queries_->Run(kind, *ctx, params);
  }
  int64_t query_nanos = NowNanos() - t0;
  ++olap_done_;
  scan_.Merge(result.scan);

  t0 = NowNanos();
  const tpch::OlapResult ref = kernels_->Run(kind, *ctx, params);
  check_nanos_ += NowNanos() - t0;

  t0 = NowNanos();
  ANKER_CHECK(db_->FinishOlap(std::move(ctx)).ok());
  query_nanos += NowNanos() - t0;
  olap_lat_.Add(query_nanos);
  sinks_->checks->Expect(CheckNear(std::string("OLAP ") + tpch::OlapKindName(kind) +
                            " digest vs reference kernel at commit " +
                            std::to_string(at_commit),
                        result.digest, ref.digest));
}

void HtapPhase::Finish() {
  PhaseSinks* sinks = sinks_;
  const txn::TxnStats stats1 = db_->txn_manager().stats();
  // Every OLTP commit plus every finished OLAP transaction (a read-only
  // commit): the harness's own count.
  sinks_->checks->Expect(CheckEqual("TxnStats.commits delta vs harness count",
                         static_cast<double>(stats1.commits - stats0_.commits),
                         static_cast<double>(committed_ + olap_done_)));
  const size_t materializations =
      db_->snapshot_manager()->total_materializations() - mat0_;
  const snapshot::BufferStats buf1 = SumBufferStats(inst_);

  // A fresh epoch: the full-table scans must equal row-by-row sums read
  // through an OLTP transaction.
  db_->snapshot_manager()->TriggerEpoch();
  const std::pair<tpch::OlapKind, storage::Column*> scans[] = {
      {tpch::OlapKind::kScanLineitem,
       inst_.lineitem->GetColumn("l_extendedprice")},
      {tpch::OlapKind::kScanOrders, inst_.orders->GetColumn("o_totalprice")},
      {tpch::OlapKind::kScanPart, inst_.part->GetColumn("p_retailprice")},
  };
  for (const auto& [kind, column] : scans) {
    auto ran = queries_->RunOnEngine(kind, tpch::OlapParams());
    ANKER_CHECK(ran.ok());
    auto txn = db_->BeginOltp();
    double sum = 0;
    for (size_t r = 0; r < column->num_rows(); ++r) {
      sum += storage::DecodeDouble(txn->Read(column, r));
    }
    db_->Abort(txn.get());
    sinks_->checks->Expect(CheckNear(std::string(tpch::OlapKindName(kind)) +
                              " after the stream vs Transaction::Read sum",
                          ran.value().digest, sum));
  }

  sinks->attempted += plan_.oltp_txns() + olap_done_;
  sinks->failed += failed_;
  Metrics& e2e = *sinks->e2e;
  e2e.Set("htap_tps", FasterHalfMean(slice_tps_, true), "txn/s");
  e2e.Set("oltp_p50_us", oltp_lat_.FasterHalf(50) / 1e3, "us");
  e2e.Set("oltp_p99_us", oltp_lat_.FasterHalf(99) / 1e3, "us");
  e2e.Set("olap_p50_ms", olap_lat_.FasterHalf(50) / 1e6, "ms");
  if (!tracer_.enabled()) return;

  Metrics& layer = *sinks->layer;
  layer.Set("engine.begin_olap_us",
            tracer_.Durations("engine.begin_olap").Percentile(50) / 1e3, "us");
  layer.Set("engine.scan_rows_tight", scan_.tight_rows, "rows");
  layer.Set("engine.scan_rows_hinted", scan_.hinted_rows, "rows");
  layer.Set("engine.scan_rows_resolved", scan_.resolved_rows, "rows");
  layer.Set("snapshot.materializations", materializations, "count");
  layer.Set("snapshot.pages_flushed",
            buf1.dirty_pages_flushed - buf0_.dirty_pages_flushed, "pages");
  layer.Set("snapshot.forced_cow_pages",
            buf1.forced_cow_pages - buf0_.forced_cow_pages, "pages");
  layer.Set("snapshot.flush_ms", (buf1.flush_nanos - buf0_.flush_nanos) / 1e6,
            "ms");
  layer.Set("snapshot.map_ms", (buf1.map_nanos - buf0_.map_nanos) / 1e6, "ms");
  layer.Set("mvcc.versions_live", versions_live_.Percentile(50), "versions");
  layer.Set("txn.commits", stats1.commits - stats0_.commits, "count");
  layer.Set("txn.aborts",
            (stats1.aborts_ww + stats1.aborts_validation) -
                (stats0_.aborts_ww + stats0_.aborts_validation),
            "count");
  layer.Set("query.exec_ms",
            tracer_.Durations("query.exec").Percentile(50) / 1e6, "ms");
  if (sinks->spans != nullptr) sinks->spans->Append(tracer_);
}

}  // namespace

std::unique_ptr<Phase> MakeHtapPhase(const HtapPlan& plan) {
  return std::make_unique<HtapPhase>(plan);
}

}  // namespace perfbench
