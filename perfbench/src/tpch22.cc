// tpch22_olap: read-only passes over all 22 TPC-H queries (tpch::Tpch22)
// on a freshly loaded instance. The first pass is compared with the
// row-at-a-time reference (tpch_reference.cc), every later pass with the
// first pass bit for bit; both checks run after the timed passes.
#include <cstdio>

#include "checks.h"
#include "engine/database.h"
#include "phases.h"
#include "query/query.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "tpch_reference.h"

namespace perfbench {

using namespace anker;

namespace {

constexpr int kQ = tpch::Tpch22::kNumQueries;

class Tpch22Phase : public Phase {
 public:
  explicit Tpch22Phase(const Tpch22Plan& plan) : plan_(plan) {}
  ~Tpch22Phase() override {
    if (db_) db_->Stop();
  }
  void Setup() override;
  void Begin(bool traced, PhaseSinks* sinks) override;
  void Slice(size_t k, size_t n) override;
  void Finish() override;

 private:
  void RunQuery(int q);

  const Tpch22Plan plan_;
  std::unique_ptr<engine::Database> db_;
  tpch::TpchInstance inst_;
  std::unique_ptr<tpch::Tpch22> tpch22_;

  // Run state, carried across slices.
  Tracer tracer_{false};
  PhaseSinks* sinks_ = nullptr;
  int next_ = 0;            ///< Next query of the run: pass next_ / kQ.
  int64_t pass_nanos_ = 0;  ///< Query time of the pass in progress.
  std::vector<Samples> per_query_ = std::vector<Samples>(kQ + 1);
  Samples pass_time_;
  std::vector<query::QueryResult> first_ =
      std::vector<query::QueryResult>(kQ + 1);
  std::vector<std::vector<uint64_t>> digests_ =
      std::vector<std::vector<uint64_t>>(kQ + 1);
  engine::ScanStats scan_;
  uint64_t failed_ = 0, request_ = 0;
};

void Tpch22Phase::Setup() {
  engine::DatabaseConfig config;  // Heterogeneous serializable, vm_snapshot.
  config.scan_threads = 1;
  db_ = std::make_unique<engine::Database>(config);
  tpch::TpchConfig tpch;
  tpch.lineitem_rows = plan_.lineitem_rows;
  tpch.seed = plan_.seed;
  auto loaded = tpch::LoadTpch(db_.get(), tpch);
  ANKER_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  inst_ = loaded.value();
  db_->Start();
  tpch22_ = std::make_unique<tpch::Tpch22>(db_.get());
}

void Tpch22Phase::Begin(bool traced, PhaseSinks* sinks) {
  tracer_ = Tracer(traced);
  sinks_ = sinks;
}

void Tpch22Phase::Slice(size_t k, size_t n) {
  // A slice is a run of consecutive queries, so a pass may span slices;
  // its time is the sum of its 22 query times.
  const int end = static_cast<int>(plan_.passes * kQ * (k + 1) / n);
  for (; next_ < end; ++next_) {
    RunQuery(next_ % kQ + 1);
    if (next_ % kQ == kQ - 1) {
      pass_time_.Add(pass_nanos_);
      pass_nanos_ = 0;
    }
  }
}

void Tpch22Phase::RunQuery(int q) {
  const query::Query& compiled = tpch22_->Compiled(q);
  const query::Params params = tpch22_->ParamsFor(q);
  query::QueryResult result;
  Status status;
  const int64_t t0 = NowNanos();
  if (tracer_.enabled()) {
    // The same work as Database::Run, split at the engine and query layer
    // boundaries.
    ScopedSpan olap(&tracer_, "olap", ++request_);
    std::unique_ptr<engine::OlapContext> ctx;
    {
      ScopedSpan span(&tracer_, "engine.begin_olap", request_);
      auto begun = db_->BeginOlap(compiled.columns());
      ANKER_CHECK(begun.ok());
      ctx = begun.TakeValue();
    }
    {
      ScopedSpan span(&tracer_, "query.exec", request_);
      status = query::Execute(compiled, *ctx, params, &result);
    }
    ANKER_CHECK(db_->FinishOlap(std::move(ctx)).ok());
  } else {
    auto ran = db_->Run(compiled, params);
    status = ran.status();
    if (ran.ok()) result = ran.TakeValue();
  }
  const int64_t nanos = NowNanos() - t0;
  per_query_[q].Add(nanos);
  pass_nanos_ += nanos;
  if (!status.ok()) {
    ++failed_;
    sinks_->checks->Expect("Q" + std::to_string(q) +
                           " failed: " + status.ToString());
    return;
  }
  scan_.Merge(result.scan);
  digests_[q].push_back(tpch::Tpch22::RawDigest(result, tpch22_->Ordered(q)));
  if (digests_[q].size() == 1) first_[q] = std::move(result);
}

void Tpch22Phase::Finish() {
  // Checks, untimed: the reference is computed once, row at a time.
  CheckLog& log = *sinks_->checks;
  const auto data = ExtractTpch(inst_);
  for (int q = 1; q <= kQ; ++q) {
    std::string error;
    try {
      error = CheckRows(q, first_[q], ReferenceRows(q, *data, inst_),
                        tpch22_->Ordered(q));
    } catch (const std::exception& e) {
      error = "Q" + std::to_string(q) + " reference: " + e.what();
    }
    log.Expect(error);
    for (size_t p = 1; p < digests_[q].size(); ++p) {
      log.Expect(CheckEqual("Q" + std::to_string(q) + " pass " +
                                std::to_string(p) + " digest vs pass 0",
                            static_cast<double>(digests_[q][p]),
                            static_cast<double>(digests_[q][0])));
    }
  }

  sinks_->attempted += static_cast<uint64_t>(plan_.passes) * kQ;
  sinks_->failed += failed_;
  Metrics& e2e = *sinks_->e2e;
  e2e.Set("tpch22_pass_s", pass_time_.FasterHalfMean() / 1e9, "s");
  e2e.Set("tpch_q1_ms", per_query_[1].FasterHalfMean() / 1e6, "ms");
  e2e.Set("tpch_q6_ms", per_query_[6].FasterHalfMean() / 1e6, "ms");
  if (!tracer_.enabled()) return;

  Metrics& layer = *sinks_->layer;
  layer.Set("engine.begin_olap_us",
            tracer_.Durations("engine.begin_olap").Percentile(50) / 1e3, "us");
  layer.Set("engine.scan_rows_tight", scan_.tight_rows, "rows");
  layer.Set("engine.scan_rows_hinted", scan_.hinted_rows, "rows");
  layer.Set("engine.scan_rows_resolved", scan_.resolved_rows, "rows");
  layer.Set("query.exec_ms",
            tracer_.Durations("query.exec").Percentile(50) / 1e6, "ms");
  for (int q = 1; q <= kQ; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "query.q%02d_ms", q);
    layer.Set(name, per_query_[q].Percentile(50) / 1e6, "ms");
    std::snprintf(name, sizeof(name), "query.q%02d_rows_scanned", q);
    layer.Set(name, static_cast<double>(first_[q].rows_scanned), "rows");
  }
  if (sinks_->spans != nullptr) sinks_->spans->Append(tracer_);
}

}  // namespace

std::unique_ptr<Phase> MakeTpch22Phase(const Tpch22Plan& plan) {
  return std::make_unique<Tpch22Phase>(plan);
}

}  // namespace perfbench
