// wire_router: closed-loop client connections through an in-process shard
// router (shard::RouterServer over RouterCore, the code behind
// anker_router) to two group-commit shard servers. Each connection owns a
// disjoint key range of accounts(id, balance), so no transaction
// conflicts, and sends three kinds of operation:
//  - single-shard transfers (pass-through EXEC_TXN);
//  - cross-shard transfers, balanced within each shard (2PC EXEC_TXN);
//  - scatter SUM(balance) queries, which must read the conserved total.
// Balances are whole numbers held in doubles, so every sum is exact.
#include <cstdio>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "engine/database.h"
#include "phases.h"
#include "query/expr.h"
#include "query/query.h"
#include "query/serialize.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"
#include "storage/value.h"
#include "wal/io_util.h"

namespace perfbench {

using namespace anker;

namespace {

constexpr size_t kShards = 2;
constexpr double kInitialBalance = 1000.0;

query::WireQuery SumQuery() {
  query::WireQuery wire;
  wire.table = "accounts";
  wire.aggs = {query::Sum(query::Col("balance")).As("total")};
  return wire;
}

server::PointWrite Put(uint64_t key, double balance) {
  server::PointWrite write;
  write.table = "accounts";
  write.column = "balance";
  write.by_key = true;
  write.key = key;
  write.raw = storage::EncodeDouble(balance);
  return write;
}

size_t ShardOf(uint64_t key) {
  return static_cast<size_t>(shard::ShardMap::Mix64(key) % kShards);
}

/// One client connection's persistent state and what it saw.
struct Conn {
  explicit Conn(uint64_t seed) : rng(seed), direct_rng(~seed) {}
  Rng rng;
  /// Draws the traced run's direct shard requests, so that the routed
  /// op stream is the same in traced and untraced runs.
  Rng direct_rng;
  std::vector<uint64_t> own[kShards];  ///< This connection's keys, by shard.
  uint64_t next_op = 0;
  SlicedSamples passthrough, twopc, scatter;
  Samples direct_query, direct_exec;
  uint64_t passthrough_ok = 0, twopc_ok = 0, scatters = 0, failed = 0;
  uint64_t scatter_wrong = 0;
  std::vector<std::string> errors;    ///< Failed output checks.
  std::vector<std::string> failures;  ///< Refused or aborted operations.
};

class WirePhase : public Phase {
 public:
  explicit WirePhase(const WirePlan& plan) : plan_(plan) {}
  ~WirePhase() override;
  void Setup() override;
  void Begin(bool traced, PhaseSinks* sinks) override;
  void Slice(size_t k, size_t n) override;
  void Finish() override;

 private:
  /// Runs connection c's ops up to `end`: its transfers if `transfers`,
  /// its scatter reads if `reads`; an op of the other kind is drawn but
  /// not sent.
  void Drive(size_t c, uint64_t end, bool transfers, bool reads);
  static void PickTwo(const std::vector<uint64_t>& keys, Rng* rng,
                      uint64_t* a, uint64_t* b);

  const WirePlan plan_;
  std::vector<std::unique_ptr<engine::Database>> dbs_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::unique_ptr<shard::ShardMap> map_;
  std::unique_ptr<shard::BackendPool> pool_;
  std::unique_ptr<shard::RouterCore> core_;
  std::unique_ptr<shard::RouterServer> router_;
  std::vector<std::unique_ptr<server::Client>> clients_;  ///< One per conn.
  /// direct_[c][s]: connection c's own client straight to shard s.
  std::vector<std::vector<std::unique_ptr<server::Client>>> direct_;
  std::vector<double> model_;  ///< The clients' model of every balance.
  const query::WireQuery sum_ = SumQuery();

  // Run state, carried across slices.
  bool traced_ = false;
  PhaseSinks* sinks_ = nullptr;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<server::ServerStats> server0_;
  std::vector<uint64_t> syncs0_, commits0_;
  std::vector<double> slice_commits_per_s_;
};

WirePhase::~WirePhase() {
  clients_.clear();
  direct_.clear();
  if (router_) router_->Shutdown();
  for (auto& srv : servers_) srv->Shutdown();
  for (auto& db : dbs_) db->Stop();
  servers_.clear();
  dbs_.clear();
  if (!plan_.data_dir.empty()) wal::RemoveDirRecursive(plan_.data_dir);
}

void WirePhase::Setup() {
  wal::RemoveDirRecursive(plan_.data_dir);
  ANKER_CHECK(wal::EnsureDir(plan_.data_dir).ok());
  std::string map_text = "version 1\n";
  for (size_t s = 0; s < kShards; ++s) {
    engine::DatabaseConfig config;  // Heterogeneous serializable.
    config.worker_threads = 2;
    config.snapshot_interval_commits = plan_.snapshot_interval;
    config.durability = wal::DurabilityMode::kGroupCommit;
    config.data_dir = plan_.data_dir + "/shard" + std::to_string(s);
    auto db = std::make_unique<engine::Database>(config);
    db->Start();
    std::vector<uint64_t> keys;
    for (uint64_t key = 0; key < plan_.accounts; ++key) {
      if (ShardOf(key) == s) keys.push_back(key);
    }
    auto table = db->CreateTable("accounts",
                                 {{"id", storage::ValueType::kInt64},
                                  {"balance", storage::ValueType::kDouble}},
                                 keys.size());
    ANKER_CHECK(table.ok());
    storage::Column* id = table.value()->GetColumn("id");
    storage::Column* balance = table.value()->GetColumn("balance");
    table.value()->CreatePrimaryIndex(keys.size());
    for (size_t row = 0; row < keys.size(); ++row) {
      id->LoadValue(row,
                    storage::EncodeInt64(static_cast<int64_t>(keys[row])));
      balance->LoadValue(row, storage::EncodeDouble(kInitialBalance));
      ANKER_CHECK(table.value()->primary_index()->Insert(keys[row], row).ok());
    }
    ANKER_CHECK(db->Checkpoint().ok());
    server::ServerConfig server_config;
    server_config.max_inflight = 16;
    auto srv = std::make_unique<server::Server>(db.get(), server_config);
    ANKER_CHECK(srv->Start().ok());
    map_text += "shard 127.0.0.1:" + std::to_string(srv->port()) + "\n";
    dbs_.push_back(std::move(db));
    servers_.push_back(std::move(srv));
  }
  map_text += "table accounts partition id\n";
  auto parsed = shard::ShardMap::Parse(map_text);
  ANKER_CHECK(parsed.ok());
  map_ = std::make_unique<shard::ShardMap>(parsed.TakeValue());
  pool_ = std::make_unique<shard::BackendPool>(map_->shards(),
                                               shard::BackendPoolConfig{});
  core_ = std::make_unique<shard::RouterCore>(map_.get(), pool_.get(),
                                              shard::RouterCoreConfig{});
  shard::RouterServerConfig router_config;
  router_config.max_inflight = 16;
  router_ = std::make_unique<shard::RouterServer>(core_.get(), router_config);
  ANKER_CHECK(router_->Start().ok());
  for (size_t c = 0; c < plan_.connections; ++c) {
    auto client = server::Client::Connect("127.0.0.1", router_->port());
    ANKER_CHECK(client.ok());
    ANKER_CHECK(client.value()->Ping().ok());
    clients_.push_back(client.TakeValue());
    direct_.emplace_back();
    for (size_t s = 0; s < kShards; ++s) {
      auto d = server::Client::Connect("127.0.0.1", servers_[s]->port());
      ANKER_CHECK(d.ok());
      direct_.back().push_back(d.TakeValue());
    }
    auto conn =
        std::make_unique<Conn>((plan_.seed + 1) * 0xD1B54A32D192ED03ULL + c);
    const uint64_t lo = plan_.accounts * c / plan_.connections;
    const uint64_t hi = plan_.accounts * (c + 1) / plan_.connections;
    for (uint64_t key = lo; key < hi; ++key) {
      conn->own[ShardOf(key)].push_back(key);
    }
    conns_.push_back(std::move(conn));
  }
  model_.assign(plan_.accounts, kInitialBalance);
}

void WirePhase::Begin(bool traced, PhaseSinks* sinks) {
  traced_ = traced;
  sinks_ = sinks;
  for (size_t s = 0; s < kShards; ++s) {
    server0_.push_back(servers_[s]->stats());
    syncs0_.push_back(dbs_[s]->log_writer()->sync_count());
    commits0_.push_back(dbs_[s]->txn_manager().stats().commits);
  }
}

void WirePhase::Slice(size_t k, size_t n) {
  const uint64_t end = plan_.ops_per_connection * (k + 1) / n;
  uint64_t commits_before = 0;
  for (const auto& conn : conns_) {
    commits_before += conn->passthrough_ok + conn->twopc_ok;
  }
  // Each connection runs its slice of the op stream in two steps: first
  // its transfers, then (replaying the same draws) its scatter reads. So
  // a scatter read never meets another connection's 2PC in flight, which
  // the router would wait out and, after about 75 ms, abort (README.md,
  // "Findings"). The probe sends both kinds in one step.
  std::vector<std::pair<Rng, uint64_t>> starts;
  for (const auto& conn : conns_) starts.emplace_back(conn->rng, conn->next_op);
  const int64_t start = NowNanos();
  const int steps = plan_.overlap_reads ? 1 : 2;
  for (int step = 0; step < steps; ++step) {
    const bool transfers = step == 0;
    const bool reads = plan_.overlap_reads || step == 1;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (step == 1) std::tie(conns_[c]->rng, conns_[c]->next_op) = starts[c];
      threads.emplace_back([this, c, end, transfers, reads] {
        Drive(c, end, transfers, reads);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const int64_t wall_nanos = NowNanos() - start;
  uint64_t commits = 0;
  for (const auto& conn : conns_) {
    commits += conn->passthrough_ok + conn->twopc_ok;
  }
  slice_commits_per_s_.push_back((commits - commits_before) /
                                 (wall_nanos / 1e9));
}

void WirePhase::PickTwo(const std::vector<uint64_t>& keys, Rng* rng,
                        uint64_t* a, uint64_t* b) {
  *a = keys[rng->NextBounded(keys.size())];
  do {
    *b = keys[rng->NextBounded(keys.size())];
  } while (*b == *a);
}

void WirePhase::Drive(size_t c, uint64_t end, bool transfers, bool reads) {
  Conn& conn = *conns_[c];
  server::Client& router = *clients_[c];
  // Each connection writes only its own accounts' entries.
  std::vector<double>& model = model_;
  const double conserved =
      kInitialBalance * static_cast<double>(plan_.accounts);
  if (transfers) {
    conn.passthrough.StartSlice();
    conn.twopc.StartSlice();
    conn.scatter.StartSlice();
  }
  auto fail = [&](const std::string& what, const Status& status) {
    ++conn.failed;
    if (conn.failures.size() < 5) {
      conn.failures.push_back(what + ": " + status.ToString());
    }
  };
  for (; conn.next_op < end; ++conn.next_op) {
    const int roll = static_cast<int>(conn.rng.NextBounded(100));
    if (roll < plan_.passthrough_pct) {
      uint64_t a, b;
      const size_t s = conn.rng.NextBounded(kShards);
      PickTwo(conn.own[s], &conn.rng, &a, &b);
      const double x = static_cast<double>(1 + conn.rng.NextBounded(50));
      if (!transfers) continue;
      const int64_t t0 = NowNanos();
      const Status status =
          router.ExecTxn({Put(a, model[a] - x), Put(b, model[b] + x)});
      conn.passthrough.Add(NowNanos() - t0);
      if (!status.ok()) {
        fail("pass-through EXEC_TXN", status);
        continue;
      }
      model[a] -= x;
      model[b] += x;
      ++conn.passthrough_ok;
      if (traced_ && conn.next_op % 8 == 0) {
        // Traced runs only: a transfer sent straight to a shard, in the
        // transfer step like the pass-through ones.
        const size_t d = conn.direct_rng.NextBounded(kShards);
        PickTwo(conn.own[d], &conn.direct_rng, &a, &b);
        const int64_t sent = NowNanos();
        const Status direct = direct_[c][d]->ExecTxn(
            {Put(a, model[a] - 1), Put(b, model[b] + 1)});
        conn.direct_exec.Add(NowNanos() - sent);
        ANKER_CHECK_MSG(direct.ok(), direct.ToString().c_str());
        model[a] -= 1;
        model[b] += 1;
      }
      continue;
    }
    if (roll < plan_.passthrough_pct + plan_.twopc_pct) {
      uint64_t a1, a2, b1, b2;
      PickTwo(conn.own[0], &conn.rng, &a1, &a2);
      PickTwo(conn.own[1], &conn.rng, &b1, &b2);
      const double x = static_cast<double>(1 + conn.rng.NextBounded(50));
      const double y = static_cast<double>(1 + conn.rng.NextBounded(50));
      if (!transfers) continue;
      std::vector<server::PointWrite> writes;
      if (plan_.unbalanced) {
        // Moves x from shard 0 to shard 1: each shard's sum changes.
        writes = {Put(a1, model[a1] - x), Put(b1, model[b1] + x)};
      } else {
        writes = {Put(a1, model[a1] - x), Put(a2, model[a2] + x),
                  Put(b1, model[b1] - y), Put(b2, model[b2] + y)};
      }
      const int64_t t0 = NowNanos();
      const Status status = router.ExecTxn(writes);
      conn.twopc.Add(NowNanos() - t0);
      if (!status.ok()) {
        fail("cross-shard EXEC_TXN", status);
        continue;
      }
      for (const server::PointWrite& w : writes) {
        model[w.key] = storage::DecodeDouble(w.raw);
      }
      ++conn.twopc_ok;
      continue;
    }
    if (!reads) continue;
    const int64_t sent = NowNanos();
    auto result = router.Query(sum_, query::Params());
    conn.scatter.Add(NowNanos() - sent);
    if (!result.ok()) {
      fail("scatter SUM", result.status());
      continue;
    }
    ++conn.scatters;
    const double total = result.value().rows.empty()
                             ? 0.0
                             : result.value().rows[0].values[0];
    if (total != conserved) {
      ++conn.scatter_wrong;
      if (!plan_.unbalanced && conn.errors.size() < 5) {
        conn.errors.push_back(
            CheckEqual("scatter SUM(balance)", total, conserved));
      }
    }
    if (!traced_ || conn.next_op % 8 != 0) continue;
    // Traced runs only: the same SUM sent straight to each shard, in the
    // read step like the scatter reads.
    for (size_t s = 0; s < kShards; ++s) {
      const int64_t t0 = NowNanos();
      auto direct = direct_[c][s]->Query(sum_, query::Params());
      conn.direct_query.Add(NowNanos() - t0);
      ANKER_CHECK(direct.ok());
    }
  }
}

void WirePhase::Finish() {
  // Checks: per-op check errors, router counters, then a read-back of
  // every account through the router. Failed operations are counted in
  // `failed` and named on stderr; the checks cover the operations that
  // did not fail.
  CheckLog& log = *sinks_->checks;
  Conn all(0);
  for (const auto& conn : conns_) {
    all.passthrough.Merge(conn->passthrough);
    all.twopc.Merge(conn->twopc);
    all.scatter.Merge(conn->scatter);
    all.direct_query.Append(conn->direct_query);
    all.direct_exec.Append(conn->direct_exec);
    all.passthrough_ok += conn->passthrough_ok;
    all.twopc_ok += conn->twopc_ok;
    all.scatters += conn->scatters;
    all.failed += conn->failed;
    all.scatter_wrong += conn->scatter_wrong;
    for (const std::string& e : conn->errors) log.Expect(e);
    for (const std::string& f : conn->failures) {
      std::fprintf(stderr, "FAILED OP: %s\n", f.c_str());
    }
  }
  auto status = clients_[0]->RouterStatus();
  ANKER_CHECK(status.ok());
  const server::RouterStatusOkMsg& rs = status.value();
  log.Expect(CheckEqual("router passthrough_txns vs client count",
                        rs.passthrough_txns, all.passthrough_ok));
  log.Expect(CheckEqual("router twopc_txns vs client count", rs.twopc_txns,
                        all.twopc_ok));
  log.Expect(CheckEqual("router scatter_queries vs client count",
                        rs.scatter_queries, all.scatters));
  std::vector<double> read(plan_.accounts);
  for (uint64_t key = 0; key < plan_.accounts; ++key) {
    auto value = clients_[0]->Read("accounts", "balance", key, true);
    ANKER_CHECK_MSG(value.ok(), value.status().ToString().c_str());
    read[key] = storage::DecodeDouble(value.value());
  }
  log.Expect(CheckBalances(read, model_));

  sinks_->attempted += plan_.ops_per_connection * conns_.size();
  sinks_->failed += all.failed;
  Metrics& e2e = *sinks_->e2e;
  e2e.Set("wire_commits_per_s", FasterHalfMean(slice_commits_per_s_, true),
          "commits/s");
  e2e.Set("passthrough_p50_us", all.passthrough.FasterHalf(50) / 1e3, "us");
  e2e.Set("twopc_p50_us", all.twopc.FasterHalf(50) / 1e3, "us");
  e2e.Set("scatter_p50_us", all.scatter.FasterHalf(50) / 1e3, "us");
  // Reference figure only: its run-to-run spread exceeds the bound.
  std::fprintf(stderr, "reference: passthrough_p99_us %.1f\n",
               all.passthrough.Pooled().Percentile(99) / 1e3);
  Metrics& layer = *sinks_->layer;
  if (plan_.unbalanced) {
    layer.Set("probe.scatter_reads", all.scatters, "count");
    layer.Set("probe.scatter_wrong", all.scatter_wrong, "count");
  }
  if (!traced_) return;

  server::ServerStats delta;
  for (size_t s = 0; s < kShards; ++s) {
    const server::ServerStats now = servers_[s]->stats();
    delta.frames_received += now.frames_received - server0_[s].frames_received;
    delta.commits_acked += now.commits_acked - server0_[s].commits_acked;
    delta.busy_rejections += now.busy_rejections - server0_[s].busy_rejections;
    const double syncs =
        dbs_[s]->log_writer()->sync_count() - syncs0_[s];
    const double commits =
        dbs_[s]->txn_manager().stats().commits - commits0_[s];
    const std::string prefix = "wal.s" + std::to_string(s) + ".";
    layer.Set(prefix + "syncs", syncs, "count");
    layer.Set(prefix + "commits_per_sync", syncs > 0 ? commits / syncs : 0,
              "commits");
  }
  layer.Set("server.frames_received", delta.frames_received, "count");
  layer.Set("server.commits_acked", delta.commits_acked, "count");
  layer.Set("server.busy_rejections", delta.busy_rejections, "count");
  layer.Set("shard.direct_query_us", all.direct_query.Percentile(50) / 1e3,
            "us");
  layer.Set("shard.direct_exec_txn_us", all.direct_exec.Percentile(50) / 1e3,
            "us");
  layer.Set("shard.passthrough_txns", rs.passthrough_txns, "count");
  layer.Set("shard.twopc_txns", rs.twopc_txns, "count");
  layer.Set("shard.scatter_queries", rs.scatter_queries, "count");
  layer.Set("shard.intent_resolutions", rs.intent_resolutions, "count");
}

}  // namespace

std::unique_ptr<Phase> MakeWirePhase(const WirePlan& plan) {
  return std::make_unique<WirePhase>(plan);
}

}  // namespace perfbench
