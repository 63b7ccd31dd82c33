// Shard-router scale-out: what a second shard buys acked EXEC_TXN
// throughput.
//
// Builds an in-process cluster per sweep point: N durable engine shards
// (src/server/ session servers over group-commit databases), a shard
// map hash-partitioning accounts(id, balance) across them, and an
// anker_router front-end (src/shard/) on a loopback ephemeral port.
// Client threads connect to the ROUTER and drive single-shard EXEC_TXN
// frames (all writes in a transaction target one key, so every frame is
// a 1-RTT pass-through). The same client fleet runs against 1 shard and
// against 2; the CI gate (scripts/bench_gates.json,
// `router_scaling_2x`) requires the 2-shard cluster to clear 1.5x the
// single-shard throughput — the router's pass-through path must not
// serialize what the shards can do in parallel.
//
// --scatter_queries=N switches to the scatter mode: the same cluster at
// --shards, no writes, and N interleaved pairs of SUM(balance) queries —
// one scattered through the router to every shard, one sent directly to
// shard 0, which holds only its own share of the rows. The router sends
// a scatter to every shard before reading any answer, so the shards run
// concurrently and the scatter p50 should sit near the direct p50 plus
// the router hop; a serial fan-out pays one shard round trip per shard
// plus the hop (over 2x the direct p50 on two shards). The
// `router_scatter_fanout` gate bounds the ratio.
//
// Pass --data_dirs a comma-separated list so every shard's WAL lands on
// its own device (e.g. --data_dirs=/tmp/a,/dev/shm/b): sharding is
// shared-nothing, and two group-commit WALs fsyncing through one
// filesystem journal serialize each other, capping the cluster at
// single-device throughput regardless of shard count.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/database.h"
#include "query/serialize.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/backend_pool.h"
#include "shard/router_core.h"
#include "shard/router_server.h"
#include "shard/shard_map.h"
#include "wal/io_util.h"

namespace anker {
namespace {

struct ConnResult {
  uint64_t commits = 0;
  uint64_t errors = 0;
  Histogram latency;  ///< Nanos per acked EXEC_TXN round trip.
};

/// One client connection against the router: `txns` pipelined EXEC_TXN
/// frames. By default each writes `writes_per_txn` slots of ONE key
/// (single-shard by construction — the 1-RTT pass-through path). With
/// `cross_shard_pct` > 0, that fraction of transactions instead spans
/// TWO keys on different shards, forcing the router onto the
/// intent-based 2PC path (prepare fan-out + commit fan-out).
ConnResult RunConnection(uint16_t router_port, size_t txns,
                         size_t writes_per_txn, size_t pipeline,
                         size_t rows, size_t num_shards,
                         size_t cross_shard_pct, uint64_t seed) {
  ConnResult result;
  auto connected = server::Client::Connect("127.0.0.1", router_port);
  ANKER_CHECK_MSG(connected.ok(), "bench client cannot reach the router");
  std::unique_ptr<server::Client> client = connected.TakeValue();

  Rng rng(seed);
  std::deque<Timer> outstanding;
  auto reap_one = [&]() {
    auto response = client->ReceiveOne();
    ANKER_CHECK_MSG(response.ok(), "bench client lost the router");
    result.latency.Record(outstanding.front().ElapsedNanos());
    outstanding.pop_front();
    const server::Op op = response.value().empty()
                              ? server::Op::kErr
                              : static_cast<server::Op>(response.value()[0]);
    if (op == server::Op::kOk || op == server::Op::kCommitOk) {
      ++result.commits;
    } else {
      ++result.errors;  // Aborts and BUSY both land here.
    }
  };

  for (size_t t = 0; t < txns; ++t) {
    const uint64_t key = rng.NextBounded(rows);
    uint64_t second_key = key;
    if (num_shards > 1 && rng.NextBounded(100) < cross_shard_pct) {
      // A partner on a DIFFERENT shard: this transaction takes the
      // prepare/commit fan-out instead of the pass-through.
      const size_t home = shard::ShardMap::Mix64(key) % num_shards;
      do {
        second_key = rng.NextBounded(rows);
      } while (shard::ShardMap::Mix64(second_key) % num_shards == home);
    }
    std::vector<server::PointWrite> writes;
    writes.reserve(writes_per_txn);
    for (size_t w = 0; w < writes_per_txn; ++w) {
      server::PointWrite write;
      write.table = "accounts";
      write.column = "balance";
      write.by_key = true;
      write.key = (w % 2 == 0) ? key : second_key;
      write.raw = storage::EncodeDouble(100.0 + static_cast<double>(t % 97));
      writes.push_back(std::move(write));
    }
    std::string payload;
    server::EncodeWriteBatch(server::Op::kExecTxn, writes, &payload);
    ANKER_CHECK(client->SendOnly(payload).ok());
    outstanding.emplace_back();
    if (outstanding.size() >= pipeline) reap_one();
  }
  while (!outstanding.empty()) reap_one();
  return result;
}

struct ClusterResult {
  uint64_t commits = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t passthrough_txns = 0;
  uint64_t twopc_txns = 0;
};

/// N in-process engine shards behind one router, on loopback ports.
struct Cluster {
  std::vector<std::unique_ptr<engine::Database>> dbs;
  std::vector<std::unique_ptr<server::Server>> servers;
  shard::ShardMap map;
  std::unique_ptr<shard::BackendPool> pool;
  std::unique_ptr<shard::RouterCore> core;
  std::unique_ptr<shard::RouterServer> router;
  /// Keys each shard holds, placed by the hash the router routes with.
  std::vector<size_t> rows_per_shard;

  ~Cluster() {
    if (router) router->Shutdown();
    servers.clear();
    for (auto& db : dbs) db->Stop();
  }
};

/// Stands up shards (hash-partitioned accounts(id, balance = 100.0),
/// indexed) and the router in front of them.
std::unique_ptr<Cluster> StartCluster(size_t num_shards, size_t rows,
                                      size_t max_inflight,
                                      size_t shard_workers,
                                      wal::DurabilityMode durability,
                                      const std::vector<std::string>& data_dirs) {
  auto cluster = std::make_unique<Cluster>();
  std::string map_text = "version 1\n";
  for (size_t s = 0; s < num_shards; ++s) {
    engine::DatabaseConfig config;  // Heterogeneous serializable.
    // A shard is a FIXED-size resource: its worker pool bounds how many
    // dispatched commits can sit inside the group-commit protocol at
    // once. Scaling out means more pools, not a bigger one — that is
    // the capacity a second shard adds.
    config.worker_threads = shard_workers;
    config.durability = durability;
    if (durability != wal::DurabilityMode::kOff) {
      // Round-robin over the data-dir list: scale-out is shared-nothing,
      // so a real deployment gives every shard its own device — two WALs
      // contending for one filesystem journal serialize their fsyncs and
      // cap the cluster at single-device throughput no matter how many
      // shards front it (docs/OPERATIONS.md, "Shard sizing").
      config.data_dir = data_dirs[s % data_dirs.size()] + "/shard" +
                        std::to_string(s);
      wal::RemoveDirRecursive(config.data_dir);
    }
    auto db = std::make_unique<engine::Database>(config);
    db->Start();
    // This shard's slice of the keyspace, placed by the SAME hash the
    // router routes with.
    std::vector<uint64_t> keys;
    for (uint64_t key = 0; key < rows; ++key) {
      if (shard::ShardMap::Mix64(key) % num_shards == s) keys.push_back(key);
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
      id->LoadValue(row, storage::EncodeInt64(static_cast<int64_t>(keys[row])));
      balance->LoadValue(row, storage::EncodeDouble(100.0));
      ANKER_CHECK(table.value()->primary_index()->Insert(keys[row], row).ok());
    }
    if (!config.data_dir.empty()) ANKER_CHECK(db->Checkpoint().ok());

    server::ServerConfig server_config;
    server_config.port = 0;
    server_config.max_inflight = max_inflight;
    auto srv = std::make_unique<server::Server>(db.get(), server_config);
    ANKER_CHECK(srv->Start().ok());
    map_text += "shard 127.0.0.1:" + std::to_string(srv->port()) + "\n";
    cluster->rows_per_shard.push_back(keys.size());
    cluster->dbs.push_back(std::move(db));
    cluster->servers.push_back(std::move(srv));
  }
  map_text += "table accounts partition id\n";

  auto parsed = shard::ShardMap::Parse(map_text);
  ANKER_CHECK(parsed.ok());
  cluster->map = parsed.TakeValue();
  cluster->pool = std::make_unique<shard::BackendPool>(
      cluster->map.shards(), shard::BackendPoolConfig{});
  cluster->core = std::make_unique<shard::RouterCore>(
      &cluster->map, cluster->pool.get(), shard::RouterCoreConfig{});
  shard::RouterServerConfig router_config;
  router_config.max_inflight = max_inflight;
  cluster->router = std::make_unique<shard::RouterServer>(cluster->core.get(),
                                                          router_config);
  ANKER_CHECK(cluster->router->Start().ok());
  return cluster;
}

/// Stands up a cluster, runs the client fleet, tears down.
ClusterResult RunCluster(size_t num_shards, size_t rows, size_t connections,
                         size_t txns_per_conn, size_t writes_per_txn,
                         size_t pipeline, size_t shard_workers,
                         size_t cross_shard_pct,
                         wal::DurabilityMode durability,
                         const std::vector<std::string>& data_dirs) {
  auto cluster = StartCluster(num_shards, rows, connections + 8,
                              shard_workers, durability, data_dirs);
  const uint16_t router_port = cluster->router->port();

  // ---- client fleet ---------------------------------------------------
  std::vector<ConnResult> results(connections);
  std::vector<std::thread> threads;
  Timer wall;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunConnection(router_port, txns_per_conn,
                                 writes_per_txn, pipeline, rows, num_shards,
                                 cross_shard_pct, /*seed=*/1000 + c);
    });
  }
  for (std::thread& thread : threads) thread.join();

  ClusterResult out;
  out.seconds = wall.ElapsedSeconds();
  Histogram latency;
  for (ConnResult& r : results) {
    out.commits += r.commits;
    out.errors += r.errors;
    latency.Merge(r.latency);
  }
  out.p50_us = latency.Percentile(50) / 1e3;
  out.p99_us = latency.Percentile(99) / 1e3;
  const server::RouterStatusOkMsg status = cluster->core->StatusSnapshot();
  out.passthrough_txns = status.passthrough_txns;
  out.twopc_txns = status.twopc_txns;

  cluster.reset();
  if (durability != wal::DurabilityMode::kOff) {
    for (const std::string& dir : data_dirs) wal::RemoveDirRecursive(dir);
  }
  return out;
}

struct ScatterResult {
  double scatter_p50_us = 0;
  double direct_p50_us = 0;
  uint64_t scatter_queries = 0;  ///< Router counter: scatters it merged.
};

/// Scatter mode: `queries` interleaved pairs of SUM(balance), one
/// through the router (every shard) and one direct to shard 0. Every
/// answer is checked against the loaded balances.
ScatterResult RunScatter(size_t num_shards, size_t rows, size_t queries,
                         size_t shard_workers) {
  auto cluster = StartCluster(num_shards, rows, /*max_inflight=*/8,
                              shard_workers, wal::DurabilityMode::kOff, {});
  auto routed = server::Client::Connect("127.0.0.1", cluster->router->port());
  auto direct =
      server::Client::Connect("127.0.0.1", cluster->servers[0]->port());
  ANKER_CHECK_MSG(routed.ok() && direct.ok(), "bench client cannot connect");

  query::WireQuery sum;
  sum.table = "accounts";
  sum.aggs.push_back(query::Sum(query::Col("balance")).As("s"));
  // Whole-number partial sums: exact in any merge order.
  const double scatter_expect = 100.0 * static_cast<double>(rows);
  const double direct_expect =
      100.0 * static_cast<double>(cluster->rows_per_shard[0]);
  auto timed_sum = [&](server::Client* client, double expect) {
    Timer timer;
    auto result = client->Query(sum, query::Params());
    const int64_t nanos = timer.ElapsedNanos();
    ANKER_CHECK_MSG(result.ok(), "SUM query failed");
    ANKER_CHECK_MSG(result.value().Value("s") == expect &&
                        result.value().shards_missing == 0,
                    "SUM query returned a wrong total");
    return nanos;
  };

  // Warm-up: dial the pooled backend connections and fault in the
  // columns before anything is timed.
  for (int i = 0; i < 8; ++i) {
    timed_sum(routed.value().get(), scatter_expect);
    timed_sum(direct.value().get(), direct_expect);
  }
  Histogram scatter, single;
  for (size_t q = 0; q < queries; ++q) {
    scatter.Record(timed_sum(routed.value().get(), scatter_expect));
    single.Record(timed_sum(direct.value().get(), direct_expect));
  }

  ScatterResult out;
  out.scatter_p50_us = scatter.Percentile(50) / 1e3;
  out.direct_p50_us = single.Percentile(50) / 1e3;
  out.scatter_queries = cluster->core->StatusSnapshot().scatter_queries;
  return out;
}

}  // namespace
}  // namespace anker

int main(int argc, char** argv) {
  using namespace anker;
  bench::Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.Int("rows", 100000));
  const size_t connections =
      static_cast<size_t>(flags.Int("connections", 64));
  const size_t txns_per_conn =
      static_cast<size_t>(flags.Int("txns_per_conn", 2000));
  const size_t writes_per_txn =
      static_cast<size_t>(flags.Int("writes_per_txn", 4));
  const size_t pipeline = static_cast<size_t>(flags.Int("pipeline", 8));
  const size_t max_shards = static_cast<size_t>(flags.Int("shards", 2));
  // Sweep points are interleaved across repeats (1,2,1,2,...) and the
  // best run per point is gated, so slow drift in shared-box fsync
  // latency hits numerator and denominator alike instead of whichever
  // cluster happened to run during the bad patch.
  const size_t repeats = static_cast<size_t>(flags.Int("repeats", 1));
  const size_t shard_workers =
      static_cast<size_t>(flags.Int("shard_workers", 2));
  // Percentage of transactions that span TWO shards (the 2PC path).
  // 0 keeps the classic pure pass-through sweep; >0 adds one extra
  // sweep point at max shards running the mixed workload, and reports
  // its throughput relative to the pure point (`router_2pc_overhead`
  // gate: a cross-shard mix must keep at least a quarter of the
  // pass-through rate — 2 prepares + 2 commits + an HLC stamp, not a
  // cluster-wide stall).
  const size_t cross_shard_pct =
      static_cast<size_t>(flags.Int("cross_shard_pct", 0));
  const std::string durability = flags.Str("durability", "group_commit");
  // Comma-separated list, one entry per shard (round-robin when shorter).
  // Shared-nothing scale-out puts every shard's WAL on its own device;
  // pointing all shards at one filesystem makes the shared journal the
  // bottleneck and hides the scaling this bench exists to measure.
  const std::string data_dir_list =
      flags.Str("data_dirs", "/tmp/anker_router_bench");
  // >0 = scatter mode (see the header comment) instead of the sweep.
  const size_t scatter_queries =
      static_cast<size_t>(flags.Int("scatter_queries", 0));
  const std::string json_out = flags.Str("json_out", "");
  flags.RejectUnknown();

  if (scatter_queries > 0) {
    ANKER_CHECK_MSG(max_shards > 1, "scatter mode needs --shards >= 2");
    bench::PrintHeader(
        "Router scatter: SUM over every shard vs SUM on one shard",
        "the router sends a scatter to every shard before reading any "
        "answer: the scatter p50 stays near the slowest shard plus the "
        "hop, not the sum of the shard round trips");
    bench::JsonReport report("router_scatter");
    report["flags"]["rows"] = rows;
    report["flags"]["shards"] = max_shards;
    report["flags"]["scatter_queries"] = scatter_queries;
    report["flags"]["shard_workers"] = shard_workers;
    const ScatterResult r =
        RunScatter(max_shards, rows, scatter_queries, shard_workers);
    ANKER_CHECK_MSG(r.scatter_queries >= scatter_queries,
                    "SUM queries bypassed the router's scatter path");
    const double ratio = r.scatter_p50_us / r.direct_p50_us;
    auto& scatter = report["scatter"];
    scatter["scatter_sum_p50_us"] = r.scatter_p50_us;
    scatter["direct_sum_p50_us"] = r.direct_p50_us;
    scatter["scatter_over_direct_p50"] = ratio;
    std::printf("%8s %10s %18s %18s %10s\n", "shards", "queries",
                "scatter p50 [us]", "direct p50 [us]", "ratio");
    std::printf("%8zu %10zu %18.1f %18.1f %10.2f\n", max_shards,
                scatter_queries, r.scatter_p50_us, r.direct_p50_us, ratio);
    report.Write(json_out);
    return 0;
  }

  std::vector<std::string> data_dirs;
  {
    std::string current;
    for (char c : data_dir_list + ",") {
      if (c == ',') {
        if (!current.empty()) data_dirs.push_back(current);
        current.clear();
      } else {
        current.push_back(c);
      }
    }
  }
  ANKER_CHECK_MSG(!data_dirs.empty(), "--data_dirs must name a directory");

  const wal::DurabilityMode mode =
      durability == "off" ? wal::DurabilityMode::kOff
      : durability == "lazy" ? wal::DurabilityMode::kLazy
                             : wal::DurabilityMode::kGroupCommit;

  bench::PrintHeader(
      "Router scale-out: single-shard EXEC_TXN throughput vs shard count",
      "pass-through routing is 1 RTT and must not serialize independent "
      "shards: 2 shards behind one router clear 1.5x one shard");

  bench::JsonReport report("router_scaling");
  report["flags"]["rows"] = rows;
  report["flags"]["connections"] = connections;
  report["flags"]["txns_per_conn"] = txns_per_conn;
  report["flags"]["writes_per_txn"] = writes_per_txn;
  report["flags"]["pipeline"] = pipeline;
  report["flags"]["repeats"] = repeats;
  report["flags"]["shard_workers"] = shard_workers;
  report["flags"]["cross_shard_pct"] = cross_shard_pct;
  report["flags"]["durability"] = durability;
  report["flags"]["data_dirs"] = data_dir_list;

  // Sweep points: the pure pass-through scaling ladder, plus (when
  // --cross_shard_pct > 0) one mixed point at max shards whose ratio
  // against the pure max-shard point is the 2PC overhead metric.
  struct Point {
    size_t shards;
    size_t pct;
  };
  std::vector<Point> points;
  for (size_t shards = 1; shards <= max_shards; ++shards) {
    points.push_back({shards, 0});
  }
  if (cross_shard_pct > 0 && max_shards > 1) {
    points.push_back({max_shards, cross_shard_pct});
  }

  std::printf("%8s %6s %6s %12s %12s %12s %8s %10s %10s %10s\n", "shards",
              "xs%", "rep", "commits", "ktps", "passthrough", "2pc",
              "p50 [us]", "p99 [us]", "errors");
  std::vector<ClusterResult> best(points.size());
  std::vector<double> best_ktps(points.size(), 0.0);
  for (size_t rep = 0; rep < repeats; ++rep) {
    for (size_t p = 0; p < points.size(); ++p) {
      const ClusterResult r =
          RunCluster(points[p].shards, rows, connections, txns_per_conn,
                     writes_per_txn, pipeline, shard_workers, points[p].pct,
                     mode, data_dirs);
      const double ktps = r.commits / r.seconds / 1000.0;
      if (points[p].pct == 0) {
        // Every acked commit went through the 1-RTT pass-through path;
        // a counter short-fall would mean the router silently
        // re-planned them.
        ANKER_CHECK_MSG(r.passthrough_txns >= r.commits,
                        "commits bypassed the pass-through path");
      } else {
        // Mixed mode: each commit was EITHER a pass-through or a 2PC,
        // and the cross-shard fraction must actually have exercised
        // the prepare/commit fan-out.
        ANKER_CHECK_MSG(r.passthrough_txns + r.twopc_txns >= r.commits,
                        "commits bypassed both router commit paths");
        ANKER_CHECK_MSG(r.twopc_txns > 0,
                        "cross_shard_pct > 0 but no 2PC ever ran");
      }
      std::printf(
          "%8zu %6zu %6zu %12llu %12.1f %12llu %8llu %10.1f %10.1f %10llu\n",
          points[p].shards, points[p].pct, rep + 1,
          static_cast<unsigned long long>(r.commits), ktps,
          static_cast<unsigned long long>(r.passthrough_txns),
          static_cast<unsigned long long>(r.twopc_txns), r.p50_us, r.p99_us,
          static_cast<unsigned long long>(r.errors));
      std::fflush(stdout);
      if (ktps > best_ktps[p]) {
        best_ktps[p] = ktps;
        best[p] = r;
      }
    }
  }

  double best_ratio = 0;
  double pure_max_ktps = 0;
  for (size_t p = 0; p < points.size(); ++p) {
    const ClusterResult& r = best[p];
    auto& row = report["runs"].Append();
    row["shards"] = points[p].shards;
    row["cross_shard_pct"] = points[p].pct;
    row["commits"] = r.commits;
    row["errors"] = r.errors;
    row["commit_ktps"] = best_ktps[p];
    row["p50_us"] = r.p50_us;
    row["p99_us"] = r.p99_us;
    row["passthrough_txns"] = r.passthrough_txns;
    row["twopc_txns"] = r.twopc_txns;
    if (points[p].pct == 0) {
      if (points[p].shards == 1) continue;
      if (points[p].shards == max_shards) pure_max_ktps = best_ktps[p];
      if (best_ktps[0] > 0) {
        best_ratio = std::max(best_ratio, best_ktps[p] / best_ktps[0]);
      }
    }
  }
  report["scaling_over_one_shard"] = best_ratio;
  std::printf("\nscaling over one shard: %.2fx (best of %zu per point)\n",
              best_ratio, repeats);
  if (cross_shard_pct > 0 && max_shards > 1 && pure_max_ktps > 0) {
    const double overhead = best_ktps.back() / pure_max_ktps;
    auto& mixed = report["cross_shard"];
    mixed["pct"] = cross_shard_pct;
    mixed["commit_ktps"] = best_ktps.back();
    mixed["twopc_txns"] = best.back().twopc_txns;
    mixed["throughput_vs_passthrough"] = overhead;
    std::printf("mixed workload (%zu%% cross-shard): %.1f ktps, %.2fx the "
                "pure pass-through rate\n",
                cross_shard_pct, best_ktps.back(), overhead);
  }

  report.Write(json_out);
  return 0;
}
