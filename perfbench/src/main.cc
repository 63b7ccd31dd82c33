// perfbench: the repository's benchmark harness. One invocation runs one
// workload with one seed and prints, as its last stdout line, a JSON
// object with the keys correct, attempted, failed and metrics.
//
//   perfbench --workload htap_stream|tpch22_olap|wire_router --seed N
//             --seconds S --trace 0|1 --data_dir DIR [--spans_out FILE]
//   perfbench --selftest                 (checker negative tests)
//   perfbench --probe scatter_anomaly --seed N --data_dir DIR
//                                        (cross-shard read anomaly)
//
// Every run executes the workload's own phase at full length plus the
// other two phases at companion length, so every end-to-end metric has a
// value on every workload. Untraced runs (--trace 0) print the end-to-end
// metrics. Traced runs (--trace 1) trace only the own phase, with spans
// and counters on, and print the per-layer metrics (a layer the phase does
// not reach reads 0); the companions run as in an untraced run, so the
// traced run's end-to-end figures differ from an untraced run of the same
// seed only by the tracing (and, on wire_router, the direct shard
// requests of the traced run).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>
#include <string>

#include "phases.h"

namespace perfbench {
namespace {

/// Every per-layer metric, with its unit (mirrored in BENCHMARK.json).
std::map<std::string, std::string> PerLayerNames() {
  std::map<std::string, std::string> names = {
      {"engine.begin_olap_us", "us"},
      {"engine.scan_rows_tight", "rows"},
      {"engine.scan_rows_hinted", "rows"},
      {"engine.scan_rows_resolved", "rows"},
      {"snapshot.materializations", "count"},
      {"snapshot.pages_flushed", "pages"},
      {"snapshot.forced_cow_pages", "pages"},
      {"snapshot.flush_ms", "ms"},
      {"snapshot.map_ms", "ms"},
      {"mvcc.versions_live", "versions"},
      {"txn.commits", "count"},
      {"txn.aborts", "count"},
      {"query.exec_ms", "ms"},
      {"wal.s0.syncs", "count"},
      {"wal.s1.syncs", "count"},
      {"wal.s0.commits_per_sync", "commits"},
      {"wal.s1.commits_per_sync", "commits"},
      {"server.frames_received", "count"},
      {"server.commits_acked", "count"},
      {"server.busy_rejections", "count"},
      {"shard.direct_query_us", "us"},
      {"shard.direct_exec_txn_us", "us"},
      {"shard.passthrough_txns", "count"},
      {"shard.twopc_txns", "count"},
      {"shard.scatter_queries", "count"},
      {"shard.intent_resolutions", "count"},
  };
  for (int q = 1; q <= 22; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "query.q%02d_ms", q);
    names[name] = "ms";
    std::snprintf(name, sizeof(name), "query.q%02d_rows_scanned", q);
    names[name] = "rows";
  }
  return names;
}

// Work sizes. A phase's work is fixed by --seconds, never by the clock,
// so a seed always yields the same operations; the rates below make one
// full-length phase take about --seconds on the reference machine
// (README.md, "Machine").
constexpr double kHtapBlocksPerSecond = 8;  // Blocks of 3,500 commits.
constexpr double kTpchPassSeconds = 0.5;    // One 22-query pass.
constexpr int kMinTpchPasses = 10;          // Samples of each query.
constexpr double kWireOpsPerSecond = 2500;  // Per connection.
constexpr double kCompanionShare = 1.0 / 3; // Companion phase length.
constexpr size_t kSlices = 40;              // Interleaved slices per run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string spans_out;
  std::string probe;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "htap_stream|tpch22_olap|wire_router --seed N --seconds S "
               "--trace 0|1 --data_dir DIR [--spans_out FILE]\n"
               "       perfbench --selftest\n"
               "       perfbench --probe scatter_anomaly --seed N --data_dir "
               "DIR\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--data_dir") {
      args.data_dir = value;
    } else if (flag == "--spans_out") {
      args.spans_out = value;
    } else if (flag == "--probe") {
      args.probe = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (args.selftest) return args;
  if (args.data_dir.empty()) Usage("--data_dir is required");
  if (!args.probe.empty()) {
    if (args.probe != "scatter_anomaly") Usage("unknown probe");
    return args;
  }
  if (args.workload != "htap_stream" && args.workload != "tpch22_olap" &&
      args.workload != "wire_router") {
    Usage("unknown workload");
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) Usage("bad --seconds");
  return args;
}

void PrintResult(const CheckLog& log, const PhaseSinks& sinks,
                 const Metrics& metrics) {
  for (const std::string& e : log.errors()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fprintf(stderr, "checks: %llu run, %llu failed\n",
               static_cast<unsigned long long>(log.checks()),
               static_cast<unsigned long long>(log.failures()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              log.ok() ? "true" : "false",
              static_cast<unsigned long long>(sinks.attempted),
              static_cast<unsigned long long>(sinks.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
}

int RunProbe(const Args& args) {
  // Unbalanced cross-shard transfers beside scatter SUMs, with shard
  // epochs triggered often enough to advance during the run.
  WirePlan plan;
  plan.seed = args.seed;
  plan.data_dir = args.data_dir;
  plan.ops_per_connection = 20000;
  plan.passthrough_pct = 0;
  plan.twopc_pct = 50;
  plan.unbalanced = true;
  plan.overlap_reads = true;
  plan.snapshot_interval = 100;
  std::unique_ptr<Phase> phase = MakeWirePhase(plan);
  phase->Setup();
  Metrics e2e, layer;
  CheckLog log;
  PhaseSinks sinks{&e2e, &layer, &log};
  phase->Begin(false, &sinks);
  phase->Slice(0, 1);
  phase->Finish();
  const double reads = layer.Get("probe.scatter_reads");
  const double wrong = layer.Get("probe.scatter_wrong");
  std::printf("scatter_anomaly: snapshot_interval=%llu: %.0f of %.0f scatter "
              "SUM reads wrong (%.2f%%); other checks %s\n",
              static_cast<unsigned long long>(plan.snapshot_interval), wrong,
              reads, reads > 0 ? 100.0 * wrong / reads : 0.0,
              log.ok() ? "passed" : "FAILED");
  PrintResult(log, sinks, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start = NowNanos();
  const Args args = Parse(argc, argv);
  if (args.selftest) return RunSelfTest();
  if (!args.probe.empty()) return RunProbe(args);

  auto share = [&](const std::string& workload) {
    return args.seconds * (args.workload == workload ? 1.0 : kCompanionShare);
  };
  HtapPlan htap_plan;
  htap_plan.seed = args.seed;
  // Whole blocks, the same number in every slice, and at least two, so
  // that each slice holds two OLAP queries of every kind.
  htap_plan.blocks =
      kSlices * std::max<uint64_t>(2, static_cast<uint64_t>(
                                          share("htap_stream") *
                                              kHtapBlocksPerSecond / kSlices +
                                          0.5));
  Tpch22Plan tpch_plan;
  tpch_plan.seed = args.seed;
  tpch_plan.passes = std::max(
      kMinTpchPasses,
      static_cast<int>(share("tpch22_olap") / kTpchPassSeconds + 0.5));
  WirePlan wire_plan;
  wire_plan.seed = args.seed;
  wire_plan.data_dir = args.data_dir + "/wire";
  wire_plan.ops_per_connection =
      static_cast<uint64_t>(share("wire_router") * kWireOpsPerSecond);

  // The workload's own phase first.
  std::vector<std::pair<std::string, std::unique_ptr<Phase>>> phases;
  for (const char* name : {"htap_stream", "tpch22_olap", "wire_router"}) {
    std::unique_ptr<Phase> phase =
        std::string(name) == "htap_stream"   ? MakeHtapPhase(htap_plan)
        : std::string(name) == "tpch22_olap" ? MakeTpch22Phase(tpch_plan)
                                             : MakeWirePhase(wire_plan);
    if (args.workload == name) {
      phases.emplace(phases.begin(), name, std::move(phase));
    } else {
      phases.emplace_back(name, std::move(phase));
    }
  }
  for (auto& entry : phases) {
    const int64_t t0 = NowNanos();
    entry.second->Setup();
    std::fprintf(stderr, "setup %s: %.3f s\n", entry.first.c_str(),
                 (NowNanos() - t0) / 1e9);
  }
  const double setup_s = (NowNanos() - process_start) / 1e9;

  Metrics e2e, layer;
  CheckLog log;
  Tracer spans(args.trace);
  PhaseSinks sinks{&e2e, &layer, &log};
  sinks.spans = &spans;
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerNames()) layer.Set(name, 0, unit);
  }
  // Slices of all phases interleave, so each phase samples the whole run.
  std::vector<int64_t> phase_nanos(phases.size(), 0);
  // Only the own phase (phases[0]) is traced.
  for (size_t p = 0; p < phases.size(); ++p) {
    phases[p].second->Begin(args.trace && p == 0, &sinks);
  }
  for (size_t k = 0; k < kSlices; ++k) {
    for (size_t p = 0; p < phases.size(); ++p) {
      const int64_t t0 = NowNanos();
      phases[p].second->Slice(k, kSlices);
      phase_nanos[p] += NowNanos() - t0;
    }
  }
  for (size_t p = 0; p < phases.size(); ++p) {
    const int64_t t0 = NowNanos();
    phases[p].second->Finish();
    std::fprintf(stderr, "phase %s: %.2f s, checks %.2f s\n",
                 phases[p].first.c_str(), phase_nanos[p] / 1e9,
                 (NowNanos() - t0) / 1e9);
  }
  e2e.Set("setup_s", setup_s, "s");

  if (args.trace) {
    // The traced run's end-to-end figures, for the tracing overhead
    // (compare with an untraced run of the same seed).
    std::printf("traced_e2e %s\n", e2e.Json().c_str());
    if (!args.spans_out.empty() && !spans.WriteTsv(args.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    }
  }
  PrintResult(log, sinks, args.trace ? layer : e2e);
  // Tear down outside every measurement; the phases stop their threads.
  phases.clear();
  return 0;
}
