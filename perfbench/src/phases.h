// The three measured phases of a perfbench run. Each owns its own
// database (or cluster), so phases are independent of each other and of
// their order: a run executes its workload's phase at full length and the
// other two at a fixed companion length (see README.md, "Companion
// phases").
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// What a phase reports back into the run's sheets.
struct PhaseSinks {
  Metrics* e2e;      ///< End-to-end metrics (untraced runs).
  Metrics* layer;    ///< Per-layer metrics (traced runs).
  CheckLog* checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tracer* spans = nullptr;  ///< Collects the phase's spans when traced.
};

/// A measured phase. Setup is timed into setup_s; the run then calls
/// Begin once, Slice(k, n) for k = 0 .. n-1 interleaved with the other
/// phases' slices, and Finish, which runs the output checks and reports
/// into the sinks handed to Begin.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void Setup() = 0;
  virtual void Begin(bool traced, PhaseSinks* sinks) = 0;
  /// Executes the k-th of n equal shares of the phase's work.
  virtual void Slice(size_t k, size_t n) = 0;
  virtual void Finish() = 0;
};

/// htap_stream: the paper's mixed workload, run serially on one thread.
/// The stream is made of blocks of 7 * olap_period OLTP commits, each
/// with one OLAP query of each of the 7 kinds in a seeded order, so every
/// block (and every slice of whole blocks) does the same kind of work.
struct HtapPlan {
  uint64_t seed = 1;
  size_t lineitem_rows = 300000;
  uint64_t blocks = 40;
  uint64_t olap_period = 500;         ///< One OLAP every this many commits.
  uint64_t snapshot_interval = 3500;  ///< Engine epoch trigger period.
  uint64_t oltp_txns() const { return blocks * 7 * olap_period; }
};
std::unique_ptr<Phase> MakeHtapPhase(const HtapPlan& plan);

/// tpch22_olap: read-only passes over all 22 TPC-H queries.
struct Tpch22Plan {
  uint64_t seed = 1;
  size_t lineitem_rows = 200000;
  int passes = 5;
};
std::unique_ptr<Phase> MakeTpch22Phase(const Tpch22Plan& plan);

/// wire_router: client connections through an in-process shard router to
/// two group-commit shard servers.
struct WirePlan {
  uint64_t seed = 1;
  std::string data_dir;  ///< Shard WALs live in <data_dir>/shardN.
  size_t connections = 2;
  size_t accounts = 4096;
  uint64_t ops_per_connection = 20000;
  uint64_t snapshot_interval = 1000;
  /// Op mix in percent; the remainder is scatter SUM queries.
  int passthrough_pct = 60;
  int twopc_pct = 25;
  /// Unbalanced cross-shard transfers (the scatter-read anomaly probe):
  /// the global sum is still conserved, the per-shard sums are not.
  bool unbalanced = false;
  /// Sends the scatter reads beside the transfers, as they come in the op
  /// stream (the probe), instead of after each slice's transfers.
  bool overlap_reads = false;
};
std::unique_ptr<Phase> MakeWirePhase(const WirePlan& plan);

/// Runs the checker negative tests; returns the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
