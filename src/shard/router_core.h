#ifndef ANKER_SHARD_ROUTER_CORE_H_
#define ANKER_SHARD_ROUTER_CORE_H_

// The routing brain behind the router's wire front-end: one decoded
// request payload in, response frame(s) out. Kept free of sockets and
// epoll so tests can drive it directly against in-process shards.
//
// Routing rules (docs/SERVER.md has the client-facing contract):
//  - EXEC_TXN: decoded just far enough to find the owning shard(s).
//    Single-shard batches forward the ORIGINAL payload bytes verbatim —
//    one router->shard round trip (the pass-through fast path, counted
//    in passthrough_txns). Batches spanning shards run intent-based 2PC
//    (counted in twopc_txns): PREPARE_TXN fan-out stages durable write
//    intents on every participant (every PREPARE is sent before any ack
//    is read, so the participants' fsyncs overlap; all acks are read
//    before an unwind), the router's TimestampOracle folds the prepare
//    stamps into one HLC commit stamp, and COMMIT_PREPARED lands on the
//    primary shard (lowest participating index — the durable commit
//    point) alone, before it is sent to the rest together. A router death
//    mid-protocol leaves intents that readers resolve lazily through
//    the primary (see HandleRead). Writes touching replicated tables
//    are still refused.
//  - BEGIN is acknowledged locally; the session pins to the shard that
//    owns the first keyed operation, and every later op in the
//    transaction must land on the same shard. COMMIT/ABORT forward to
//    the pinned shard (an untouched transaction commits locally).
//  - READ outside a transaction routes to the owning shard
//    (replicated tables: any healthy shard). Row-id addressing is
//    refused for partitioned tables — row ids are shard-local.
//  - CREATE_TABLE / LOAD (replicated tables) and BUILD_INDEX /
//    DICT_DEFINE (all tables) fan out to every shard; the first failure
//    wins. CREATE_TABLE/LOAD of a partitioned table is refused: rows
//    are positional, so splitting a load is the loader's job (the
//    smoke harness loads shards directly).
//  - QUERY: PlanScatter (query/merge.h) classifies the plan;
//    single-shard plans forward to one healthy shard, scatterable plans
//    run on every shard and merge at the router, cross-shard plans
//    come back as a recoverable kNotSupported. A scatter is sent to
//    every shard before any answer is read, so the shards run it
//    concurrently (the slowest shard, not the sum); answers are read
//    in shard order, so the merge input and the reported error (the
//    lowest failing shard) match a serial loop.
//  - Split-phase fan-outs run on the calling worker thread alone. Every
//    request that went out is read back, even after a failure, so no
//    connection returns to the pool holding an unread response.
//  - A down shard surfaces as BUSY (kResourceBusy) for anything that
//    must reach it. Queries optionally tolerate missing shards
//    (allow_partial): the merged result then covers the live subset,
//    with the number of skipped shards reported in QUERY_DONE's
//    shards_missing field so clients can tell degraded from complete.
//  - Replication/operations surface (REPLICATE_HELLO, FETCH_CHECKPOINT,
//    WAIT_LSN, PROMOTE, CHECKPOINT_NOW, DIGEST, DECOMMISSION_REPLICA):
//    refused — those are per-node operator actions; connect to the
//    shard's engine server directly.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "server/client.h"
#include "server/protocol.h"
#include "shard/backend_pool.h"
#include "shard/shard_map.h"
#include "shard/timestamp_oracle.h"

namespace anker::shard {

struct RouterCoreConfig {
  /// QUERY behavior when a shard is down: false = refuse with BUSY;
  /// true = merge over the reachable shards (results may under-count;
  /// the skipped-shard count travels back in QUERY_DONE).
  bool allow_partial = false;
  /// Router-side retry budget for shard BUSY responses, mirroring the
  /// client's RetryPolicy (the pooled backend clients keep budget 0 so
  /// the router owns the policy). BUSY is emitted before the shard runs
  /// an operation, so re-sending is always safe. 0 = surface BUSY.
  int busy_retry_budget = 4;
  int busy_backoff_initial_millis = 5;
  int busy_backoff_max_millis = 200;
  /// Attempts to resolve a read-blocking intent through its primary
  /// shard before escalating the transaction to a durable abort (the
  /// coordinating router is presumed dead at that point).
  int intent_resolve_attempts = 5;
};

class RouterCore {
 public:
  /// Per-client-session routing state. Owned by the front-end session;
  /// the one-request-at-a-time session discipline serializes access.
  struct SessionState {
    bool in_txn = false;
    /// Shard owning the open transaction; -1 until the first keyed op.
    int pinned_shard = -1;
    /// Live backend connection holding the open transaction.
    std::unique_ptr<server::Client> txn_client;
  };

  /// `map` and `pool` must outlive the core.
  RouterCore(const ShardMap* map, BackendPool* pool,
             RouterCoreConfig config);
  ANKER_DISALLOW_COPY_AND_MOVE(RouterCore);

  /// Handles one post-handshake request payload (opcode + body),
  /// appending complete response frame(s) to `out`. May block on
  /// backend IO — run on a worker thread.
  void Handle(SessionState* session, const std::string& payload,
              std::string* out);

  /// Session teardown (peer vanished): abort any pinned transaction on
  /// its shard and return the connection.
  void AbandonSession(SessionState* session);

  /// ROUTER_STATUS payload. Probing health touches the network.
  server::RouterStatusOkMsg StatusSnapshot();

  const ShardMap& map() const { return *map_; }

 private:
  void HandleTxnOp(SessionState* session, server::Op op,
                   const std::string& payload, std::string* out);
  void HandleRead(SessionState* session, const std::string& payload,
                  std::string* out);
  void HandleExecTxn(SessionState* session, const std::string& payload,
                     std::string* out);
  void HandleQuery(const std::string& payload, std::string* out);
  void HandleFanout(server::Op op, const std::string& payload,
                    std::string* out);
  void HandleListTables(const std::string& payload, std::string* out);

  /// Owning shard for a batch of writes; negative = refused (response
  /// already appended).
  int ShardForWrites(const std::vector<server::PointWrite>& writes,
                     std::string* out);
  /// Splits a write batch by owning shard. False = refused (replicated
  /// table or row-id addressing; response already appended).
  bool PartitionWrites(
      const std::vector<server::PointWrite>& writes,
      std::vector<std::pair<size_t, std::vector<server::PointWrite>>>* groups,
      std::string* out);
  /// Runs a multi-shard EXEC_TXN as intent-based 2PC.
  void TwoPhaseCommit(
      const std::vector<std::pair<size_t, std::vector<server::PointWrite>>>&
          groups,
      std::string* out);
  /// Best-effort ABORT_PREPARED fan-out to `groups` (phase-one unwind).
  /// Unknown gtids are fenced with durable tombstones, so shards whose
  /// prepare never arrived are safe to abort too.
  void AbortPreparedFanout(
      uint64_t gtid,
      const std::vector<std::pair<size_t, std::vector<server::PointWrite>>>&
          groups);
  /// Forwards a READ, resolving kIntentPending responses through the
  /// intent's primary shard (lazy resolution for dead coordinators)
  /// and retrying. Same contract as ForwardVerbatim.
  bool ForwardReadResolving(server::Client* client, size_t shard,
                            const std::string& payload, std::string* out);
  /// One resolution round: asks `primary_shard` for the outcome of
  /// `gtid` and applies it at `holder` (the shard whose intent blocked
  /// the read). OK with `*decided=false` while still pending.
  Status ResolveIntentOnce(uint64_t gtid, size_t primary_shard,
                           server::Client* holder, bool abort_pending,
                           bool* decided);
  /// Pins `session` to `shard`, opening the backend transaction.
  /// False = refused/failed (response already appended).
  bool EnsurePinned(SessionState* session, size_t shard, std::string* out);
  /// Round-trips `payload` on `client`, forwarding the raw response
  /// verbatim. False on transport failure (client is poisoned — the
  /// caller must discard it; a BUSY/error response is still `true`).
  bool ForwardVerbatim(server::Client* client, const std::string& payload,
                       std::string* out);
  /// Acquires any healthy shard, round-robin so any-shard traffic
  /// (replicated reads, single-shard queries) spreads the load.
  Result<std::pair<size_t, std::unique_ptr<server::Client>>> AcquireAny();

  void RespondStatus(const Status& status, std::string* out);
  void RespondError(server::WireError code, const std::string& message,
                    std::string* out);

  const ShardMap* map_;
  BackendPool* pool_;
  const RouterCoreConfig config_;

  /// Round-robin start point for AcquireAny (wraps modulo shards).
  std::atomic<size_t> any_cursor_{0};

  std::atomic<uint64_t> passthrough_txns_{0};
  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> single_shard_queries_{0};
  std::atomic<uint64_t> fanout_ops_{0};
  std::atomic<uint64_t> twopc_txns_{0};
  std::atomic<uint64_t> intent_resolutions_{0};

  /// HLC for cross-shard commit stamps (see timestamp_oracle.h).
  TimestampOracle oracle_;
  /// Global transaction ids: wall-clock-seeded base + counter. A
  /// collision with a fenced gtid from a previous router incarnation is
  /// refused by the shard's tombstone and surfaces as a retryable
  /// abort, so uniqueness is best-effort by construction.
  const uint64_t gtid_base_;
  std::atomic<uint64_t> gtid_counter_{0};
};

}  // namespace anker::shard

#endif  // ANKER_SHARD_ROUTER_CORE_H_
