#include "shard/router_core.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "query/merge.h"

namespace anker::shard {

namespace {

using server::Op;
using server::WireError;

std::string OpOnly(Op op) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  return payload;
}

/// Streams a complete query result as the wire frames the engine server
/// would send: n QUERY_BATCH frames followed by QUERY_DONE.
void AppendResultFrames(const query::QueryResult& result, std::string* out) {
  std::string response;
  for (size_t begin = 0; begin < result.rows.size();
       begin += server::kQueryBatchRows) {
    const size_t end =
        std::min(begin + server::kQueryBatchRows, result.rows.size());
    response.clear();
    server::EncodeQueryBatch(result, begin, end, &response);
    server::EncodeFrame(response, out);
  }
  response.clear();
  server::EncodeQueryDone(result, &response);
  server::EncodeFrame(response, out);
}

bool IsOkResponse(const std::string& payload) {
  return !payload.empty() && static_cast<Op>(payload[0]) == Op::kOk;
}

bool IsBusyResponse(const std::string& payload) {
  return !payload.empty() && static_cast<Op>(payload[0]) == Op::kBusy;
}

/// Reads the response to a request already sent with `send`. A BUSY
/// answer — emitted before the shard does any work, so re-sending is
/// safe — waits out the router's backoff and re-sends on the same
/// connection, so the collected response is always the last one sent.
template <typename Send, typename Receive>
Status ReceiveRetryingBusy(const RouterCoreConfig& config, Send send,
                           Receive receive) {
  int backoff_millis = config.busy_backoff_initial_millis;
  for (int attempt = 0;; ++attempt) {
    const Status status = receive();
    if (status.code() != StatusCode::kResourceBusy ||
        attempt >= config.busy_retry_budget) {
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
    backoff_millis = std::min(backoff_millis * 2, config.busy_backoff_max_millis);
    ANKER_RETURN_IF_ERROR(send());
  }
}

/// Wall-clock-seeded base for global transaction ids: the high bits
/// change across router incarnations so a restarted router's counter
/// does not replay a predecessor's gtids (collisions would only cost a
/// retryable abort anyway — the shard's tombstone refuses them).
uint64_t GtidBase() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  return micros << 20;  // Room for ~1M transactions per microsecond tick.
}

}  // namespace

RouterCore::RouterCore(const ShardMap* map, BackendPool* pool,
                       RouterCoreConfig config)
    : map_(map), pool_(pool), config_(config), gtid_base_(GtidBase()) {
  ANKER_CHECK(map_ != nullptr && pool_ != nullptr);
  ANKER_CHECK(map_->num_shards() == pool_->num_shards());
}

void RouterCore::RespondError(WireError code, const std::string& message,
                              std::string* out) {
  std::string payload;
  // BUSY keeps its dedicated opcode so client-side retry loops engage.
  const Op op = code == WireError::kResourceBusy ? Op::kBusy : Op::kErr;
  server::EncodeErr(op, {code, message}, &payload);
  server::EncodeFrame(payload, out);
}

void RouterCore::RespondStatus(const Status& status, std::string* out) {
  if (status.ok()) {
    server::EncodeFrame(OpOnly(Op::kOk), out);
  } else {
    RespondError(server::WireErrorFor(status), status.message(), out);
  }
}

bool RouterCore::ForwardVerbatim(server::Client* client,
                                 const std::string& payload,
                                 std::string* out) {
  // Router-side BUSY absorption, mirroring Client::RetryPolicy: the
  // shard emits BUSY from admission control *before* running anything,
  // so re-sending the same bytes is safe for every op that reaches
  // here. The pooled clients keep a zero budget — the router owns the
  // backoff so one overloaded shard doesn't multiply retries per hop.
  int backoff_millis = config_.busy_backoff_initial_millis;
  for (int attempt = 0;; ++attempt) {
    auto response = client->RoundTrip(payload);
    if (!response.ok()) return false;
    if (!IsBusyResponse(response.value()) ||
        attempt >= config_.busy_retry_budget) {
      server::EncodeFrame(response.value(), out);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
    backoff_millis =
        std::min(backoff_millis * 2, config_.busy_backoff_max_millis);
  }
}

Result<std::pair<size_t, std::unique_ptr<server::Client>>>
RouterCore::AcquireAny() {
  Status last = Status::ResourceBusy("no shards configured");
  // Round-robin start point: any-shard work (replicated reads,
  // single-shard queries, LIST_TABLES) spreads across healthy
  // backends instead of piling onto shard 0.
  const size_t shards = pool_->num_shards();
  const size_t start =
      any_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < shards; ++i) {
    const size_t shard = (start + i) % shards;
    auto client = pool_->Acquire(shard);
    if (client.ok()) return std::make_pair(shard, std::move(client.value()));
    last = client.status();
  }
  return last;
}

void RouterCore::Handle(SessionState* session, const std::string& payload,
                        std::string* out) {
  if (payload.empty() ||
      !server::IsRequestOp(static_cast<uint8_t>(payload[0]))) {
    RespondError(WireError::kNotSupported, "unknown or non-request opcode",
                 out);
    return;
  }
  const Op op = static_cast<Op>(payload[0]);
  switch (op) {
    case Op::kPing:
      server::EncodeFrame(OpOnly(Op::kPong), out);
      return;
    case Op::kHello:
      RespondError(WireError::kProtocolError,
                   "HELLO must be the first frame, exactly once", out);
      return;
    case Op::kBegin:
    case Op::kCommit:
    case Op::kAbort:
      HandleTxnOp(session, op, payload, out);
      return;
    case Op::kRead:
      HandleRead(session, payload, out);
      return;
    case Op::kWrite:
    case Op::kWriteBatch: {
      std::vector<server::PointWrite> writes;
      const std::string_view body(payload.data() + 1, payload.size() - 1);
      Status decoded;
      if (op == Op::kWrite) {
        server::PointWrite write;
        decoded = server::DecodeWrite(body, &write);
        if (decoded.ok()) writes.push_back(std::move(write));
      } else {
        decoded = server::DecodeWriteBatch(body, &writes);
      }
      if (!decoded.ok()) {
        RespondError(WireError::kProtocolError, "malformed request body",
                     out);
        return;
      }
      if (!session->in_txn) {
        RespondError(WireError::kInvalidArgument,
                     "no open transaction (BEGIN first)", out);
        return;
      }
      const int shard = ShardForWrites(writes, out);
      if (shard < 0) return;
      if (!EnsurePinned(session, static_cast<size_t>(shard), out)) return;
      if (!ForwardVerbatim(session->txn_client.get(), payload, out)) {
        pool_->Discard(std::move(session->txn_client));
        session->in_txn = false;
        session->pinned_shard = -1;
        RespondError(WireError::kResourceBusy,
                     "shard connection lost; transaction aborted", out);
      }
      return;
    }
    case Op::kExecTxn:
      HandleExecTxn(session, payload, out);
      return;
    case Op::kQuery:
      HandleQuery(payload, out);
      return;
    case Op::kCreateTable:
    case Op::kLoad:
    case Op::kBuildIndex:
    case Op::kDictDefine:
      HandleFanout(op, payload, out);
      return;
    case Op::kListTables:
      HandleListTables(payload, out);
      return;
    case Op::kRouterStatus: {
      std::string response;
      server::EncodeRouterStatusOk(StatusSnapshot(), &response);
      server::EncodeFrame(response, out);
      return;
    }
    default:
      // Replication / per-node operations surface: these act on one
      // node's WAL, checkpoints or role — meaningless through a router.
      RespondError(WireError::kNotSupported,
                   "not served by the router; connect to the shard's "
                   "engine server directly",
                   out);
      return;
  }
}

void RouterCore::HandleTxnOp(SessionState* session, Op op,
                             const std::string& payload, std::string* out) {
  if (op == Op::kBegin) {
    if (session->in_txn) {
      RespondError(WireError::kInvalidArgument,
                   "transaction already open (no nesting)", out);
      return;
    }
    // Acknowledged locally; the session pins to a shard at its first
    // keyed operation (a BEGIN alone costs no backend round trip).
    session->in_txn = true;
    session->pinned_shard = -1;
    RespondStatus(Status::OK(), out);
    return;
  }
  if (!session->in_txn) {
    RespondError(WireError::kInvalidArgument, "no open transaction", out);
    return;
  }
  if (session->txn_client == nullptr) {
    // Untouched transaction: nothing reached any shard.
    session->in_txn = false;
    if (op == Op::kCommit) {
      std::string response;
      server::EncodeCommitOk(0, &response);
      server::EncodeFrame(response, out);
    } else {
      RespondStatus(Status::OK(), out);
    }
    return;
  }
  const size_t shard = static_cast<size_t>(session->pinned_shard);
  const bool forwarded =
      ForwardVerbatim(session->txn_client.get(), payload, out);
  if (forwarded) {
    pool_->Release(shard, std::move(session->txn_client));
    if (op == Op::kCommit) passthrough_txns_.fetch_add(1);
  } else {
    pool_->Discard(std::move(session->txn_client));
    RespondStatus(
        op == Op::kCommit
            ? Status::IoError(
                  "shard connection lost; commit outcome unknown")
            : Status::OK(),  // A lost ABORT aborted anyway (server-side).
        out);
  }
  session->in_txn = false;
  session->pinned_shard = -1;
  return;
}

void RouterCore::HandleRead(SessionState* session, const std::string& payload,
                            std::string* out) {
  server::PointReadMsg msg;
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  if (!server::DecodePointRead(body, &msg).ok()) {
    RespondError(WireError::kProtocolError, "malformed request body", out);
    return;
  }
  const std::string* partition_key = map_->PartitionKey(msg.table);
  if (partition_key != nullptr && !msg.by_key) {
    RespondError(WireError::kNotSupported,
                 "row ids are shard-local; address partitioned tables "
                 "by key through the router",
                 out);
    return;
  }

  if (session->in_txn) {
    if (partition_key == nullptr) {
      // Replicated table inside a transaction: read it on the pinned
      // shard (any copy is equivalent; the pinned one sees txn writes
      // to partitioned tables alongside).
      if (session->txn_client == nullptr) {
        auto any = AcquireAny();
        if (!any.ok()) {
          RespondStatus(any.status(), out);
          return;
        }
        // Pin here too: later keyed ops must agree with this read's
        // transactional view.
        session->pinned_shard = static_cast<int>(any.value().first);
        session->txn_client = std::move(any.value().second);
        auto begun = session->txn_client->RoundTrip(OpOnly(Op::kBegin));
        if (!begun.ok() || !IsOkResponse(begun.value())) {
          pool_->Discard(std::move(session->txn_client));
          session->in_txn = false;
          session->pinned_shard = -1;
          RespondError(WireError::kResourceBusy,
                       "shard refused transaction open", out);
          return;
        }
      }
    } else {
      const size_t shard = map_->ShardFor(msg.key);
      if (!EnsurePinned(session, shard, out)) return;
    }
    if (!ForwardReadResolving(session->txn_client.get(),
                              static_cast<size_t>(session->pinned_shard),
                              payload, out)) {
      pool_->Discard(std::move(session->txn_client));
      session->in_txn = false;
      session->pinned_shard = -1;
      RespondError(WireError::kResourceBusy,
                   "shard connection lost; transaction aborted", out);
    }
    return;
  }

  // Auto-commit read: one round trip to the owning (or any) shard.
  size_t shard = 0;
  std::unique_ptr<server::Client> client;
  if (partition_key != nullptr) {
    shard = map_->ShardFor(msg.key);
    auto acquired = pool_->Acquire(shard);
    if (!acquired.ok()) {
      RespondStatus(acquired.status(), out);
      return;
    }
    client = std::move(acquired.value());
  } else {
    auto any = AcquireAny();
    if (!any.ok()) {
      RespondStatus(any.status(), out);
      return;
    }
    shard = any.value().first;
    client = std::move(any.value().second);
  }
  if (ForwardReadResolving(client.get(), shard, payload, out)) {
    pool_->Release(shard, std::move(client));
  } else {
    pool_->Discard(std::move(client));
    RespondError(WireError::kResourceBusy, "shard connection lost", out);
  }
}

bool RouterCore::ForwardReadResolving(server::Client* client, size_t shard,
                                      const std::string& payload,
                                      std::string* out) {
  (void)shard;
  int backoff_millis = config_.busy_backoff_initial_millis;
  for (int attempt = 0; attempt <= config_.intent_resolve_attempts;
       ++attempt) {
    auto response = client->RoundTrip(payload);
    if (!response.ok()) return false;
    if (IsBusyResponse(response.value()) &&
        attempt < config_.busy_retry_budget) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
      backoff_millis =
          std::min(backoff_millis * 2, config_.busy_backoff_max_millis);
      continue;
    }
    if (response.value().empty() ||
        static_cast<Op>(response.value()[0]) != Op::kIntentPending) {
      server::EncodeFrame(response.value(), out);
      return true;
    }
    // The read landed on an unresolved 2PC intent: its coordinating
    // router may be gone, so this router resolves on the reader's
    // behalf — ask the primary shard for the outcome, apply it at the
    // holding shard, retry the read. The final attempt escalates a
    // still-undecided transaction to a durable abort (the coordinator
    // is presumed dead; the primary's tombstone fences it).
    server::IntentPendingMsg pending;
    const std::string_view body =
        std::string_view(response.value()).substr(1);
    if (!server::DecodeIntentPending(body, &pending).ok()) {
      server::EncodeFrame(response.value(), out);
      return true;
    }
    const bool escalate = attempt + 1 >= config_.intent_resolve_attempts;
    bool decided = false;
    const Status resolved = ResolveIntentOnce(
        pending.gtid, pending.primary_shard, client, escalate, &decided);
    if (!resolved.ok() || !decided) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_millis));
      backoff_millis =
          std::min(backoff_millis * 2, config_.busy_backoff_max_millis);
    }
  }
  RespondError(WireError::kResourceBusy,
               "read blocked by an unresolved write intent", out);
  return true;
}

Status RouterCore::ResolveIntentOnce(uint64_t gtid, size_t primary_shard,
                                     server::Client* holder,
                                     bool abort_pending, bool* decided) {
  *decided = false;
  if (primary_shard >= pool_->num_shards()) {
    return Status::InvalidArgument("intent names an unknown primary shard");
  }
  auto primary = pool_->Acquire(primary_shard);
  if (!primary.ok()) return primary.status();
  uint8_t outcome = 0;
  uint64_t commit_ts = 0;
  const Status resolved =
      primary.value()->ResolveIntent(gtid, abort_pending, &outcome,
                                     &commit_ts);
  if (resolved.code() == StatusCode::kIoError) {
    pool_->Discard(std::move(primary.value()));
  } else {
    pool_->Release(primary_shard, std::move(primary.value()));
  }
  if (!resolved.ok()) return resolved;
  if (outcome == 0) return Status::OK();  // Still undecided.
  *decided = true;
  intent_resolutions_.fetch_add(1);
  // Land the outcome at the shard whose intent blocked the read; both
  // phase-two ops are idempotent, so racing another resolver is fine.
  return outcome == 1 ? holder->CommitPrepared(gtid, commit_ts, nullptr)
                      : holder->AbortPrepared(gtid);
}

int RouterCore::ShardForWrites(const std::vector<server::PointWrite>& writes,
                               std::string* out) {
  int shard = -1;
  for (const server::PointWrite& write : writes) {
    const std::string* partition_key = map_->PartitionKey(write.table);
    if (partition_key == nullptr) {
      RespondError(WireError::kNotSupported,
                   "writes to replicated tables are not routable (every "
                   "shard holds a copy); load them out of band",
                   out);
      return -1;
    }
    if (!write.by_key) {
      RespondError(WireError::kNotSupported,
                   "row ids are shard-local; address partitioned tables "
                   "by key through the router",
                   out);
      return -1;
    }
    const int owner = static_cast<int>(map_->ShardFor(write.key));
    if (shard == -1) shard = owner;
    if (owner != shard) {
      RespondError(WireError::kNotSupported,
                   "transaction spans shards " + std::to_string(shard) +
                       " and " + std::to_string(owner) +
                       "; cross-shard 2PC is not supported yet",
                   out);
      return -1;
    }
  }
  return shard;
}

bool RouterCore::EnsurePinned(SessionState* session, size_t shard,
                              std::string* out) {
  if (session->txn_client != nullptr) {
    if (session->pinned_shard == static_cast<int>(shard)) return true;
    RespondError(WireError::kNotSupported,
                 "transaction is pinned to shard " +
                     std::to_string(session->pinned_shard) +
                     " but this operation belongs to shard " +
                     std::to_string(shard) +
                     "; cross-shard 2PC is not supported yet",
                 out);
    return false;
  }
  auto client = pool_->Acquire(shard);
  if (!client.ok()) {
    RespondStatus(client.status(), out);
    return false;
  }
  auto begun = client.value()->RoundTrip(OpOnly(Op::kBegin));
  if (!begun.ok() || !IsOkResponse(begun.value())) {
    pool_->Discard(std::move(client.value()));
    RespondError(WireError::kResourceBusy, "shard refused transaction open",
                 out);
    return false;
  }
  session->pinned_shard = static_cast<int>(shard);
  session->txn_client = std::move(client.value());
  return true;
}

void RouterCore::HandleExecTxn(SessionState* session,
                               const std::string& payload, std::string* out) {
  std::vector<server::PointWrite> writes;
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  if (!server::DecodeWriteBatch(body, &writes).ok()) {
    RespondError(WireError::kProtocolError, "malformed request body", out);
    return;
  }
  if (session->in_txn) {
    RespondError(WireError::kInvalidArgument,
                 "EXEC_TXN is auto-commit; a transaction is open on this "
                 "session",
                 out);
    return;
  }
  if (writes.empty()) {
    // An empty transaction commits vacuously; no shard needs to hear
    // about it (LSN 0 = "wrote nothing", same as the engine server).
    std::string response;
    server::EncodeCommitOk(0, &response);
    server::EncodeFrame(response, out);
    return;
  }
  std::vector<std::pair<size_t, std::vector<server::PointWrite>>> groups;
  if (!PartitionWrites(writes, &groups, out)) return;
  if (groups.size() > 1) {
    TwoPhaseCommit(groups, out);
    return;
  }
  const size_t shard = groups.front().first;
  auto client = pool_->Acquire(shard);
  if (!client.ok()) {
    RespondStatus(client.status(), out);
    return;
  }
  // The pass-through fast path: the ORIGINAL request bytes go to the
  // owning shard and its response comes back verbatim — one
  // router->shard round trip, no re-encode.
  if (ForwardVerbatim(client.value().get(), payload, out)) {
    pool_->Release(shard, std::move(client.value()));
    passthrough_txns_.fetch_add(1);
  } else {
    pool_->Discard(std::move(client.value()));
    RespondStatus(Status::IoError(
                      "shard connection lost; transaction outcome unknown"),
                  out);
  }
}

bool RouterCore::PartitionWrites(
    const std::vector<server::PointWrite>& writes,
    std::vector<std::pair<size_t, std::vector<server::PointWrite>>>* groups,
    std::string* out) {
  groups->clear();
  for (const server::PointWrite& write : writes) {
    const std::string* partition_key = map_->PartitionKey(write.table);
    if (partition_key == nullptr) {
      RespondError(WireError::kNotSupported,
                   "writes to replicated tables are not routable (every "
                   "shard holds a copy); load them out of band",
                   out);
      return false;
    }
    if (!write.by_key) {
      RespondError(WireError::kNotSupported,
                   "row ids are shard-local; address partitioned tables "
                   "by key through the router",
                   out);
      return false;
    }
    const size_t owner = map_->ShardFor(write.key);
    auto group = std::find_if(
        groups->begin(), groups->end(),
        [owner](const auto& entry) { return entry.first == owner; });
    if (group == groups->end()) {
      groups->emplace_back(owner, std::vector<server::PointWrite>{});
      group = std::prev(groups->end());
    }
    group->second.push_back(write);
  }
  // Primary shard = lowest participating index: every router derives
  // the same commit point from the same write set, so a reader's lazy
  // resolution and the coordinator always agree on where the outcome
  // lives.
  std::sort(groups->begin(), groups->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return true;
}

void RouterCore::AbortPreparedFanout(
    uint64_t gtid,
    const std::vector<std::pair<size_t, std::vector<server::PointWrite>>>&
        groups) {
  // Best-effort: every participant gets ABORT_PREPARED. A shard whose
  // prepare never landed fences the gtid with a durable tombstone, so a
  // delayed PREPARE_TXN racing this abort is refused rather than
  // resurrecting the transaction. Unreachable shards are left for lazy
  // reader-driven resolution.
  for (const auto& [shard, writes] : groups) {
    (void)writes;
    auto client = pool_->Acquire(shard);
    if (!client.ok()) continue;
    const Status aborted = client.value()->AbortPrepared(gtid);
    if (aborted.ok() || aborted.code() != StatusCode::kIoError) {
      pool_->Release(shard, std::move(client.value()));
    } else {
      pool_->Discard(std::move(client.value()));
    }
  }
}

void RouterCore::TwoPhaseCommit(
    const std::vector<std::pair<size_t, std::vector<server::PointWrite>>>&
        groups,
    std::string* out) {
  anker::FaultInjector& faults = anker::FaultInjector::Instance();
  const uint64_t gtid = gtid_base_ + gtid_counter_.fetch_add(1) + 1;
  const uint32_t primary_shard = static_cast<uint32_t>(groups.front().first);

  // Phase one: stage durable write intents on every participant. Every
  // PREPARE goes out before any ack is read, so the participants' durable
  // prepares overlap; acks are then collected in participant order, each
  // carrying the shard's prepare stamp, folded into the HLC.
  const size_t participants = groups.size();
  std::vector<std::unique_ptr<server::Client>> clients(participants);
  std::vector<Status> prepared(participants);
  size_t asked = participants;
  for (size_t i = 0; i < participants; ++i) {
    auto acquired = pool_->Acquire(groups[i].first);
    if (!acquired.ok()) {
      prepared[i] = acquired.status();
      asked = i + 1;  // Later participants are never asked.
      break;
    }
    clients[i] = std::move(acquired.value());
    prepared[i] =
        clients[i]->SendPrepareTxn(gtid, primary_shard, groups[i].second);
  }
  // Every sent PREPARE is collected, even after a failure: no connection
  // goes back to the pool with an unread ack, and the unwind below meets
  // settled participants, as after a serial phase one.
  uint64_t max_prepare_ts = 0;
  size_t failed = participants;  // First failing participant, if any.
  for (size_t i = 0; i < asked; ++i) {
    if (clients[i] != nullptr && prepared[i].ok()) {
      uint64_t prepare_ts = 0;
      // PREPARE_TXN is idempotent (a duplicate staged gtid acks OK), so
      // BUSY retries the same way every other forwarded op does.
      prepared[i] = ReceiveRetryingBusy(
          config_,
          [&] {
            return clients[i]->SendPrepareTxn(gtid, primary_shard,
                                              groups[i].second);
          },
          [&] { return clients[i]->ReceivePrepared(&prepare_ts, nullptr); });
      if (prepared[i].ok()) {
        max_prepare_ts = std::max(max_prepare_ts, prepare_ts);
        faults.MaybeKill("2pc.prepare.post");
      }
    }
    if (!prepared[i].ok() && failed == participants) failed = i;
  }
  if (failed < participants) {
    // Unwind: nothing is decided until the primary's COMMIT_PREPARED
    // is durable, so aborting here is always correct.
    for (size_t i = 0; i < asked; ++i) {
      if (clients[i] == nullptr) continue;
      if (prepared[i].code() == StatusCode::kIoError) {
        pool_->Discard(std::move(clients[i]));
      } else {
        pool_->Release(groups[i].first, std::move(clients[i]));
      }
    }
    AbortPreparedFanout(gtid, groups);
    RespondStatus(prepared[failed].code() == StatusCode::kIoError
                      ? Status::ResourceBusy(
                            "shard " + std::to_string(groups[failed].first) +
                            " unreachable during prepare; transaction "
                            "aborted")
                      : prepared[failed],
                  out);
    return;
  }

  // Decision: one HLC stamp above every prepare stamp. Nothing durable
  // records it yet — a crash before the primary's ack below aborts the
  // transaction (lazy resolution escalates undecided intents to abort).
  const uint64_t commit_ts = oracle_.CommitStamp(max_prepare_ts);

  // Phase two: the primary shard (groups.front()) is the commit point —
  // its durable COMMIT_PREPARED record decides the transaction, so it
  // goes first and alone. The remaining participants are then told
  // together, best-effort; any that miss the memo are healed by
  // reader-driven resolution through the primary.
  std::vector<Status> committed(participants);
  auto send_commit = [&](size_t i) {
    faults.MaybeKill("2pc.commit.pre");
    committed[i] = clients[i]->SendCommitPrepared(gtid, commit_ts);
  };
  auto collect_commit = [&](size_t i, uint64_t* lsn) {
    if (committed[i].ok()) {
      committed[i] = ReceiveRetryingBusy(
          config_,
          [&] { return clients[i]->SendCommitPrepared(gtid, commit_ts); },
          [&] { return clients[i]->ReceiveCommitted(lsn); });
    }
    if (committed[i].code() == StatusCode::kIoError) {
      pool_->Discard(std::move(clients[i]));
    } else {
      pool_->Release(groups[i].first, std::move(clients[i]));
    }
  };
  uint64_t primary_lsn = 0;
  send_commit(0);
  collect_commit(0, &primary_lsn);
  if (!committed[0].ok()) {
    // The commit point did not ack. Transport loss leaves the outcome
    // genuinely unknown (the record may be durable), so intents stay for
    // lazy resolution; a clean refusal means the transaction never
    // committed — unwind it.
    for (size_t i = 1; i < participants; ++i) {
      pool_->Release(groups[i].first, std::move(clients[i]));
    }
    if (committed[0].code() == StatusCode::kIoError) {
      RespondStatus(Status::IoError("primary shard connection lost; "
                                    "transaction outcome unknown"),
                    out);
    } else {
      AbortPreparedFanout(gtid, groups);
      RespondStatus(committed[0], out);
    }
    return;
  }
  // A failed secondary after the primary's ack does NOT fail the
  // transaction — it is committed; the straggler's intents resolve
  // lazily.
  for (size_t i = 1; i < participants; ++i) send_commit(i);
  for (size_t i = 1; i < participants; ++i) collect_commit(i, nullptr);

  twopc_txns_.fetch_add(1);
  // The LSN is the primary shard's commit record: read-your-writes
  // waits (WAIT_LSN) against the commit point, where the outcome lives.
  std::string response;
  server::EncodeCommitOk(primary_lsn, &response);
  server::EncodeFrame(response, out);
}

void RouterCore::HandleQuery(const std::string& payload, std::string* out) {
  server::QueryMsg msg;
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  if (!server::DecodeQuery(body, &msg).ok()) {
    RespondError(WireError::kProtocolError, "malformed request body", out);
    return;
  }
  const query::ScatterPlan plan =
      query::PlanScatter(msg.query, map_->partitioned());

  if (plan.mode == query::ScatterMode::kUnsupported) {
    RespondError(WireError::kNotSupported,
                 "cross-shard query: " + plan.reason, out);
    return;
  }

  if (plan.mode == query::ScatterMode::kSingleShard) {
    // Replicated-only plan: any one healthy shard holds the answer.
    auto any = AcquireAny();
    if (!any.ok()) {
      RespondStatus(any.status(), out);
      return;
    }
    auto result = any.value().second->Query(msg.query, msg.params);
    if (!result.ok()) {
      // The client may be poisoned (mid-stream failure); drop it.
      pool_->Discard(std::move(any.value().second));
      RespondStatus(result.status(), out);
      return;
    }
    pool_->Release(any.value().first, std::move(any.value().second));
    AppendResultFrames(result.value(), out);
    single_shard_queries_.fetch_add(1);
    return;
  }

  // Scatter: every shard runs plan.shard_query; the router merges. The
  // query goes out to every shard before any answer is read, so the
  // shards run concurrently and a scatter costs the slowest shard, not
  // the sum. Answers are collected in shard order: the merge input (and
  // so the merged bytes) and the reported error (the lowest failing
  // shard) are what a serial loop would give.
  const size_t shards = pool_->num_shards();
  std::vector<std::unique_ptr<server::Client>> clients(shards);
  std::vector<Status> sent(shards);
  size_t asked = shards;
  for (size_t shard = 0; shard < shards; ++shard) {
    auto client = pool_->Acquire(shard);
    if (!client.ok()) {
      sent[shard] = client.status();  // BUSY: the shard is down.
      if (config_.allow_partial) continue;
      asked = shard + 1;  // Later shards are never asked.
      break;
    }
    clients[shard] = std::move(client.value());
    sent[shard] = clients[shard]->SendQuery(plan.shard_query, msg.params);
  }
  // Every sent query is collected, even after a failure, so no
  // connection goes back to the pool with an unread answer.
  std::vector<query::QueryResult> parts;
  uint32_t skipped = 0;
  Status failed;
  for (size_t shard = 0; shard < asked; ++shard) {
    Status status = sent[shard];
    if (clients[shard] != nullptr) {
      if (status.ok()) {
        auto result = clients[shard]->ReceiveQuery();
        status = result.status();
        if (result.ok()) parts.push_back(std::move(result.value()));
      }
      if (status.ok()) {
        pool_->Release(shard, std::move(clients[shard]));
        continue;
      }
      // The client may be poisoned (mid-stream failure); drop it.
      pool_->Discard(std::move(clients[shard]));
    }
    const StatusCode code = status.code();
    if (config_.allow_partial && (code == StatusCode::kIoError ||
                                  code == StatusCode::kResourceBusy)) {
      // Down, died mid-query or overloaded: merge over the live subset.
      ++skipped;
    } else if (failed.ok()) {
      failed = status;
    }
  }
  if (!failed.ok()) {
    RespondStatus(failed, out);
    return;
  }
  if (parts.empty()) {
    RespondError(WireError::kResourceBusy, "no shard reachable", out);
    return;
  }
  query::QueryResult merged;
  const Status merged_ok =
      query::MergeShardResults(plan, std::move(parts), &merged);
  if (!merged_ok.ok()) {
    RespondStatus(merged_ok, out);
    return;
  }
  // Degraded results are wire-visible: QUERY_DONE carries the count of
  // shards whose rows are absent, so a client can never mistake a
  // partial SUM/COUNT for the complete answer.
  merged.shards_missing = skipped;
  AppendResultFrames(merged, out);
  scatter_queries_.fetch_add(1);
}

void RouterCore::HandleFanout(Op op, const std::string& payload,
                              std::string* out) {
  const std::string_view body(payload.data() + 1, payload.size() - 1);
  // Partitioned-table schema/load ops are the loader's job: rows are
  // positional per shard, so the router cannot split them faithfully.
  if (op == Op::kCreateTable) {
    server::CreateTableMsg msg;
    if (!server::DecodeCreateTable(body, &msg).ok()) {
      RespondError(WireError::kProtocolError, "malformed request body", out);
      return;
    }
    if (map_->PartitionKey(msg.name) != nullptr) {
      RespondError(WireError::kNotSupported,
                   "create partitioned tables on each shard directly "
                   "(per-shard row counts differ)",
                   out);
      return;
    }
  } else if (op == Op::kLoad) {
    server::LoadMsg msg;
    if (!server::DecodeLoad(body, &msg).ok()) {
      RespondError(WireError::kProtocolError, "malformed request body", out);
      return;
    }
    if (map_->PartitionKey(msg.table) != nullptr) {
      RespondError(WireError::kNotSupported,
                   "loads are positional; split partitioned-table loads "
                   "at the loader",
                   out);
      return;
    }
  }

  // All shards must apply DDL/loads: a partial fan-out would fork the
  // replicated schema, so the first unreachable shard fails the op.
  for (size_t shard = 0; shard < pool_->num_shards(); ++shard) {
    auto client = pool_->Acquire(shard);
    if (!client.ok()) {
      RespondStatus(client.status(), out);
      return;
    }
    auto response = client.value()->RoundTrip(payload);
    if (!response.ok()) {
      pool_->Discard(std::move(client.value()));
      RespondError(WireError::kResourceBusy,
                   "shard " + std::to_string(shard) +
                       " connection lost during fan-out",
                   out);
      return;
    }
    pool_->Release(shard, std::move(client.value()));
    if (!IsOkResponse(response.value())) {
      // First failure wins; its response travels back verbatim.
      server::EncodeFrame(response.value(), out);
      return;
    }
  }
  server::EncodeFrame(OpOnly(Op::kOk), out);
  fanout_ops_.fetch_add(1);
}

void RouterCore::HandleListTables(const std::string& payload,
                                  std::string* out) {
  auto any = AcquireAny();
  if (!any.ok()) {
    RespondStatus(any.status(), out);
    return;
  }
  if (ForwardVerbatim(any.value().second.get(), payload, out)) {
    pool_->Release(any.value().first, std::move(any.value().second));
  } else {
    pool_->Discard(std::move(any.value().second));
    RespondError(WireError::kResourceBusy, "shard connection lost", out);
  }
}

void RouterCore::AbandonSession(SessionState* session) {
  if (session->txn_client != nullptr) {
    auto aborted = session->txn_client->RoundTrip(OpOnly(Op::kAbort));
    if (aborted.ok() && IsOkResponse(aborted.value())) {
      pool_->Release(static_cast<size_t>(session->pinned_shard),
                     std::move(session->txn_client));
    } else {
      pool_->Discard(std::move(session->txn_client));
    }
  }
  session->in_txn = false;
  session->pinned_shard = -1;
}

server::RouterStatusOkMsg RouterCore::StatusSnapshot() {
  server::RouterStatusOkMsg msg;
  msg.shard_count = static_cast<uint32_t>(map_->num_shards());
  msg.healthy_shards = static_cast<uint32_t>(pool_->CountHealthy());
  msg.shard_map_version = map_->version();
  msg.shard_map_digest = map_->digest();
  msg.allow_partial = config_.allow_partial;
  msg.passthrough_txns = passthrough_txns_.load();
  msg.scatter_queries = scatter_queries_.load();
  msg.single_shard_queries = single_shard_queries_.load();
  msg.fanout_ops = fanout_ops_.load();
  msg.twopc_txns = twopc_txns_.load();
  msg.intent_resolutions = intent_resolutions_.load();
  return msg;
}

}  // namespace anker::shard
