#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace anker::server {

namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IoError(ErrnoMessage("connect"));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.io_timeout_millis > 0) {
    timeval tv{};
    tv.tv_sec = options.io_timeout_millis / 1000;
    tv.tv_usec = (options.io_timeout_millis % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  std::unique_ptr<Client> client(new Client());
  client->fd_ = fd;
  client->options_ = options;

  HelloMsg hello;
  hello.auth_token = options.auth_token;
  std::string payload;
  EncodeHello(hello, &payload);
  ANKER_RETURN_IF_ERROR(client->SendFrame(payload));
  std::string response;
  ANKER_RETURN_IF_ERROR(client->ReceiveFrame(&response));
  if (response.empty()) {
    return Status::IoError("empty HELLO response");
  }
  if (static_cast<Op>(response[0]) == Op::kErr) {
    ErrMsg err;
    ANKER_RETURN_IF_ERROR(
        DecodeErr(std::string_view(response).substr(1), &err));
    return StatusFromWire(err.code, err.message);
  }
  if (static_cast<Op>(response[0]) != Op::kHelloOk) {
    return Status::IoError("unexpected HELLO response opcode");
  }
  HelloOkMsg ok;
  ANKER_RETURN_IF_ERROR(
      DecodeHelloOk(std::string_view(response).substr(1), &ok));
  if (ok.version != kProtocolVersion) {
    return Status::NotSupported("server speaks protocol version " +
                                std::to_string(ok.version));
  }
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendFrame(const std::string& payload) {
  ANKER_RETURN_IF_ERROR(poisoned_);
  std::string frame;
  EncodeFrame(payload, &frame);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      poisoned_ = Status::IoError(ErrnoMessage("send"));
      return poisoned_;
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::ReceiveFrame(std::string* payload) {
  ANKER_RETURN_IF_ERROR(poisoned_);
  char chunk[65536];
  while (true) {
    std::string_view view;
    size_t consumed = 0;
    const FrameStatus status = DecodeFrame(inbox_, &view, &consumed);
    if (status == FrameStatus::kOk) {
      payload->assign(view);
      inbox_.erase(0, consumed);
      return Status::OK();
    }
    if (status == FrameStatus::kCorrupt) {
      poisoned_ = Status::IoError("corrupt frame from server");
      return poisoned_;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      poisoned_ = Status::IoError("server closed the connection");
      return poisoned_;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      poisoned_ = Status::IoError(ErrnoMessage("recv"));
      return poisoned_;
    }
    inbox_.append(chunk, static_cast<size_t>(n));
  }
}

Status Client::StatusResponse(const std::string& payload) {
  if (payload.empty()) {
    poisoned_ = Status::IoError("empty response payload");
    return poisoned_;
  }
  switch (static_cast<Op>(payload[0])) {
    case Op::kOk:
      return Status::OK();
    case Op::kErr:
    case Op::kBusy: {
      ErrMsg err;
      const Status decoded =
          DecodeErr(std::string_view(payload).substr(1), &err);
      if (!decoded.ok()) {
        poisoned_ = decoded;
        return poisoned_;
      }
      return StatusFromWire(err.code, err.message);
    }
    default:
      poisoned_ = Status::IoError("unexpected response opcode");
      return poisoned_;
  }
}

Result<std::string> Client::RoundTrip(const std::string& request_payload) {
  int backoff = std::max(1, options_.busy_backoff_initial_millis);
  for (int attempt = 0;; ++attempt) {
    ANKER_RETURN_IF_ERROR(SendFrame(request_payload));
    std::string response;
    ANKER_RETURN_IF_ERROR(ReceiveFrame(&response));
    if (attempt >= options_.busy_retry_budget || response.empty() ||
        static_cast<Op>(response[0]) != Op::kBusy) {
      return response;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    backoff = std::min(backoff * 2, options_.busy_backoff_max_millis);
  }
}

Status Client::SendOnly(const std::string& request_payload) {
  return SendFrame(request_payload);
}

Result<std::string> Client::ReceiveOne() {
  std::string response;
  ANKER_RETURN_IF_ERROR(ReceiveFrame(&response));
  return response;
}

Status Client::Ping() {
  std::string payload;
  payload.push_back(static_cast<char>(Op::kPing));
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  if (response.value().empty() ||
      static_cast<Op>(response.value()[0]) != Op::kPong) {
    return StatusResponse(response.value());
  }
  return Status::OK();
}

namespace {

std::string OpOnly(Op op) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  return payload;
}

}  // namespace

Status Client::Begin() {
  auto response = RoundTrip(OpOnly(Op::kBegin));
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::CommitResponse(const std::string& payload) {
  if (!payload.empty() && static_cast<Op>(payload[0]) == Op::kCommitOk) {
    uint64_t lsn = 0;
    const Status decoded =
        DecodeCommitOk(std::string_view(payload).substr(1), &lsn);
    if (!decoded.ok()) {
      poisoned_ = decoded;
      return poisoned_;
    }
    last_commit_lsn_ = lsn;
    return Status::OK();
  }
  return StatusResponse(payload);
}

Status Client::Commit() {
  auto response = RoundTrip(OpOnly(Op::kCommit));
  if (!response.ok()) return response.status();
  return CommitResponse(response.value());
}

Status Client::Abort() {
  auto response = RoundTrip(OpOnly(Op::kAbort));
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Result<uint64_t> Client::Read(const std::string& table,
                              const std::string& column, uint64_t key,
                              bool by_key, IntentPendingMsg* intent) {
  PointReadMsg msg;
  msg.table = table;
  msg.column = column;
  msg.key = key;
  msg.by_key = by_key;
  std::string payload;
  EncodePointRead(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kReadOk) {
    uint64_t raw = 0;
    ANKER_RETURN_IF_ERROR(
        DecodeReadOk(std::string_view(response.value()).substr(1), &raw));
    return raw;
  }
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kIntentPending) {
    IntentPendingMsg pending;
    ANKER_RETURN_IF_ERROR(DecodeIntentPending(
        std::string_view(response.value()).substr(1), &pending));
    if (intent != nullptr) *intent = pending;
    return Status::ResourceBusy("read blocked by unresolved write intent");
  }
  return StatusResponse(response.value());
}

Status Client::Write(const std::string& table, const std::string& column,
                     uint64_t key, uint64_t raw, bool by_key) {
  PointWrite write;
  write.table = table;
  write.column = column;
  write.key = key;
  write.raw = raw;
  write.by_key = by_key;
  std::string payload;
  EncodeWrite(write, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::WriteBatch(const std::vector<PointWrite>& writes) {
  std::string payload;
  EncodeWriteBatch(Op::kWriteBatch, writes, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::ExecTxn(const std::vector<PointWrite>& writes) {
  std::string payload;
  EncodeWriteBatch(Op::kExecTxn, writes, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return CommitResponse(response.value());
}

Result<query::QueryResult> Client::Query(const query::WireQuery& query,
                                         const query::Params& params) {
  ANKER_RETURN_IF_ERROR(SendQuery(query, params));
  return ReceiveQuery();
}

Status Client::SendQuery(const query::WireQuery& query,
                         const query::Params& params) {
  QueryMsg msg;
  msg.query = query;
  msg.params = params;
  std::string payload;
  ANKER_RETURN_IF_ERROR(EncodeQuery(msg, &payload));
  return SendFrame(payload);
}

Result<query::QueryResult> Client::ReceiveQuery() {
  query::QueryResult result;
  while (true) {
    std::string response;
    ANKER_RETURN_IF_ERROR(ReceiveFrame(&response));
    if (response.empty()) {
      poisoned_ = Status::IoError("empty response payload");
      return poisoned_;
    }
    const Op op = static_cast<Op>(response[0]);
    const std::string_view body = std::string_view(response).substr(1);
    if (op == Op::kQueryBatch) {
      const Status decoded = DecodeQueryBatch(body, &result);
      if (!decoded.ok()) {
        poisoned_ = decoded;
        return poisoned_;
      }
      continue;
    }
    if (op == Op::kQueryDone) {
      const Status decoded = DecodeQueryDone(body, &result);
      if (!decoded.ok()) {
        poisoned_ = decoded;
        return poisoned_;
      }
      return result;
    }
    return StatusResponse(response);
  }
}

Status Client::CreateTable(const std::string& name, uint64_t num_rows,
                           const std::vector<storage::ColumnDef>& schema) {
  CreateTableMsg msg;
  msg.name = name;
  msg.num_rows = num_rows;
  msg.schema = schema;
  std::string payload;
  EncodeCreateTable(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::Load(const std::string& table, const std::string& column,
                    uint64_t start_row, const std::vector<uint64_t>& values) {
  // Large loads split into protocol-sized slices transparently.
  size_t offset = 0;
  while (offset < values.size() || values.empty()) {
    LoadMsg msg;
    msg.table = table;
    msg.column = column;
    msg.start_row = start_row + offset;
    const size_t n = std::min(values.size() - offset, kMaxLoadValues);
    msg.values.assign(values.begin() + static_cast<ptrdiff_t>(offset),
                      values.begin() + static_cast<ptrdiff_t>(offset + n));
    std::string payload;
    EncodeLoad(msg, &payload);
    auto response = RoundTrip(payload);
    if (!response.ok()) return response.status();
    ANKER_RETURN_IF_ERROR(StatusResponse(response.value()));
    offset += n;
    if (values.empty()) break;
  }
  return Status::OK();
}

Status Client::BuildIndex(const std::string& table,
                          const std::string& key_column) {
  BuildIndexMsg msg;
  msg.table = table;
  msg.key_column = key_column;
  std::string payload;
  EncodeBuildIndex(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::DefineDict(const std::string& table,
                          const std::string& column,
                          const std::vector<std::string>& values) {
  DictDefineMsg msg;
  msg.table = table;
  msg.column = column;
  msg.values = values;
  std::string payload;
  EncodeDictDefine(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::WaitLsn(uint64_t lsn, uint32_t timeout_millis) {
  WaitLsnMsg msg;
  msg.lsn = lsn;
  msg.timeout_millis = timeout_millis;
  std::string payload;
  EncodeWaitLsn(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Result<ReplicaStatusOkMsg> Client::ReplicaStatus() {
  auto response = RoundTrip(OpOnly(Op::kReplicaStatus));
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kReplicaStatusOk) {
    ReplicaStatusOkMsg status;
    ANKER_RETURN_IF_ERROR(DecodeReplicaStatusOk(
        std::string_view(response.value()).substr(1), &status));
    return status;
  }
  return StatusResponse(response.value());
}

Status Client::PrepareTxn(uint64_t gtid, uint32_t primary_shard,
                          const std::vector<PointWrite>& writes,
                          uint64_t* prepare_ts, uint64_t* lsn) {
  ANKER_RETURN_IF_ERROR(SendPrepareTxn(gtid, primary_shard, writes));
  return ReceivePrepared(prepare_ts, lsn);
}

Status Client::SendPrepareTxn(uint64_t gtid, uint32_t primary_shard,
                              const std::vector<PointWrite>& writes) {
  PrepareTxnMsg msg;
  msg.gtid = gtid;
  msg.primary_shard = primary_shard;
  msg.writes = writes;
  std::string payload;
  EncodePrepareTxn(msg, &payload);
  return SendFrame(payload);
}

Status Client::ReceivePrepared(uint64_t* prepare_ts, uint64_t* lsn) {
  std::string response;
  ANKER_RETURN_IF_ERROR(ReceiveFrame(&response));
  if (!response.empty() &&
      static_cast<Op>(response[0]) == Op::kPreparedOk) {
    PreparedOkMsg ok;
    ANKER_RETURN_IF_ERROR(
        DecodePreparedOk(std::string_view(response).substr(1), &ok));
    if (prepare_ts != nullptr) *prepare_ts = ok.prepare_ts;
    if (lsn != nullptr) *lsn = ok.lsn;
    return Status::OK();
  }
  return StatusResponse(response);
}

Status Client::CommitPrepared(uint64_t gtid, uint64_t commit_ts,
                              uint64_t* lsn) {
  ANKER_RETURN_IF_ERROR(SendCommitPrepared(gtid, commit_ts));
  return ReceiveCommitted(lsn);
}

Status Client::SendCommitPrepared(uint64_t gtid, uint64_t commit_ts) {
  CommitPreparedMsg msg;
  msg.gtid = gtid;
  msg.commit_ts = commit_ts;
  std::string payload;
  EncodeCommitPrepared(msg, &payload);
  return SendFrame(payload);
}

Status Client::ReceiveCommitted(uint64_t* lsn) {
  std::string response;
  ANKER_RETURN_IF_ERROR(ReceiveFrame(&response));
  if (!response.empty() && static_cast<Op>(response[0]) == Op::kCommitOk) {
    uint64_t commit_lsn = 0;
    ANKER_RETURN_IF_ERROR(
        DecodeCommitOk(std::string_view(response).substr(1), &commit_lsn));
    if (lsn != nullptr) *lsn = commit_lsn;
    // Idempotent duplicates ack with lsn 0 — don't regress the
    // read-your-writes token with that.
    if (commit_lsn != 0) last_commit_lsn_ = commit_lsn;
    return Status::OK();
  }
  return StatusResponse(response);
}

Status Client::AbortPrepared(uint64_t gtid) {
  AbortPreparedMsg msg;
  msg.gtid = gtid;
  std::string payload;
  EncodeAbortPrepared(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::ResolveIntent(uint64_t gtid, bool abort_pending,
                             uint8_t* outcome, uint64_t* commit_ts) {
  ResolveIntentMsg msg;
  msg.gtid = gtid;
  msg.abort_pending = abort_pending;
  std::string payload;
  EncodeResolveIntent(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kResolvedOk) {
    ResolvedOkMsg ok;
    ANKER_RETURN_IF_ERROR(
        DecodeResolvedOk(std::string_view(response.value()).substr(1), &ok));
    if (outcome != nullptr) *outcome = ok.outcome;
    if (commit_ts != nullptr) *commit_ts = ok.commit_ts;
    return Status::OK();
  }
  return StatusResponse(response.value());
}

Status Client::Promote() {
  auto response = RoundTrip(OpOnly(Op::kPromote));
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Status Client::CheckpointNow() {
  auto response = RoundTrip(OpOnly(Op::kCheckpointNow));
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Result<uint64_t> Client::Digest() {
  auto response = RoundTrip(OpOnly(Op::kDigest));
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kDigestOk) {
    uint64_t digest = 0;
    ANKER_RETURN_IF_ERROR(
        DecodeDigestOk(std::string_view(response.value()).substr(1), &digest));
    return digest;
  }
  return StatusResponse(response.value());
}

Status Client::DecommissionReplica(const std::string& replica_id) {
  DecommissionReplicaMsg msg;
  msg.replica_id = replica_id;
  std::string payload;
  EncodeDecommissionReplica(msg, &payload);
  auto response = RoundTrip(payload);
  if (!response.ok()) return response.status();
  return StatusResponse(response.value());
}

Result<RouterStatusOkMsg> Client::RouterStatus() {
  auto response = RoundTrip(OpOnly(Op::kRouterStatus));
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kRouterStatusOk) {
    RouterStatusOkMsg status;
    ANKER_RETURN_IF_ERROR(DecodeRouterStatusOk(
        std::string_view(response.value()).substr(1), &status));
    return status;
  }
  return StatusResponse(response.value());
}

void Client::ShutdownSocket() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<std::vector<TableInfo>> Client::ListTables() {
  auto response = RoundTrip(OpOnly(Op::kListTables));
  if (!response.ok()) return response.status();
  if (!response.value().empty() &&
      static_cast<Op>(response.value()[0]) == Op::kTables) {
    std::vector<TableInfo> tables;
    ANKER_RETURN_IF_ERROR(
        DecodeTables(std::string_view(response.value()).substr(1), &tables));
    return tables;
  }
  return StatusResponse(response.value());
}

}  // namespace anker::server
