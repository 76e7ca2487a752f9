#include "src/server/kv_protocol.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/coding.h"

namespace clsm {

namespace {

// Cursor over a payload; every Get* returns false on underrun so decoders
// can bail with a single `return false` chain.
struct Cursor {
  const char* p;
  const char* limit;

  explicit Cursor(const Slice& s) : p(s.data()), limit(s.data() + s.size()) {}

  bool GetU8(uint8_t* v) {
    if (limit - p < 1) return false;
    *v = static_cast<uint8_t>(*p++);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (limit - p < 4) return false;
    *v = DecodeFixed32(p);
    p += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (limit - p < 8) return false;
    *v = DecodeFixed64(p);
    p += 8;
    return true;
  }
  bool GetString(std::string* out) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (static_cast<size_t>(limit - p) < len) return false;
    out->assign(p, len);
    p += len;
    return true;
  }
  bool AtEnd() const { return p == limit; }
};

void PutString(std::string* dst, const std::string& s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s);
}

}  // namespace

std::string EncodeKvRequest(const KvRequest& req) {
  std::string out;
  out.push_back(static_cast<char>(req.opcode));
  switch (req.opcode) {
    case kKvGet:
      PutFixed64(&out, req.snap_id);
      PutString(&out, req.key);
      break;
    case kKvPut:
      PutString(&out, req.key);
      PutString(&out, req.value);
      break;
    case kKvDelete:
    case kKvPing:
      PutString(&out, req.key);
      break;
    case kKvScan:
      PutFixed64(&out, req.snap_id);
      PutFixed32(&out, req.limit);
      PutString(&out, req.start);
      PutString(&out, req.end);
      break;
    case kKvSnapRelease:
      PutFixed64(&out, req.snap_id);
      break;
    case kKvSnapCreate:
    case kKvStats:
      break;
  }
  return out;
}

bool DecodeKvRequest(const Slice& payload, KvRequest* req) {
  *req = KvRequest();
  Cursor c(payload);
  if (!c.GetU8(&req->opcode)) return false;
  switch (req->opcode) {
    case kKvGet:
      if (!c.GetU64(&req->snap_id) || !c.GetString(&req->key)) return false;
      break;
    case kKvPut:
      if (!c.GetString(&req->key) || !c.GetString(&req->value)) return false;
      break;
    case kKvDelete:
    case kKvPing:
      if (!c.GetString(&req->key)) return false;
      break;
    case kKvScan:
      if (!c.GetU64(&req->snap_id) || !c.GetU32(&req->limit) || !c.GetString(&req->start) ||
          !c.GetString(&req->end)) {
        return false;
      }
      break;
    case kKvSnapRelease:
      if (!c.GetU64(&req->snap_id)) return false;
      break;
    case kKvSnapCreate:
    case kKvStats:
      break;
    default:
      return false;
  }
  return c.AtEnd();
}

std::string EncodeKvResponse(const KvResponse& resp) {
  std::string out;
  out.push_back(static_cast<char>(resp.status));
  if (resp.status == kKvError || resp.status == kKvBadRequest) {
    PutString(&out, resp.message);
    return out;
  }
  if (resp.status == kKvNotFoundStatus) {
    return out;
  }
  // kKvOk: exactly one of the payload shapes below is populated; the
  // decoder distinguishes them by what the caller's request was, so the
  // encoder writes only the non-empty shape. Ordering is fixed:
  // snap_id (if non-zero), pairs (if any), else value/message as string.
  if (resp.snap_id != 0) {
    PutFixed64(&out, resp.snap_id);
  } else if (!resp.pairs.empty()) {
    PutFixed32(&out, static_cast<uint32_t>(resp.pairs.size()));
    for (const auto& kv : resp.pairs) {
      PutString(&out, kv.first);
      PutString(&out, kv.second);
    }
  } else {
    PutString(&out, !resp.message.empty() ? resp.message : resp.value);
  }
  return out;
}

Status ReadKvFrame(int fd, std::string* payload) {
  char header[4];
  size_t got = 0;
  while (got < sizeof(header)) {
    ssize_t n = ::recv(fd, header + got, sizeof(header) - got, 0);
    if (n == 0) {
      return Status::IOError("connection closed");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv header failed");
    }
    got += static_cast<size_t>(n);
  }
  uint32_t len = DecodeFixed32(header);
  if (len > kKvMaxFrameBytes) {
    return Status::IOError("frame exceeds size cap");
  }
  payload->resize(len);
  got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, &(*payload)[got], len - got, 0);
    if (n == 0) {
      return Status::IOError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv payload failed");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteKvFrame(int fd, const Slice& payload) {
  if (payload.size() > kKvMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds size cap");
  }
  std::string framed;
  framed.reserve(4 + payload.size());
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  framed.append(payload.data(), payload.size());
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace clsm
