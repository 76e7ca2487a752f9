// Wire protocol of the KV serving front end (tools/clsm_server): a
// length-prefixed binary framing with fixed little-endian integers, kept
// deliberately minimal — the subject under test is the store behind it,
// not the RPC system.
//
// Frame:    u32 payload-length | payload          (length cap 16 MiB)
// Request:  u8 opcode | op-specific fields
//   kGet         u64 snap_id | u32 klen | key
//   kPut         u32 klen | key | u32 vlen | value
//   kDelete      u32 klen | key
//   kScan        u64 snap_id | u32 limit | u32 slen | start | u32 elen | end
//                (end empty = unbounded; limit 0 = server default)
//   kSnapCreate  (no fields)
//   kSnapRelease u64 snap_id
//   kStats       (no fields)
//   kPing        u32 elen | echo
// Response: u8 status | op-specific fields
//   kOk + Get    u32 vlen | value
//   kOk + Scan   u32 count | count × (u32 klen | key | u32 vlen | value)
//   kOk + SnapCreate  u64 snap_id
//   kOk + Stats  u32 len | stats JSON
//   kOk + Ping   u32 len | (u64 server_monotonic_micros | echo)
//                (a health probe: the echo round-trips unchanged and the
//                timestamp baselines RTT against server-side time)
//   kNotFoundStatus   (no fields; Get on an absent key)
//   kError / kBadRequest  u32 mlen | message
//
// snap_id 0 means "latest"; non-zero ids come from kSnapCreate and are
// scoped to the connection that created them (released on disconnect).
// A frame that fails to decode is answered with kBadRequest and the
// connection is closed — after a desync there is no way to re-find frame
// boundaries.
#ifndef CLSM_SERVER_KV_PROTOCOL_H_
#define CLSM_SERVER_KV_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

constexpr uint32_t kKvMaxFrameBytes = 16u << 20;

enum KvOpcode : uint8_t {
  kKvGet = 1,
  kKvPut = 2,
  kKvDelete = 3,
  kKvScan = 4,
  kKvSnapCreate = 5,
  kKvSnapRelease = 6,
  kKvStats = 7,
  kKvPing = 8,
};

enum KvStatus : uint8_t {
  kKvOk = 0,
  kKvNotFoundStatus = 1,
  kKvError = 2,
  kKvBadRequest = 3,
};

struct KvRequest {
  uint8_t opcode = 0;
  uint64_t snap_id = 0;  // kGet, kScan, kSnapRelease
  uint32_t limit = 0;    // kScan
  std::string key;       // kGet, kPut, kDelete; echo payload for kPing
  std::string value;     // kPut
  std::string start;     // kScan
  std::string end;       // kScan
};

struct KvResponse {
  uint8_t status = kKvOk;
  std::string value;                                        // Get
  std::vector<std::pair<std::string, std::string>> pairs;   // Scan
  uint64_t snap_id = 0;                                     // SnapCreate
  std::string message;                                      // error text / Stats JSON
};

// Payload (no frame header) encode/decode. Decoders consume the whole
// payload and return false on truncation, trailing garbage or an unknown
// opcode/status.
std::string EncodeKvRequest(const KvRequest& req);
bool DecodeKvRequest(const Slice& payload, KvRequest* req);
std::string EncodeKvResponse(const KvResponse& resp);

// Blocking frame I/O on a connected socket. ReadKvFrame returns IOError on
// EOF mid-frame, socket error, or a length prefix above kKvMaxFrameBytes;
// clean EOF before any header byte reports IOError("closed") too — callers
// treat any non-OK as end-of-conversation. Retries EINTR internally.
Status ReadKvFrame(int fd, std::string* payload);
Status WriteKvFrame(int fd, const Slice& payload);

}  // namespace clsm

#endif  // CLSM_SERVER_KV_PROTOCOL_H_
