// RpcAttachment: a DB's late-bound handles on the serving tier fronting
// it. A KvService starts after the DB and its admin server are up, then
// hands over its RpcServerStats and Chrome-trace ring through
// DB::AttachRpcObservability and gets back the slow-op ring it appends
// slow-request records to. Every DB surface that exports the serving tier
// — the LSM chassis under cLSM and the baselines, and ShardedClsm — keeps
// one of these: the stats "rpc" block, the reporter's rpc+N, ResetStats,
// GET /slowops and the /rpctrace and /control/rpctrace/* endpoints all
// read it. Handles are replaced by a later attach but never cleared, so a
// scrape during service shutdown still renders. Scrape and admin paths
// only, never op paths.
#ifndef CLSM_SERVER_RPC_ATTACHMENT_H_
#define CLSM_SERVER_RPC_ATTACHMENT_H_

#include <memory>
#include <mutex>
#include <utility>

namespace clsm {

struct AdminHooks;
class RpcServerStats;
class SlowOpRingListener;
class TraceEventListener;

class RpcAttachment {
 public:
  // slow_ring is handed to every attaching service; null when the DB has
  // no /slowops surface (its admin server is off).
  explicit RpcAttachment(std::shared_ptr<SlowOpRingListener> slow_ring)
      : slow_ring_(std::move(slow_ring)) {}

  RpcAttachment(const RpcAttachment&) = delete;
  RpcAttachment& operator=(const RpcAttachment&) = delete;

  // The body of DB::AttachRpcObservability.
  std::shared_ptr<SlowOpRingListener> Attach(std::shared_ptr<RpcServerStats> stats,
                                             std::shared_ptr<TraceEventListener> trace);

  // The attached request metrics; null until a service attaches.
  std::shared_ptr<RpcServerStats> stats() const;

  // Zeroes the attached request metrics, if any (DB::ResetStats).
  void ResetStats();

  // Wires GET /slowops to the slow ring, and GET /rpctrace and POST
  // /control/rpctrace/* to the attached handles. The hooks borrow this
  // object, which must outlive the admin server.
  void FillAdminHooks(AdminHooks* hooks);

 private:
  const std::shared_ptr<SlowOpRingListener> slow_ring_;
  mutable std::mutex mu_;
  std::shared_ptr<RpcServerStats> stats_;      // guarded by mu_
  std::shared_ptr<TraceEventListener> trace_;  // guarded by mu_
};

}  // namespace clsm

#endif  // CLSM_SERVER_RPC_ATTACHMENT_H_
