#include "src/server/rpc_attachment.h"

#include "src/obs/rpc_stats.h"
#include "src/obs/trace_listener.h"
#include "src/server/admin_server.h"

namespace clsm {

std::shared_ptr<SlowOpRingListener> RpcAttachment::Attach(
    std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) {
  std::lock_guard<std::mutex> l(mu_);
  stats_ = std::move(stats);
  trace_ = std::move(trace);
  return slow_ring_;
}

std::shared_ptr<RpcServerStats> RpcAttachment::stats() const {
  std::lock_guard<std::mutex> l(mu_);
  return stats_;
}

void RpcAttachment::ResetStats() {
  std::shared_ptr<RpcServerStats> s = stats();
  if (s != nullptr) {
    s->Reset();
  }
}

void RpcAttachment::FillAdminHooks(AdminHooks* hooks) {
  hooks->slow_ops = slow_ring_.get();
  hooks->rpctrace_set = [this](uint32_t ppm) {
    std::shared_ptr<RpcServerStats> s = stats();
    if (s == nullptr) {
      return false;  // no KV service has attached yet
    }
    s->SetTraceSamplePpm(ppm);
    return true;
  };
  hooks->rpctrace_dump = [this]() -> std::string {
    std::shared_ptr<TraceEventListener> t;
    {
      std::lock_guard<std::mutex> l(mu_);
      t = trace_;
    }
    return t != nullptr ? t->DumpChromeTrace() : std::string();
  };
}

}  // namespace clsm
