// CloudEnv: the simulated cloud — one object owning every service, the
// billing ledger and the latency/pricing/compute configuration. Plays the
// role RocksDB's Env plays for storage: all environment access for the
// FSD-Inference runtime goes through here, so tests and experiments can
// swap configurations freely.
#ifndef FSD_CLOUD_CLOUD_H_
#define FSD_CLOUD_CLOUD_H_

#include <memory>

#include "cloud/billing.h"
#include "cloud/faas.h"
#include "cloud/kvstore.h"
#include "cloud/latency.h"
#include "cloud/objectstore.h"
#include "cloud/p2p.h"
#include "cloud/pricing.h"
#include "cloud/pubsub.h"
#include "cloud/queue.h"
#include "cloud/vm.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

struct CloudConfig {
  PricingConfig pricing;
  LatencyConfig latency;
  ComputeModelConfig compute;
  uint64_t seed = 42;
};

class CloudEnv {
 public:
  explicit CloudEnv(sim::Simulation* sim, CloudConfig config = {})
      : sim_(sim),
        config_(std::move(config)),
        billing_(config_.pricing),
        rng_(config_.seed),
        queues_(sim, &billing_, &config_.latency, rng_.Fork(1)),
        pubsub_(sim, &billing_, &config_.latency, &queues_, rng_.Fork(2)),
        objects_(sim, &billing_, &config_.latency, rng_.Fork(3)),
        faas_(sim, this, &billing_, &config_.latency, &config_.compute,
              rng_.Fork(4)),
        vms_(sim, &billing_, &config_.latency, &config_.pricing,
             rng_.Fork(5)),
        kv_(sim, &billing_, &config_.latency, rng_.Fork(6)),
        p2p_(sim, &billing_, &config_.latency, rng_.Fork(7)) {}

  CloudEnv(const CloudEnv&) = delete;
  CloudEnv& operator=(const CloudEnv&) = delete;

  sim::Simulation* sim() { return sim_; }
  const CloudConfig& config() const { return config_; }
  BillingLedger& billing() { return billing_; }
  const BillingLedger& billing() const { return billing_; }
  QueueService& queues() { return queues_; }
  PubSubService& pubsub() { return pubsub_; }
  ObjectStore& objects() { return objects_; }
  FaasService& faas() { return faas_; }
  VmService& vms() { return vms_; }
  KvStore& kv() { return kv_; }
  P2pFabric& p2p() { return p2p_; }
  const LatencyConfig& latency() const { return config_.latency; }
  const ComputeModelConfig& compute() const { return config_.compute; }
  /// Hands out this env's run, query and serving-instance ids (0, 1, 2,
  /// ...). RunInference and ServingRuntime both draw from it, so resource
  /// names never collide on a shared env; owned by the env, not the
  /// process, so the same workload on a fresh env gets the same names.
  uint64_t AllocateRunId() { return next_run_id_++; }

 private:
  sim::Simulation* sim_;
  CloudConfig config_;
  BillingLedger billing_;
  Rng rng_;
  QueueService queues_;
  PubSubService pubsub_;
  ObjectStore objects_;
  FaasService faas_;
  VmService vms_;
  KvStore kv_;
  P2pFabric p2p_;
  uint64_t next_run_id_ = 0;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_CLOUD_H_
