#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "cloud/kvstore.h"
#include "cloud/queue.h"
#include "common/strings.h"
#include "core/serialization.h"

namespace fsd::core {

std::string CostBreakdown::ToString() const {
  return StrFormat("Comp. %s, Comms. %s, Total %s",
                   HumanDollars(compute).c_str(),
                   HumanDollars(communication).c_str(),
                   HumanDollars(total).c_str());
}

double FaasCost(const cloud::PricingConfig& pricing, int32_t num_workers,
                double mean_runtime_s, int32_t memory_mb) {
  return num_workers * pricing.faas_per_invocation +
         num_workers * mean_runtime_s * memory_mb * pricing.faas_per_mb_second;
}

CostBreakdown QueueCost(const cloud::PricingConfig& pricing,
                        int32_t num_workers, double mean_runtime_s,
                        int32_t memory_mb, double publish_chunks,
                        double delivery_bytes, double queue_api_calls) {
  CostBreakdown out;
  out.compute = FaasCost(pricing, num_workers, mean_runtime_s, memory_mb);
  out.communication = publish_chunks * pricing.pubsub_per_publish_chunk +
                      delivery_bytes * pricing.pubsub_per_byte +
                      queue_api_calls * pricing.queue_per_api_call;
  out.total = out.compute + out.communication;
  return out;
}

CostBreakdown ObjectCost(const cloud::PricingConfig& pricing,
                         int32_t num_workers, double mean_runtime_s,
                         int32_t memory_mb, double puts, double gets,
                         double lists) {
  CostBreakdown out;
  out.compute = FaasCost(pricing, num_workers, mean_runtime_s, memory_mb);
  out.communication = puts * pricing.object_per_put +
                      gets * pricing.object_per_get +
                      lists * pricing.object_per_list;
  out.total = out.compute + out.communication;
  return out;
}

CostBreakdown KvCost(const cloud::PricingConfig& pricing, int32_t num_workers,
                     double mean_runtime_s, int32_t memory_mb,
                     double requests, double processed_bytes,
                     double node_seconds) {
  CostBreakdown out;
  out.compute = FaasCost(pricing, num_workers, mean_runtime_s, memory_mb);
  out.communication = requests * pricing.kv_per_request +
                      processed_bytes * pricing.kv_per_processed_byte +
                      node_seconds * pricing.kv_node_hourly / 3600.0;
  out.total = out.compute + out.communication;
  return out;
}

CostBreakdown DirectCost(const cloud::PricingConfig& pricing,
                         int32_t num_workers, double mean_runtime_s,
                         int32_t memory_mb, double connections,
                         double direct_bytes, double relay_requests,
                         double relay_processed_bytes) {
  CostBreakdown out;
  out.compute = FaasCost(pricing, num_workers, mean_runtime_s, memory_mb);
  out.communication = connections * pricing.p2p_per_connection +
                      direct_bytes * pricing.p2p_per_byte +
                      relay_requests * pricing.kv_per_request +
                      relay_processed_bytes * pricing.kv_per_processed_byte;
  out.total = out.compute + out.communication;
  return out;
}

CostBreakdown SerialCost(const cloud::PricingConfig& pricing,
                         double runtime_s, int32_t memory_mb) {
  CostBreakdown out;
  out.compute = FaasCost(pricing, 1, runtime_s, memory_mb);
  out.total = out.compute;
  return out;
}

double ShareTransferCost(const cloud::PricingConfig& pricing,
                         int64_t peer_connects, int64_t peer_bytes,
                         int64_t relay_requests, int64_t relay_bytes) {
  return static_cast<double>(peer_connects) * pricing.p2p_per_connection +
         static_cast<double>(peer_bytes) * pricing.p2p_per_byte +
         static_cast<double>(relay_requests) * pricing.kv_per_request +
         static_cast<double>(relay_bytes) * pricing.kv_per_processed_byte;
}

ShareTransferEstimate EstimateShareTransfer(
    const cloud::PricingConfig& pricing, const cloud::LatencyConfig& latency,
    const cloud::ComputeModelConfig& compute, uint64_t share_bytes,
    uint64_t relay_chunk_bytes) {
  ShareTransferEstimate est;
  const double bytes = static_cast<double>(share_bytes);

  // Storage path: multipart GETs priced per request, then the read is
  // deserialized into the in-memory representation.
  const double parts =
      static_cast<double>(ModelReadGetParts(share_bytes));
  est.storage_cost = parts * pricing.object_per_get;
  est.storage_load_s = latency.object_get.median_s +
                       bytes / latency.object_get.bytes_per_s +
                       bytes / compute.deserialize_bytes_per_s;

  // Peer path: an expected blend of the punched fabric (one connection +
  // bytes, memory-to-memory so no re-deserialization) and the KV relay
  // (value-capped chunks billed per request and per processed byte, both
  // directions) at the environment's punch-failure rate.
  const double f = latency.p2p_punch_failure_rate;
  const double punched_cost =
      pricing.p2p_per_connection + bytes * pricing.p2p_per_byte;
  const double chunk =
      static_cast<double>(relay_chunk_bytes > 0 ? relay_chunk_bytes : 1);
  const double chunks = std::max(1.0, std::ceil(bytes / chunk));
  const double pops = std::ceil(chunks / cloud::kMaxValuesPerPop);
  const double relay_cost = (chunks + pops) * pricing.kv_per_request +
                            2.0 * bytes * pricing.kv_per_processed_byte;
  est.peer_cost = (1.0 - f) * punched_cost + f * relay_cost;

  const double punched_s = latency.p2p_setup.median_s +
                           latency.p2p_send.median_s +
                           bytes / latency.p2p_bandwidth_bytes_per_s;
  const double relay_s = latency.kv_push.median_s + latency.kv_pop.median_s +
                         bytes / latency.kv_push.bytes_per_s +
                         bytes / latency.kv_pop.bytes_per_s;
  est.peer_load_s = (1.0 - f) * punched_s + f * relay_s;
  est.peer_cheaper = est.peer_cost < est.storage_cost;
  return est;
}

PrewarmLoadPlan PlanPrewarmLoad(const cloud::PricingConfig& pricing,
                                const cloud::LatencyConfig& latency,
                                const cloud::ComputeModelConfig& compute,
                                uint64_t share_bytes,
                                uint64_t relay_chunk_bytes, int32_t memory_mb,
                                bool peer_enabled) {
  const ShareTransferEstimate xfer = EstimateShareTransfer(
      pricing, latency, compute, share_bytes, relay_chunk_bytes);
  PrewarmLoadPlan plan;
  plan.peer = peer_enabled && xfer.peer_cheaper;
  const double load_s = plan.peer ? xfer.peer_load_s : xfer.storage_load_s;
  const double load_cost = plan.peer ? xfer.peer_cost : xfer.storage_cost;
  plan.cost = FaasCost(pricing, 1, load_s, memory_mb) + load_cost;
  return plan;
}

namespace {

/// Adds the model-share load terms to a variant's IPC breakdown: the share
/// GETs actually issued (cache hits issued none) at C_S3(Get), plus the
/// peer-transfer charges when misses resolved from warm peers instead
/// (ShareTransferCost over the run's share-transfer mirrors). Kept for
/// every variant — queue/KV runs read their shares from object storage
/// (or peers) too, which is why the ledger shows those dimensions moving
/// for them.
CostBreakdown AddModelReads(CostBreakdown cost,
                            const cloud::PricingConfig& pricing,
                            const RunMetrics& metrics) {
  const double model_read_cost =
      static_cast<double>(metrics.model_get_parts) * pricing.object_per_get;
  const double transfer_cost = ShareTransferCost(
      pricing, metrics.share_peer_connects, metrics.share_peer_bytes,
      metrics.share_relay_requests, metrics.share_relay_bytes);
  cost.communication += model_read_cost + transfer_cost;
  cost.total += model_read_cost + transfer_cost;
  return cost;
}

/// Per-query attribution under cross-query batching: a member of a shared
/// worker tree is billed its batch share of the P invocations, not all P
/// (FaasCost's per-invocation term assumed one tree per query). Worker
/// durations in a member's sliced metrics are already share-scaled, so the
/// runtime term needs no correction; member predictions then sum exactly to
/// the whole tree's prediction and workload-level predictions keep
/// reconciling with the ledger.
CostBreakdown ApplyTreeShare(CostBreakdown cost,
                             const cloud::PricingConfig& pricing,
                             const FsdOptions& options,
                             const RunMetrics& metrics) {
  if (metrics.tree_share >= 1.0) return cost;
  const double credit = (1.0 - metrics.tree_share) * options.num_workers *
                        pricing.faas_per_invocation;
  cost.compute -= credit;
  cost.total -= credit;
  return cost;
}

}  // namespace

CostBreakdown PredictFromMetrics(const cloud::PricingConfig& pricing,
                                 const FsdOptions& options,
                                 const RunMetrics& metrics,
                                 int32_t memory_mb) {
  const LayerMetrics& t = metrics.totals;
  switch (options.variant) {
    case Variant::kSerial:
      return ApplyTreeShare(
          AddModelReads(SerialCost(pricing, metrics.mean_worker_s, memory_mb),
                        pricing, metrics),
          pricing, options, metrics);
    case Variant::kQueue: {
      // Z: bytes delivered from pub-sub to queues. Measured runs carry the
      // exact billed bytes (payload + per-message attribute envelope) in
      // send_billed_bytes; hand-built metrics (unit tests, estimates) fall
      // back to the mean-envelope approximation over the wire bytes — or,
      // when only raw bytes were recorded, over the measured send-path
      // compression ratio instead of the a-priori guess.
      const double wire_bytes =
          t.send_wire_bytes > 0
              ? static_cast<double>(t.send_wire_bytes)
              : static_cast<double>(t.send_raw_bytes) *
                    MeasuredCompressRatio(t, options);
      const double delivery_bytes =
          t.send_billed_bytes > 0
              ? static_cast<double>(t.send_billed_bytes)
              : wire_bytes + static_cast<double>(t.send_chunks) * 96.0;
      const double api_calls = static_cast<double>(t.polls + t.deletes);
      return ApplyTreeShare(
          AddModelReads(
              QueueCost(pricing, options.num_workers, metrics.mean_worker_s,
                        memory_mb, static_cast<double>(t.publish_chunks),
                        delivery_bytes, api_calls),
              pricing, metrics),
          pricing, options, metrics);
    }
    case Variant::kObject:
      return ApplyTreeShare(
          AddModelReads(
              ObjectCost(pricing, options.num_workers, metrics.mean_worker_s,
                         memory_mb,
                         static_cast<double>(t.puts_dat + t.puts_nul),
                         static_cast<double>(t.gets),
                         static_cast<double>(t.lists)),
              pricing, metrics),
          pricing, options, metrics);
    case Variant::kKv: {
      // B: processed bytes, both directions. Measured runs carry the exact
      // billed bytes (values incl. chunk headers, as pushed and as popped)
      // in send/recv_billed_bytes; hand-built metrics fall back to wire
      // bytes plus the ~3-byte (source, seq, total) header per chunk per
      // direction. Node seconds are billed at namespace teardown, outside
      // the per-run metrics, so they are not predicted here.
      const double fallback_wire =
          t.send_wire_bytes + t.recv_wire_bytes > 0
              ? static_cast<double>(t.send_wire_bytes + t.recv_wire_bytes)
              : 2.0 * static_cast<double>(t.send_raw_bytes) *
                    MeasuredCompressRatio(t, options);
      const double processed =
          t.send_billed_bytes + t.recv_billed_bytes > 0
              ? static_cast<double>(t.send_billed_bytes +
                                    t.recv_billed_bytes)
              : fallback_wire + static_cast<double>(t.send_chunks) * 6.0;
      return ApplyTreeShare(
          AddModelReads(
              KvCost(pricing, options.num_workers, metrics.mean_worker_s,
                     memory_mb, static_cast<double>(t.kv_pushes + t.kv_pops),
                     processed, /*node_seconds=*/0.0),
              pricing, metrics),
          pricing, options, metrics);
    }
    case Variant::kDirect: {
      // Every term mirrors what the run actually recorded: the fabric
      // bills one connection per successful punch (direct_connects) and
      // per byte shipped over links (direct_billed_bytes); pairs that
      // failed to punch relayed through the KV cache, whose traffic lives
      // in the same kv_pushes/kv_pops + send/recv_billed_bytes counters a
      // KV run uses — so the relay terms reconcile with the ledger the
      // same way FSD-Inf-KV's do.
      const double relay_requests =
          static_cast<double>(t.kv_pushes + t.kv_pops);
      const double relay_processed =
          static_cast<double>(t.send_billed_bytes + t.recv_billed_bytes);
      return ApplyTreeShare(
          AddModelReads(
              DirectCost(pricing, options.num_workers, metrics.mean_worker_s,
                         memory_mb, static_cast<double>(t.direct_connects),
                         static_cast<double>(t.direct_billed_bytes),
                         relay_requests, relay_processed),
              pricing, metrics),
          pricing, options, metrics);
    }
  }
  return {};
}

ModelReadEstimate EstimateModelReads(const cloud::PricingConfig& pricing,
                                     const model::SparseDnn& dnn,
                                     const part::ModelPartition& partition,
                                     double hit_ratio) {
  ModelReadEstimate est;
  const double h = std::min(1.0, std::max(0.0, hit_ratio));
  double total_parts = 0.0;
  for (int32_t m = 0; m < partition.num_parts; ++m) {
    total_parts += static_cast<double>(
        ModelReadGetParts(partition.WeightShareBytes(dnn, m)));
  }
  est.gets_saved = total_parts * h;
  est.get_parts = total_parts - est.gets_saved;
  est.cost = est.get_parts * pricing.object_per_get;
  est.savings = est.gets_saved * pricing.object_per_get;
  return est;
}

double EstimateWireRatio(const FsdOptions& options) {
  const double lossless = options.compress ? kAprioriCompressRatio : 1.0;
  if (options.quant_bits == 0) return lossless;
  // Per nonzero: ~2 structure bytes stay lossless-coded; the 4 value bytes
  // become quant_bits/8 packed bytes.
  const double structure = 2.0 * lossless;
  const double values = static_cast<double>(options.quant_bits) / 8.0;
  return (structure + values) / 6.0;
}

double MeasuredCompressRatio(const LayerMetrics& totals,
                             const FsdOptions& options) {
  if (totals.send_raw_bytes > 0 && totals.send_wire_bytes > 0) {
    return static_cast<double>(totals.send_wire_bytes) /
           static_cast<double>(totals.send_raw_bytes);
  }
  return EstimateWireRatio(options);
}

QuantBreakEvenEstimate EstimateQuantBreakEven(
    const cloud::PricingConfig& pricing,
    const cloud::ComputeModelConfig& compute, const FsdOptions& options,
    Variant variant, int32_t memory_mb, double raw_bytes_per_query,
    int32_t quant_bits) {
  QuantBreakEvenEstimate est;
  FsdOptions lossless = options;
  lossless.quant_bits = 0;
  FsdOptions quantized = options;
  quantized.quant_bits = quant_bits;
  est.lossless_wire_bytes = raw_bytes_per_query * EstimateWireRatio(lossless);
  est.quant_wire_bytes = raw_bytes_per_query * EstimateWireRatio(quantized);
  est.bytes_saved = est.lossless_wire_bytes - est.quant_wire_bytes;

  // What one wire byte costs on this variant's metered dimension: pub-sub
  // delivery bytes (queue), processed bytes in both directions (KV), link
  // bytes (direct). Object storage and serial bill per request only.
  double per_byte = 0.0;
  switch (variant) {
    case Variant::kQueue:
      per_byte = pricing.pubsub_per_byte;
      break;
    case Variant::kKv:
      per_byte = 2.0 * pricing.kv_per_processed_byte;
      break;
    case Variant::kDirect:
      per_byte = pricing.p2p_per_byte;
      break;
    case Variant::kObject:
    case Variant::kSerial:
      break;
  }
  est.byte_dollars_saved = est.bytes_saved * per_byte;

  // The quantize pass re-scans the raw payload on the send side, billed as
  // FaaS MB-seconds (OffloadSerializeCpu's surcharge).
  const double cpu_s = raw_bytes_per_query / compute.quant_bytes_per_s;
  est.cpu_dollars_added = cpu_s * memory_mb * pricing.faas_per_mb_second;
  est.net_saving = est.byte_dollars_saved - est.cpu_dollars_added;
  est.worthwhile = est.net_saving > 0.0;
  return est;
}

WorkloadEstimate EstimateWorkload(const model::SparseDnn& dnn,
                                  const part::ModelPartition& partition,
                                  const FsdOptions& options,
                                  double activation_density, int32_t batch) {
  WorkloadEstimate est;
  const double per_row_bytes =
      static_cast<double>(EstimateRowBytes(static_cast<int64_t>(
          std::max(1.0, activation_density * batch))));
  const double compress_ratio = EstimateWireRatio(options);

  int64_t pairs = 0;  // (source, target) pairs across layers
  // Punching is mutual (one physical link per unordered pair), so the
  // connection estimate collapses both directions onto one key — matching
  // the fabric, which bills one kP2pConnection per pair.
  std::set<std::pair<int32_t, int32_t>> distinct_pairs;
  auto link_key = [](int32_t a, int32_t b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  int32_t source = 0;
  for (const part::LayerComm& layer : partition.layers) {
    source = 0;
    for (const auto& sends : layer.send) {
      pairs += static_cast<int64_t>(sends.size());
      for (const part::SendEntry& entry : sends) {
        distinct_pairs.insert(link_key(source, entry.peer));
        const double rows_active =
            static_cast<double>(entry.rows.size()) * activation_density;
        const double bytes = rows_active * per_row_bytes * compress_ratio;
        est.est_bytes_per_batch += bytes;
        // Queue: chunks of max_message_bytes, billed per 64 KiB.
        const double chunks = std::max(
            1.0, std::ceil(bytes / static_cast<double>(
                                       options.max_message_bytes)));
        est.publish_chunks +=
            std::max(chunks, std::ceil(bytes / (64.0 * 1024.0)));
        est.delivery_bytes += bytes;
        // Object: one PUT per pair; one GET per non-empty pair.
        est.puts += 1.0;
        est.gets += (rows_active >= 0.5) ? 1.0 : 0.0;
        // KV: value-capped pushes plus the processed bytes (both
        // directions pass through the cache).
        est.kv_requests += std::max(
            1.0, std::ceil(bytes / static_cast<double>(
                                       options.kv_max_value_bytes)));
        est.kv_processed_bytes += 2.0 * bytes;
        // Direct: same value-capped chunking as KV (relayed chunks must
        // fit the cache); bytes counted once — links bill at send only.
        est.direct_messages += std::max(
            1.0, std::ceil(bytes / static_cast<double>(
                                       options.kv_max_value_bytes)));
        est.direct_bytes += bytes;
      }
      ++source;
    }
  }
  // The barrier + reduce tail also exercises every {m, root} pair.
  for (int32_t m = 1; m < partition.num_parts; ++m) {
    distinct_pairs.insert(link_key(m, 0));
  }
  est.direct_connections = static_cast<double>(distinct_pairs.size());
  // Publishes can batch ~min(10, targets) messages; polls retrieve up to 10
  // messages when saturated; both scale with pair count.
  est.queue_api_calls = 2.2 * static_cast<double>(pairs) /
                        static_cast<double>(cloud::kMaxMessagesPerReceive) *
                        10.0 / 4.0;
  // KV pops drain many values per call; ~one pop per pair covers waits.
  est.kv_requests += 1.2 * static_cast<double>(pairs);
  // LISTs: a few scans per worker-layer until peers publish.
  est.lists = 1.8 * static_cast<double>(dnn.layers()) * partition.num_parts;
  (void)pairs;
  return est;
}

double EstimateQueryLatency(const model::SparseDnn& dnn,
                            const FsdOptions& options,
                            const cloud::LatencyConfig& latency,
                            const cloud::ComputeModelConfig& compute,
                            double activation_density, int32_t batch,
                            Variant variant, int32_t workers) {
  const int32_t memory_mb = DefaultWorkerMemoryMb(dnn.neurons(), variant);

  const double flops = 2.0 * static_cast<double>(dnn.TotalNnz()) * batch *
                       activation_density;
  const double model_bytes = static_cast<double>(dnn.WeightBytes());

  // Launch: tree depth levels of (invoke + cold start).
  double launch = latency.faas_cold_start.median_s;
  if (workers > 1) {
    const double depth = std::ceil(
        std::log(static_cast<double>(workers)) /
        std::log(static_cast<double>(std::max(2, options.branching))));
    launch += depth * (latency.faas_cold_start.median_s +
                       options.branching * latency.faas_invoke_api.median_s);
  }

  // Model share load (parallel multipart GETs) + deserialization.
  const double share_bytes = model_bytes / workers;
  const double load =
      latency.object_get.median_s +
      share_bytes / latency.object_get.bytes_per_s / options.io_lanes +
      share_bytes / compute.deserialize_bytes_per_s;

  // Compute: evenly partitioned (hypergraph balancing) across workers.
  const double compute_s =
      compute.FaasComputeSeconds(flops / workers, memory_mb);
  if (variant == Variant::kSerial || workers == 1) {
    return launch + load + compute_s;
  }

  // Communication: volume scales with the cross-worker activation rows.
  // With the structured models ~min(1, P/8) of rows cross boundaries.
  const double cross_fraction = std::min(1.0, workers / 8.0) * 0.35;
  const double bytes_per_layer = static_cast<double>(dnn.neurons()) *
                                 cross_fraction * activation_density * batch *
                                 6.0 * EstimateWireRatio(options);
  const double per_worker_layer_bytes = bytes_per_layer / workers;
  double per_layer_comm;
  if (variant == Variant::kDirect) {
    // Established links carry sub-millisecond sends with no managed-service
    // hop; the punch-failed fraction of pairs relays through the KV cache
    // at its op latency. The one-time hole-punch setup overlaps the model
    // share load, so it only shows when loads are faster than punches.
    const double relay = std::min(
        1.0, std::max(0.0, latency.p2p_punch_failure_rate));
    const double chunks = std::max(
        1.0, per_worker_layer_bytes / static_cast<double>(
                                          options.kv_max_value_bytes));
    const double sends = chunks * (1.0 - relay) * latency.p2p_send.median_s /
                         std::max(1, options.io_lanes);
    const double relay_ops =
        chunks * relay * latency.kv_push.median_s /
            std::max(1, options.io_lanes) +
        (relay > 0.0 ? latency.kv_pop.median_s : 0.0);
    per_layer_comm =
        sends + latency.p2p_send.median_s + relay_ops +
        per_worker_layer_bytes * (1.0 - relay) /
            latency.p2p_bandwidth_bytes_per_s +
        per_worker_layer_bytes * relay / latency.kv_pop.bytes_per_s;
    const double setup = latency.p2p_setup.median_s;
    const double per_layer_compute_d = compute_s / dnn.layers();
    const double per_layer_d = std::max(per_layer_compute_d,
                                        per_layer_comm * 0.5) +
                               per_layer_comm * 0.5;
    return launch + std::max(load, setup) + per_layer_d * dnn.layers();
  }
  if (variant == Variant::kKv) {
    // Sub-millisecond push/pop round trips; pops drain many values, so the
    // receive side pays ~one op plus the transfer tail.
    const double chunks = std::max(
        1.0, per_worker_layer_bytes / static_cast<double>(
                                          options.kv_max_value_bytes));
    const double pushes = chunks * latency.kv_push.median_s /
                          std::max(1, options.io_lanes);
    const double pops = std::max(1.0, chunks / cloud::kMaxValuesPerPop) *
                        latency.kv_pop.median_s;
    per_layer_comm = pushes + latency.kv_pop.median_s + pops +
                     per_worker_layer_bytes / latency.kv_pop.bytes_per_s;
  } else if (variant == Variant::kQueue) {
    const double chunks = std::max(
        1.0, per_worker_layer_bytes / static_cast<double>(
                                          options.max_message_bytes));
    const double publish = chunks / 10.0 * latency.pubsub_publish.median_s /
                           std::max(1, options.io_lanes);
    const double polls =
        std::max(1.0, chunks / 10.0) * latency.queue_receive.median_s;
    per_layer_comm = publish + latency.pubsub_fanout.median_s + polls +
                     per_worker_layer_bytes / latency.pubsub_fanout.bytes_per_s;
  } else {
    const double gets = std::max(1.0, std::min<double>(workers - 1, 8));
    per_layer_comm = latency.object_put.median_s +
                     latency.object_list.median_s * 1.5 +
                     gets * latency.object_get.median_s /
                         std::max(1, options.io_lanes) +
                     per_worker_layer_bytes / latency.object_get.bytes_per_s;
  }
  // Compute overlaps the sends; the receive tail adds to each layer.
  const double per_layer_compute = compute_s / dnn.layers();
  const double per_layer =
      std::max(per_layer_compute, per_layer_comm * 0.5) + per_layer_comm * 0.5;
  return launch + load + per_layer * dnn.layers();
}

ThroughputEstimate EstimateSustainableThroughput(
    const model::SparseDnn& dnn, const FsdOptions& options,
    const cloud::LatencyConfig& latency,
    const cloud::ComputeModelConfig& compute, double activation_density,
    int32_t batch, int32_t max_concurrent_runs, double expected_occupancy) {
  ThroughputEstimate est;
  est.queries_per_run = std::max(1.0, expected_occupancy);
  const int32_t workers = std::max(1, options.num_workers);
  est.est_run_s = EstimateQueryLatency(
      dnn, options, latency, compute,
      std::max(0.0, std::min(1.0, activation_density)), std::max(1, batch),
      options.variant, workers);
  if (max_concurrent_runs <= 0) {
    est.sustainable_qps = std::numeric_limits<double>::infinity();
  } else if (est.est_run_s > 0.0) {
    est.sustainable_qps = static_cast<double>(max_concurrent_runs) *
                          est.queries_per_run / est.est_run_s;
  }
  return est;
}

Variant RecommendVariant(const model::SparseDnn& dnn, int32_t num_workers,
                         const WorkloadEstimate& estimate) {
  // §IV-C: single-instance execution when the model fits comfortably into
  // the largest FaaS instance (10240 MB, with working-memory headroom).
  const double model_gb =
      static_cast<double>(dnn.WeightBytes()) / (1024.0 * 1024.0 * 1024.0);
  if (num_workers <= 1 || model_gb < 4.0) return Variant::kSerial;
  // Queue until data volumes consistently need multiple publishes per
  // target (payload saturation); object storage beyond.
  const double pairs = std::max(1.0, estimate.puts);
  const double avg_bytes_per_pair = estimate.est_bytes_per_batch / pairs;
  if (avg_bytes_per_pair < 2.0 * 256.0 * 1024.0) return Variant::kQueue;
  return Variant::kObject;
}

}  // namespace fsd::core
