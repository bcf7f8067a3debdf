// Fine-grained run metrics (the paper captures 51 per-layer and 26
// per-batch metrics to validate its cost model, §VI-F; this is the
// equivalent instrumentation).
#ifndef FSD_CORE_METRICS_H_
#define FSD_CORE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fsd::core {

/// Terminal state of one serving query. Exactly one applies (FleetStats
/// asserts the partition): a query is served to completion, fails during
/// execution, is refused by admission before entering the queue, is shed
/// from the queue under overload, is aborted (kill path / stop_on_failure),
/// or is still in flight when a horizon-bounded Drain() stops.
enum class QueryDisposition : int {
  kInFlight = 0,  ///< not terminal yet (horizon-cut Drain)
  kCompleted = 1,
  kFailed = 2,    ///< execution failed (worker/channel error)
  kRejected = 3,  ///< admission refused it; nothing was provisioned
  kShed = 4,      ///< admitted, then dropped from the queue under overload
  kAborted = 5,   ///< aborted by AbortAll / stop_on_failure
};

std::string_view QueryDispositionName(QueryDisposition disposition);

/// Counters for one worker at one layer.
struct LayerMetrics {
  // --- send side ---
  int64_t send_targets = 0;       ///< (m -> n) pairs in the send map
  int64_t send_rows_mapped = 0;   ///< rows listed in the send map
  int64_t send_rows_active = 0;   ///< rows actually carrying data
  int64_t send_chunks = 0;        ///< byte strings / objects written
  int64_t send_raw_bytes = 0;     ///< pre-compression payload bytes
  int64_t send_wire_bytes = 0;    ///< on-the-wire payload bytes
  /// Service-billed bytes as metered on the send side: pub-sub delivery
  /// bytes including the per-message attribute envelope (queue channel) or
  /// pushed value bytes including the chunk header (KV channel). Lets the
  /// cost model predict byte-metered dimensions exactly instead of via the
  /// mean-envelope approximation. 0 for backends without a send-side
  /// byte dimension (object storage bills per request).
  int64_t send_billed_bytes = 0;
  int64_t publishes = 0;          ///< pub-sub publish API calls
  int64_t publish_chunks = 0;     ///< billed 64 KiB publish chunks
  int64_t puts_dat = 0;           ///< object .dat PUTs
  int64_t puts_nul = 0;           ///< object .nul marker PUTs
  int64_t kv_pushes = 0;          ///< KV push (RPUSH) requests
  /// Direct channel: successful fresh NAT punches (billed connections),
  /// fresh punches that failed (the pair relays via KV from then on),
  /// values sent over punched links, and the bytes those sends billed on
  /// the p2p byte dimension. Relayed values count in relay_fallback_msgs
  /// AND in the KV counters (kv_pushes / send_billed_bytes) — the relay
  /// IS a KV push, so KV cost terms stay exact.
  int64_t direct_connects = 0;
  int64_t punch_failures = 0;
  int64_t direct_msgs = 0;
  int64_t direct_billed_bytes = 0;
  int64_t relay_fallback_msgs = 0;
  /// Quantized activation transport (WireCodec::quant_bits != 0): chunks
  /// sent through the bounded-error wire mode, float values they carried,
  /// and the worst measured per-chunk relative error (max-merged in Add —
  /// it is a bound witness, not a volume).
  int64_t quant_chunks = 0;
  int64_t quant_values = 0;
  double quant_err_max = 0.0;
  double serialize_s = 0.0;       ///< worker CPU spent packing/compressing

  // --- receive side ---
  int64_t polls = 0;              ///< queue receive API calls
  int64_t empty_polls = 0;        ///< polls returning no messages
  int64_t deletes = 0;            ///< queue delete API calls
  int64_t msgs_received = 0;
  int64_t lists = 0;              ///< object LIST calls
  int64_t gets = 0;               ///< object GET calls
  int64_t kv_pops = 0;            ///< KV blocking-pop requests
  int64_t kv_empty_pops = 0;      ///< pops whose wait expired empty
  int64_t direct_pops = 0;        ///< p2p fabric inbox pops (unbilled)
  int64_t direct_empty_pops = 0;  ///< fabric pops whose wait expired empty
  int64_t nul_skipped = 0;        ///< .nul markers skipped without GET
  int64_t redundant_skipped = 0;  ///< already-received sources skipped
  int64_t recv_wire_bytes = 0;
  /// Service-billed bytes metered on the receive side (KV: bytes processed
  /// by blocking pops). 0 for queue/object (deliveries bill at send time).
  int64_t recv_billed_bytes = 0;
  int64_t recv_rows = 0;
  double recv_wait_s = 0.0;       ///< virtual time blocked receiving
  double deserialize_s = 0.0;

  // --- compute ---
  double compute_macs = 0.0;
  double compute_s = 0.0;
  /// Compute-offload primitive (Simulation::Offload): closures this layer
  /// submitted and the virtual seconds charged for them. Both are
  /// virtual-time facts — byte-identical for every SimTuning::
  /// compute_threads value (wall-clock pool counters live outside the
  /// metrics, in Simulation::offload_stats()).
  int64_t offload_calls = 0;
  double offload_virtual_s = 0.0;
  int64_t out_rows = 0;
  int64_t out_nnz = 0;
  double layer_wall_s = 0.0;      ///< virtual time spent in this layer

  // --- collectives (phases >= L; slots indexed by collective phase) ---
  /// Send/receive rounds this worker executed inside collective
  /// operations, and the virtual time they took. Through-root runs one
  /// round per op; binomial/ring topologies run O(log P) / O(P) shorter
  /// rounds — comm time PER ROUND is the topology comparison metric.
  int64_t collective_rounds = 0;
  double collective_round_s = 0.0;

  void Add(const LayerMetrics& other);
};

/// One worker's whole-run metrics.
struct WorkerMetrics {
  int32_t worker_id = 0;
  double start_time = 0.0;        ///< handler start (virtual)
  double end_time = 0.0;
  double model_load_s = 0.0;
  double launch_children_s = 0.0;
  bool cold_start = false;

  /// --- model-share load + partition cache (cross-query warm reuse) ---
  int64_t model_get_parts = 0;    ///< multipart GETs issued for the share
  int64_t model_bytes_read = 0;   ///< share bytes read from object storage
  int64_t model_gets_saved = 0;   ///< GETs skipped on a cache hit
  int64_t model_bytes_saved = 0;  ///< share bytes a cache hit skipped
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;    ///< entries this worker's insert evicted
  int64_t cache_invalidations = 0;  ///< stale-version entries dropped
  int64_t cache_oversize_rejects = 0;  ///< inserts rejected: share > budget

  /// --- λScale-style peer share distribution (cold-start attribution) ---
  /// Every cache miss resolves from exactly one source: object storage
  /// (share_loads_storage — it issued model_get_parts GETs) or a warm
  /// peer over the P2P fabric / its KV relay (share_loads_peer).
  /// prewarmed_hits counts cache hits whose entry a pre-warm task planted
  /// (first hit only) — the third cold-start source.
  int64_t share_loads_storage = 0;
  int64_t share_loads_peer = 0;
  int64_t prewarmed_hits = 0;
  /// Peer-transfer billing mirrors (quantities as metered by the ledger,
  /// so the cost model's share-transfer terms reconcile exactly): fresh
  /// punched links established for share pulls, chunks/bytes billed on
  /// the p2p byte dimension, and — for pairs whose punch failed — relay
  /// chunks with their KV request count and processed bytes.
  int64_t share_peer_connects = 0;
  int64_t share_peer_chunks = 0;
  int64_t share_peer_bytes = 0;
  int64_t share_relay_chunks = 0;
  int64_t share_relay_requests = 0;
  int64_t share_relay_bytes = 0;

  std::vector<LayerMetrics> layers;
  LayerMetrics totals;            ///< sum over layers

  LayerMetrics& Layer(int32_t k) {
    if (static_cast<size_t>(k) >= layers.size()) layers.resize(k + 1);
    return layers[static_cast<size_t>(k)];
  }
  void Finalize();
  double duration_s() const { return end_time - start_time; }
};

/// Aggregated run metrics across workers.
struct RunMetrics {
  std::vector<WorkerMetrics> workers;
  LayerMetrics totals;
  double mean_worker_s = 0.0;  ///< T-bar in the cost model
  double max_worker_s = 0.0;
  int64_t cold_starts = 0;     ///< worker invocations that paid a cold start

  /// This view's share of its worker tree's per-invocation costs: 1 for a
  /// whole run; a member of a cross-query-batched run carries its batch
  /// share (member cols / run cols) so per-query cost predictions bill the
  /// member its fraction of the P invocations — member predictions then sum
  /// to the whole tree's. Worker durations in a member view are already
  /// share-scaled, so only the per-invocation term needs this.
  double tree_share = 1.0;

  /// Model-share load + partition-cache totals across workers (model reads
  /// happen once per worker per run, outside the layer loop, so they are
  /// not part of the per-layer totals).
  int64_t model_get_parts = 0;
  int64_t model_bytes_read = 0;
  int64_t model_gets_saved = 0;
  int64_t model_bytes_saved = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  int64_t cache_oversize_rejects = 0;
  int64_t share_loads_storage = 0;
  int64_t share_loads_peer = 0;
  int64_t prewarmed_hits = 0;
  int64_t share_peer_connects = 0;
  int64_t share_peer_chunks = 0;
  int64_t share_peer_bytes = 0;
  int64_t share_relay_chunks = 0;
  int64_t share_relay_requests = 0;
  int64_t share_relay_bytes = 0;

  void Finalize();
  std::string Summary() const;
};

/// Nearest-rank percentile (pct in [0, 100]) over an unsorted sample;
/// returns 0 for an empty sample. Sorts a copy.
double Percentile(std::vector<double> values, double pct);

/// Bounded-memory quantile accumulator for serving-scale distributions.
///
/// Small samples stay exact: while count() <= the exact threshold the
/// sketch holds every value and Quantile() IS Percentile() — byte-identical
/// to the historical sort-based path, so sub-threshold workloads (every
/// unit test, most benches) see no change at all. Past the threshold the
/// exact buffer folds into a log-spaced histogram (growth kGrowth per
/// bucket) and memory is bounded by the bucket count — O(log(max/min)) —
/// instead of the sample count, which is what lets FleetStats absorb a
/// 10^6-query day without retaining 10^6 QuerySamples.
///
/// Accuracy contract once streaming: quantiles are reported as the
/// geometric midpoint of the rank's bucket, so the relative error is
/// bounded by sqrt(kGrowth) - 1 (~0.25% at the default growth, well inside
/// the documented 1%); Mean() and Max() stay exact, and non-positive
/// values (idle queue waits are exactly 0) are counted in a dedicated
/// bucket that reports 0 exactly.
class PercentileSketch {
 public:
  static constexpr size_t kDefaultExactThreshold = 4096;
  static constexpr double kGrowth = 1.005;

  explicit PercentileSketch(
      size_t exact_threshold = kDefaultExactThreshold)
      : exact_threshold_(exact_threshold) {}

  void Add(double v);
  /// Nearest-rank percentile (pct in [0, 100]) of everything Add()ed.
  double Quantile(double pct) const;
  double Mean() const;
  double Max() const;
  int64_t count() const { return count_; }
  bool streaming() const { return streaming_; }
  /// Peak-memory proxy: exact samples still held plus histogram buckets.
  /// Bounded by exact_threshold + O(log(max/min) / log(kGrowth)) however
  /// many values were Add()ed.
  size_t resident_samples() const {
    return exact_.size() + buckets_.size() + (nonpositive_ > 0 ? 1 : 0);
  }

 private:
  int32_t BucketIndex(double v) const;
  void AddToBuckets(double v);
  void FoldIntoBuckets();

  size_t exact_threshold_;
  bool streaming_ = false;
  std::vector<double> exact_;
  std::map<int32_t, int64_t> buckets_;  ///< log-spaced, index -> count
  int64_t nonpositive_ = 0;             ///< values <= 0 (reported as 0)
  int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  double min_positive_ = 0.0;  ///< smallest positive value seen
};

/// Fleet-level aggregation over a serving workload: the SLO-facing view
/// (tail latency, throughput, cold-start ratio, projected daily cost) of
/// many queries sharing one cloud deployment.
struct FleetStats {
  int32_t queries = 0;  ///< total submissions
  /// Mutually exclusive terminal partition over submissions:
  ///   completed + failed + rejected + shed == queries,
  /// where `failed` keeps its historical umbrella meaning "terminal without
  /// a successful report" and is itself partitioned into execution
  /// failures (failed - aborted - still_in_flight), aborts, and queries a
  /// horizon-bounded Drain() cut off. Rejected/shed queries never launched
  /// a tree and appear in NO latency/queue-wait/occupancy aggregate.
  int32_t completed = 0;
  int32_t failed = 0;
  int32_t aborted = 0;          ///< subset of failed: AbortAll / kill path
  int32_t still_in_flight = 0;  ///< subset of failed: horizon-cut drains
  int32_t rejected = 0;         ///< admission refused (typed, counted here)
  int32_t shed = 0;             ///< dropped from the queue under overload
  double makespan_s = 0.0;        ///< first arrival -> last completion
  double throughput_qps = 0.0;    ///< completed queries / makespan
  /// Completed queries that met their deadline (deadline-free queries
  /// count as met) / makespan: the SLO-facing throughput.
  double goodput_qps = 0.0;

  // SLO attainment (acceptance deadline accounting; reconciles exactly
  // with per-query outcomes: deadline_hits == completed deadline-carrying
  // queries whose finish time was <= their absolute deadline).
  int32_t deadline_queries = 0;  ///< completed queries carrying a deadline
  int32_t deadline_hits = 0;
  double slo_attainment = 0.0;   ///< hits / deadline_queries (1.0 if none)

  /// Live EWMA of the serving runtime's observed service rate at Drain
  /// time (what admission control saw); 0 when no runs completed.
  double ewma_service_rate_qps = 0.0;

  // Per-query end-to-end latency distribution (completed queries only).
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;

  /// Latency percentiles per priority class (ascending priority), over
  /// completed queries of that class.
  struct ClassLatency {
    int32_t priority = 0;
    int32_t completed = 0;
    double latency_p50_s = 0.0;
    double latency_p95_s = 0.0;
  };
  std::vector<ClassLatency> class_latency;

  /// Per-tenant disposition partition and completed-latency percentiles
  /// (ascending tenant id), filled by Finalize(). Each tenant's row obeys
  /// the same identity as the fleet totals — completed + failed +
  /// rejected + shed == queries — so a multi-tenant replay can assert
  /// quota enforcement tenant by tenant. Workloads that never set a
  /// tenant id report a single tenant-0 row.
  struct TenantStats {
    int32_t tenant = 0;
    int32_t queries = 0;
    int32_t completed = 0;
    int32_t failed = 0;
    int32_t rejected = 0;
    int32_t shed = 0;
    double latency_p50_s = 0.0;
    double latency_p95_s = 0.0;
  };
  std::vector<TenantStats> tenant_stats;

  // FaaS instance reuse across the workload.
  int64_t worker_invocations = 0;
  int64_t cold_starts = 0;
  double cold_start_ratio = 0.0;  ///< cold / worker invocations

  // Cross-query batching: worker trees launched and how full they ran.
  // Without batching every query is its own run, so runs == completed
  // queries and occupancy is 1.
  int32_t runs = 0;                  ///< shared worker trees launched
  int32_t batched_queries = 0;       ///< queries that shared a tree (>1 peer)
  double batch_occupancy_mean = 0.0; ///< queries per tree
  int32_t batch_occupancy_max = 0;

  // Queue wait (submission -> the serving tree actually launching): the
  // price of the coalescing window, included in every per-query latency.
  double queue_wait_mean_s = 0.0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p95_s = 0.0;
  double queue_wait_max_s = 0.0;

  // Direct-channel link health and collective shape across completed
  // queries: how many NAT-punched links the fleet established, how many
  // payload values had to fall back to the KV relay, and the collective
  // rounds executed with their mean per-round comm time (the
  // topology-comparison metric).
  int64_t direct_connects = 0;
  int64_t punch_failures = 0;
  int64_t relay_fallbacks = 0;
  int64_t collective_rounds = 0;
  double collective_round_mean_s = 0.0;

  /// Compute-offload closures submitted by completed queries and the
  /// virtual seconds charged for them. Virtual-time facts: byte-identical
  /// across every SimTuning::compute_threads value (the wall-clock pool
  /// counters live in Simulation::offload_stats(), deliberately outside
  /// this summary's byte-identity surface).
  int64_t offload_calls = 0;
  double offload_virtual_s = 0.0;

  // Cross-query partition cache (model-share warm reuse).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  int64_t cache_oversize_rejects = 0;  ///< shares too big to ever cache
  double cache_hit_ratio = 0.0;    ///< hits / (hits + misses)
  int64_t model_gets_saved = 0;    ///< object GETs the cache avoided
  int64_t model_bytes_saved = 0;   ///< share bytes the cache avoided

  // λScale-style peer share distribution: where the fleet's cold loads
  // came from (storage read / peer transfer / pre-warmed entry), and the
  // bytes the peer path billed on the fabric vs. its KV relay.
  int64_t share_loads_storage = 0;
  int64_t share_loads_peer = 0;
  int64_t prewarmed_hits = 0;
  int64_t share_peer_bytes = 0;
  int64_t share_relay_bytes = 0;

  // Predictive pre-warming control loop (runs outside any query's tree;
  // its billing is workload-level, never query-attributed). The
  // share-transfer mirrors carry the ledger quantities the pre-warm loads
  // moved, so workload-level cost reconciliation can account for them.
  int32_t prewarm_invocations = 0;       ///< worker fn calls the policy fired
  int64_t prewarm_storage_parts = 0;     ///< object GETs pre-warm loads paid
  int64_t prewarm_storage_bytes = 0;
  int64_t prewarm_peer_connects = 0;
  int64_t prewarm_peer_bytes = 0;
  int64_t prewarm_relay_requests = 0;
  int64_t prewarm_relay_bytes = 0;
  /// Dollars charged against the pre-warm budget: the billed charge of
  /// every landed pre-warm (invocation, MB-seconds, GETs, transfers) plus
  /// the committed estimate of any still in flight.
  double prewarm_budget_spent = 0.0;
  double prewarm_committed_dollars = 0.0;  ///< estimates committed at fire

  // Dollars (filled from the workload's billing-ledger delta).
  double total_cost = 0.0;
  double cost_per_query = 0.0;
  double daily_cost = 0.0;        ///< total_cost extrapolated to 24 h

  /// One query's contribution to the fleet aggregates: its timeline, its
  /// terminal disposition and its SLO class. `deadline_s` is the absolute
  /// deadline (+infinity when the query carried none).
  struct QuerySample {
    double arrival_s = 0.0;
    double finish_s = 0.0;
    double latency_s = 0.0;
    double queue_wait_s = 0.0;  ///< submission -> tree launch (0 unbatched)
    QueryDisposition disposition = QueryDisposition::kCompleted;
    int32_t priority = 0;
    int32_t tenant = 0;       ///< tenant id (0 = the default tenant)
    double deadline_s = 0.0;  ///< absolute; set to +inf for "none"
  };

  /// Accumulates one terminal (or horizon-cut) query; callers then call
  /// Finalize once. `metrics` may be a whole run's or a batched member's
  /// sliced view — member slices sum exactly to run totals, so fleet cache
  /// counters stay exact either way. Only completed queries enter the
  /// latency/queue-wait distributions and cache totals; every disposition
  /// lands in exactly one partition counter.
  void AddQuery(const QuerySample& sample, const RunMetrics& metrics);
  /// Accumulates one completed worker tree (a run serving `member_queries`
  /// coalesced queries — 1 without batching). Invocations and cold starts
  /// are per-tree facts, not per-query facts, so they are counted here.
  void AddRun(int32_t member_queries, int64_t worker_invocations,
              int64_t cold_starts, bool ok);
  /// Computes the distribution/ratio/throughput fields; `total_cost` must
  /// already be set for the dollar fields.
  void Finalize();
  std::string Summary() const;

  /// Lowers the per-distribution exact threshold (tests exercise the
  /// streaming path without 4096+ queries). Must be called before the
  /// first AddQuery — it resets the accumulated distributions.
  void set_streaming_threshold(size_t threshold);
  /// Peak resident distribution samples across every internal sketch —
  /// the bounded-aggregation guarantee a long replay is tested against.
  size_t resident_samples() const;

 private:
  size_t streaming_threshold_ = PercentileSketch::kDefaultExactThreshold;
  PercentileSketch latencies_;
  PercentileSketch queue_waits_;
  double collective_round_s_total_ = 0.0;
  std::map<int32_t, PercentileSketch> class_latencies_;  ///< by priority
  struct TenantAcc {
    explicit TenantAcc(size_t threshold) : latencies(threshold) {}
    int32_t queries = 0;
    int32_t completed = 0;
    int32_t failed = 0;
    int32_t rejected = 0;
    int32_t shed = 0;
    PercentileSketch latencies;
  };
  std::map<int32_t, TenantAcc> tenant_acc_;  ///< by tenant id
  int32_t deadline_misses_ = 0;
  double first_arrival_s_ = 0.0;
  double last_finish_s_ = 0.0;
};

}  // namespace fsd::core

#endif  // FSD_CORE_METRICS_H_
