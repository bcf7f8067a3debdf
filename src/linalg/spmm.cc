#include "linalg/spmm.h"

#include <algorithm>
#include <atomic>
#include <vector>

#if FSD_LINALG_HAS_SIMD
#include <immintrin.h>
#endif

namespace fsd::linalg {
namespace {

std::atomic<ForwardKernel> g_kernel{ForwardKernel::kAuto};

/// Scatter-accumulates one input row into the batch accumulator and records
/// first-touched positions. The two passes are split so the multiply-add
/// stream is branch-free (the compiler can keep it in registers / vector
/// units) while the touched-tracking pass carries the branches.
///
/// Positions within one input row are distinct (idx is strictly increasing),
/// so each acc slot receives at most one add per call — any vectorization
/// across j preserves the exact per-slot FP accumulation order.
using AccumulateFn = void (*)(const SparseVector& x, float weight, float* acc,
                              uint32_t* stamp, uint32_t epoch,
                              std::vector<int32_t>& touched);

void AccumulatePortable(const SparseVector& x, float weight, float* acc,
                        uint32_t* stamp, uint32_t epoch,
                        std::vector<int32_t>& touched) {
  const int32_t* idx = x.idx.data();
  const float* val = x.val.data();
  const size_t n = x.idx.size();
  for (size_t j = 0; j < n; ++j) acc[idx[j]] += weight * val[j];
  for (size_t j = 0; j < n; ++j) {
    const int32_t pos = idx[j];
    if (stamp[pos] != epoch) {
      stamp[pos] = epoch;
      touched.push_back(pos);
    }
  }
}

#if FSD_LINALG_HAS_SIMD
__attribute__((target("avx2"))) void AccumulateAvx2(
    const SparseVector& x, float weight, float* acc, uint32_t* stamp,
    uint32_t epoch, std::vector<int32_t>& touched) {
  const int32_t* idx = x.idx.data();
  const float* val = x.val.data();
  const size_t n = x.idx.size();
  size_t j = 0;
  // Contiguous index runs (dense rows, and the dense segments blob-shaped
  // inputs produce) take the packed path: 8 independent slots per op.
  // Explicit mul-then-add — never _mm256_fmadd_ps — keeps every slot's
  // value bit-identical to the scalar `acc[p] += weight * val[j]`.
  if (n >= 8 && static_cast<size_t>(idx[n - 1] - idx[0]) + 1 == n) {
    float* dst = acc + idx[0];
    const __m256 w = _mm256_set1_ps(weight);
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_loadu_ps(val + j);
      const __m256 a = _mm256_loadu_ps(dst + j);
      _mm256_storeu_ps(dst + j, _mm256_add_ps(a, _mm256_mul_ps(w, v)));
    }
  }
  for (; j < n; ++j) acc[idx[j]] += weight * val[j];
  for (size_t k = 0; k < n; ++k) {
    const int32_t pos = idx[k];
    if (stamp[pos] != epoch) {
      stamp[pos] = epoch;
      touched.push_back(pos);
    }
  }
}

bool Avx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif  // FSD_LINALG_HAS_SIMD

AccumulateFn ResolveAccumulate() {
#if FSD_LINALG_HAS_SIMD
  const ForwardKernel k = g_kernel.load(std::memory_order_relaxed);
  if (k != ForwardKernel::kPortable && Avx2Supported()) return AccumulateAvx2;
#endif
  return AccumulatePortable;
}

/// Per-thread kernel scratch: the dense accumulator panel, the epoch-stamp
/// array and the touched list. thread_local ownership makes concurrent
/// LayerForward calls (offloaded worker kernels overlapping on a compute
/// pool) race-free by construction, and reusing the panel across calls on
/// the same thread drops the per-call allocation cost.
///
/// Invariants carried across calls: `acc` is all-zero between calls (the
/// row loop resets every touched slot as it emits the row), and every
/// stamp satisfies stamp[pos] != epoch+1 at entry (stamps only ever hold
/// past epochs; the wrap branch refills on overflow), so reuse cannot
/// change results.
struct KernelScratch {
  std::vector<float> acc;
  std::vector<uint32_t> stamp;
  std::vector<int32_t> touched;
  uint32_t epoch = 0;

  void Prepare(size_t batch) {
    if (acc.size() < batch) {
      acc.resize(batch, 0.0f);
      stamp.resize(batch, 0u);  // 0 is never a live epoch (see wrap branch)
    }
    touched.reserve(batch);
  }
};

KernelScratch& ThreadScratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

/// Shared kernel core. RowSource provides the row iteration:
///   size_t size() const;
///   int32_t cols() const;
///   int32_t GlobalId(size_t local) const;
///   template <typename Fn> void ForEach(size_t local, Fn fn) const;
template <typename RowSource>
ActivationMap LayerForwardImpl(const RowSource& source,
                               const RowProvider& provider, float bias,
                               float relu_cap, int32_t batch,
                               LayerForwardStats* stats) {
  ActivationMap out;
  // Epoch stamps replace the old `acc[pos] == 0.0f` probe: a position is
  // first-touched iff its stamp lags the row epoch, so the touched list is
  // duplicate-free even when sums cancel to exactly zero mid-row. The
  // panels live in per-thread scratch (see KernelScratch).
  KernelScratch& scratch = ThreadScratch();
  scratch.Prepare(static_cast<size_t>(batch));
  float* const acc = scratch.acc.data();
  uint32_t* const stamp = scratch.stamp.data();
  std::vector<int32_t>& touched = scratch.touched;
  uint32_t& epoch = scratch.epoch;
  // Provider results are memoized per call: every provider is a pure lookup
  // into this layer's input activations, and W's columns repeat across the
  // row block, so the std::function + map-find cost is paid once per
  // distinct column instead of once per weight nonzero.
  const size_t cols = static_cast<size_t>(std::max<int32_t>(source.cols(), 0));
  std::vector<const SparseVector*> memo(cols, nullptr);
  std::vector<uint8_t> memo_known(cols, 0);
  const AccumulateFn accumulate = ResolveAccumulate();
  double macs = 0.0;
  int64_t output_nnz = 0;
  // Each row is built in this hoisted scratch, whose capacity carries
  // across rows, and emplaced as an exact-capacity copy: ReLU and
  // cancellation drop touched positions, so a row reserved for
  // touched.size() would keep the dropped slots allocated for as long as
  // the activation map lives.
  SparseVector row;

  for (size_t local = 0; local < source.size(); ++local) {
    if (++epoch == 0) {  // wrapped: stale stamps could alias, restart
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
      epoch = 1;
    }
    // Sparse accumulation: only positions touched by some input row are
    // visited, so fully-inactive output rows cost nothing to scan.
    touched.clear();
    source.ForEach(local, [&](int32_t col, float weight) {
      const SparseVector* x;
      if (memo_known[col]) {
        x = memo[col];
      } else {
        x = provider(col);
        memo[col] = x;
        memo_known[col] = 1;
      }
      if (x == nullptr || x->empty()) return;
      macs += static_cast<double>(x->nnz());
      accumulate(*x, weight, acc, stamp, epoch, touched);
    });
    if (touched.empty()) continue;
    std::sort(touched.begin(), touched.end());

    // Untouched positions evaluate to ReLU(bias); with the benchmark's
    // non-positive biases that is exactly 0, so skipping them is correct
    // (callers must not rely on positive biases activating silent rows).
    row.idx.clear();
    row.val.clear();
    for (int32_t pos : touched) {
      float v = acc[pos] + bias;
      acc[pos] = 0.0f;  // reset for the next output row
      if (relu_cap > 0.0f) {
        if (v <= 0.0f) continue;
        if (v > relu_cap) v = relu_cap;
      } else if (v == 0.0f) {
        continue;
      }
      row.idx.push_back(pos);
      row.val.push_back(v);
    }
    if (!row.empty()) {
      output_nnz += static_cast<int64_t>(row.nnz());
      out.emplace(source.GlobalId(local),
                  SparseVector{batch, row.idx, row.val});
    }
  }

  if (stats != nullptr) {
    stats->macs = macs;
    stats->rows_produced = static_cast<int64_t>(out.size());
    stats->output_nnz = output_nnz;
  }
  return out;
}

/// Replays LayerForwardImpl's provider walk — same iteration order, same
/// memoization, same `macs +=` accumulation — without touching the
/// accumulator panels, so the returned count matches stats->macs of the
/// corresponding kernel call bit-for-bit.
template <typename RowSource>
double CountMacsImpl(const RowSource& source, const RowProvider& provider) {
  const size_t cols = static_cast<size_t>(std::max<int32_t>(source.cols(), 0));
  std::vector<const SparseVector*> memo(cols, nullptr);
  std::vector<uint8_t> memo_known(cols, 0);
  double macs = 0.0;
  for (size_t local = 0; local < source.size(); ++local) {
    source.ForEach(local, [&](int32_t col, float /*weight*/) {
      const SparseVector* x;
      if (memo_known[col]) {
        x = memo[col];
      } else {
        x = provider(col);
        memo[col] = x;
        memo_known[col] = 1;
      }
      if (x == nullptr || x->empty()) return;
      macs += static_cast<double>(x->nnz());
    });
  }
  return macs;
}

struct BlockSource {
  const RowBlock& block;
  size_t size() const { return block.num_rows(); }
  int32_t cols() const { return block.cols; }
  int32_t GlobalId(size_t local) const { return block.row_ids[local]; }
  template <typename Fn>
  void ForEach(size_t local, Fn fn) const {
    block.ForEachInRow(local, fn);
  }
};

struct SubsetSource {
  const CsrMatrix& weights;
  const std::vector<int32_t>& rows;
  size_t size() const { return rows.size(); }
  int32_t cols() const { return weights.cols(); }
  int32_t GlobalId(size_t local) const { return rows[local]; }
  template <typename Fn>
  void ForEach(size_t local, Fn fn) const {
    weights.ForEachInRow(rows[local], fn);
  }
};

struct AllSource {
  const CsrMatrix& weights;
  size_t size() const { return static_cast<size_t>(weights.rows()); }
  int32_t cols() const { return weights.cols(); }
  int32_t GlobalId(size_t local) const { return static_cast<int32_t>(local); }
  template <typename Fn>
  void ForEach(size_t local, Fn fn) const {
    weights.ForEachInRow(static_cast<int32_t>(local), fn);
  }
};

}  // namespace

void SetLayerForwardKernel(ForwardKernel kernel) {
  g_kernel.store(kernel, std::memory_order_relaxed);
}

ForwardKernel GetLayerForwardKernel() {
  return g_kernel.load(std::memory_order_relaxed);
}

bool LayerForwardVectorizedAvailable() {
#if FSD_LINALG_HAS_SIMD
  return Avx2Supported();
#else
  return false;
#endif
}

const char* LayerForwardKernelName() {
  return ResolveAccumulate() == AccumulatePortable ? "portable" : "avx2";
}

ActivationMap LayerForward(const RowBlock& block, const RowProvider& provider,
                           float bias, float relu_cap, int32_t batch,
                           LayerForwardStats* stats) {
  return LayerForwardImpl(BlockSource{block}, provider, bias, relu_cap, batch,
                          stats);
}

ActivationMap LayerForward(const CsrMatrix& weights,
                           const std::vector<int32_t>& rows,
                           const RowProvider& provider, float bias,
                           float relu_cap, int32_t batch,
                           LayerForwardStats* stats) {
  return LayerForwardImpl(SubsetSource{weights, rows}, provider, bias,
                          relu_cap, batch, stats);
}

double CountLayerMacs(const CsrMatrix& weights,
                      const std::vector<int32_t>& rows,
                      const RowProvider& provider) {
  return CountMacsImpl(SubsetSource{weights, rows}, provider);
}

ActivationMap LayerForwardAll(const CsrMatrix& weights,
                              const RowProvider& provider, float bias,
                              float relu_cap, int32_t batch,
                              LayerForwardStats* stats) {
  return LayerForwardImpl(AllSource{weights}, provider, bias, relu_cap, batch,
                          stats);
}

}  // namespace fsd::linalg
