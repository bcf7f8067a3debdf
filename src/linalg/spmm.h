// Distributed-inference compute kernel: one layer of sparse forward
// propagation over a row block.
//
// This single kernel is shared by the serial reference engine, the server
// baselines and every FSD-Inference worker, so distributed results can be
// compared bit-for-bit against the reference.
//
// Thread safety: the kernel's dense accumulator panel and epoch-stamped
// touched tracking live in thread_local scratch, so concurrent
// LayerForward calls from different threads (the sim's compute-offload
// pool) are race-free and produce results identical to serial calls.
#ifndef FSD_LINALG_SPMM_H_
#define FSD_LINALG_SPMM_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/check.h"
#include "linalg/csr.h"
#include "linalg/sparse_vector.h"

/// The vectorized kernel is compiled only where AVX2 intrinsics exist and
/// selected at runtime via cpuid, so one binary runs everywhere. Sanitized
/// builds fall back to the portable kernel (mirrors FSD_SIM_HAS_FIBERS:
/// keep the sanitizer jobs exercising the path every machine can take).
/// Define FSD_NO_SIMD to force the portable kernel on any build.
#if defined(FSD_NO_SIMD) || FSD_SANITIZED || !defined(__x86_64__)
#define FSD_LINALG_HAS_SIMD 0
#else
#define FSD_LINALG_HAS_SIMD 1
#endif

namespace fsd::linalg {

/// Activations of one layer: neuron-row id -> sparse row over the batch.
/// Ordered map for deterministic iteration (payload bytes must be stable).
using ActivationMap = std::map<int32_t, SparseVector>;

/// Returns the activation row for a global neuron id, or nullptr when the
/// row is entirely zero (inactive neuron).
using RowProvider = std::function<const SparseVector*(int32_t)>;

struct LayerForwardStats {
  double macs = 0.0;          ///< multiply-accumulate operations executed
  int64_t rows_produced = 0;  ///< nonzero output rows
  int64_t output_nnz = 0;     ///< total nonzeros in output rows
};

/// Kernel selection for LayerForward. Both kernels produce byte-identical
/// ActivationMaps and LayerForwardStats: the vectorized path only changes
/// how per-position sums are scheduled, never their accumulation order.
enum class ForwardKernel {
  kAuto,        ///< vectorized when compiled in and the CPU supports it
  kPortable,    ///< scalar baseline, always built
  kVectorized,  ///< AVX2 path; silently falls back when unavailable
};

/// Overrides the process-wide kernel choice (tests/benches; thread-safe).
void SetLayerForwardKernel(ForwardKernel kernel);
ForwardKernel GetLayerForwardKernel();

/// True when the AVX2 kernel is compiled in and this CPU can run it.
bool LayerForwardVectorizedAvailable();

/// Name of the kernel LayerForward would execute right now:
/// "portable" or "avx2".
const char* LayerForwardKernelName();

/// Computes  z = ReLU_clamped(W_block * X + bias)  for the rows in `block`.
///
/// X is presented through `provider` over `block.cols` global columns; each
/// provided row is a SparseVector of width `batch`. Output rows that are
/// entirely zero after activation are omitted (the Graph Challenge's
/// thresholded-ReLU keeps activations sparse). `relu_cap` clamps values
/// (32 in the benchmark); pass 0 to disable the final activation (used by
/// the output layer of generic models).
ActivationMap LayerForward(const RowBlock& block, const RowProvider& provider,
                           float bias, float relu_cap, int32_t batch,
                           LayerForwardStats* stats = nullptr);

/// Zero-copy variant: computes the same result for the subset `rows` of
/// `weights` without extracting a RowBlock (workers iterate their partition
/// of the shared model directly). `rows` must be sorted and in range.
ActivationMap LayerForward(const CsrMatrix& weights,
                           const std::vector<int32_t>& rows,
                           const RowProvider& provider, float bias,
                           float relu_cap, int32_t batch,
                           LayerForwardStats* stats = nullptr);

/// Exact MAC count the subset LayerForward above would report in
/// stats->macs, computed by replaying the kernel's provider walk without
/// running the accumulation. The compute-offload path uses this to price a
/// kernel's virtual time BEFORE submitting the kernel itself to the pool.
/// Bit-identical to the kernel's count (same iteration order; all addends
/// are integer-valued doubles).
double CountLayerMacs(const CsrMatrix& weights,
                      const std::vector<int32_t>& rows,
                      const RowProvider& provider);

/// Zero-copy variant over every row of `weights` (serial reference).
ActivationMap LayerForwardAll(const CsrMatrix& weights,
                              const RowProvider& provider, float bias,
                              float relu_cap, int32_t batch,
                              LayerForwardStats* stats = nullptr);

/// FLOPs estimate for a LayerForward call (2 per MAC, plus activation).
inline double LayerFlops(const LayerForwardStats& stats) {
  return 2.0 * stats.macs + static_cast<double>(stats.output_nnz);
}

}  // namespace fsd::linalg

#endif  // FSD_LINALG_SPMM_H_
