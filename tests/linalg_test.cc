#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "linalg/csr.h"
#include "linalg/spmm.h"

namespace fsd::linalg {
namespace {

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 4, {{2, 1, 1.0f}, {0, 3, 2.0f}, {0, 3, 3.0f}, {1, 0, -1.0f}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 3);  // duplicate (0,3) merged
  EXPECT_EQ(m.RowNnz(0), 1);
  std::vector<float> dense = m.ToDense();
  EXPECT_EQ(dense[0 * 4 + 3], 5.0f);
  EXPECT_EQ(dense[1 * 4 + 0], -1.0f);
  EXPECT_EQ(dense[2 * 4 + 1], 1.0f);
}

TEST(Csr, CancellingDuplicatesDropped) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(1, 2, {{0, 1, 2.0f}, {0, 1, -2.0f}});
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Csr, RowBlockExtract) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      4, 4, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 2, 3.0f}, {3, 3, 4.0f}});
  RowBlock block = RowBlock::Extract(m, {1, 3});
  EXPECT_EQ(block.num_rows(), 2u);
  EXPECT_EQ(block.nnz(), 2);
  EXPECT_EQ(block.row_ids[0], 1);
  int32_t seen_col = -1;
  block.ForEachInRow(1, [&](int32_t c, float v) {
    seen_col = c;
    EXPECT_EQ(v, 4.0f);
  });
  EXPECT_EQ(seen_col, 3);
}

TEST(SparseVector, FromDenseAndAxpy) {
  const float dense[] = {0.0f, 1.5f, 0.0f, -2.0f};
  SparseVector v = SparseVector::FromDense(dense, 4);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.idx, (std::vector<int32_t>{1, 3}));
  float acc[4] = {0, 0, 0, 0};
  v.AxpyInto(2.0f, acc);
  EXPECT_EQ(acc[1], 3.0f);
  EXPECT_EQ(acc[3], -4.0f);
}

// ---------------------------------------------------------------------------
// LayerForward vs a dense reference implementation (property test).
// ---------------------------------------------------------------------------

struct DenseRef {
  // Computes relu_cap(min(relu(W x + b))) densely.
  static std::vector<float> Forward(const CsrMatrix& w,
                                    const std::vector<float>& x_dense,
                                    int32_t batch, float bias,
                                    float relu_cap) {
    std::vector<float> out(static_cast<size_t>(w.rows()) * batch, 0.0f);
    for (int32_t i = 0; i < w.rows(); ++i) {
      std::vector<float> acc(batch, 0.0f);
      bool touched = false;
      w.ForEachInRow(i, [&](int32_t j, float weight) {
        for (int32_t s = 0; s < batch; ++s) {
          const float xv = x_dense[static_cast<size_t>(j) * batch + s];
          if (xv != 0.0f) {
            acc[s] += weight * xv;
            touched = true;
          }
        }
      });
      if (!touched) continue;  // matches the sparse kernel's skip
      for (int32_t s = 0; s < batch; ++s) {
        if (acc[s] == 0.0f) continue;  // untouched position stays zero
        float v = acc[s] + bias;
        if (relu_cap > 0.0f) {
          v = std::max(0.0f, std::min(relu_cap, v));
        }
        out[static_cast<size_t>(i) * batch + s] = v;
      }
    }
    return out;
  }
};

class LayerForwardProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(LayerForwardProperty, MatchesDenseReference) {
  auto [n, batch, nnz_per_row, density] = GetParam();
  Rng rng(n * 1000 + batch);
  std::vector<Triplet> triplets;
  for (int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < nnz_per_row; ++k) {
      triplets.push_back(
          {i, static_cast<int32_t>(rng.NextBounded(n)),
           static_cast<float>(rng.NextUniform(-0.5, 1.0))});
    }
  }
  const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);

  // Random sparse input.
  ActivationMap x;
  std::vector<float> x_dense(static_cast<size_t>(n) * batch, 0.0f);
  for (int32_t j = 0; j < n; ++j) {
    SparseVector row;
    row.dim = batch;
    for (int32_t s = 0; s < batch; ++s) {
      if (rng.NextBool(density)) {
        const float v = static_cast<float>(rng.NextUniform(0.1, 2.0));
        row.idx.push_back(s);
        row.val.push_back(v);
        x_dense[static_cast<size_t>(j) * batch + s] = v;
      }
    }
    if (!row.empty()) x.emplace(j, std::move(row));
  }

  const float bias = -0.25f;
  const float cap = 4.0f;
  LayerForwardStats stats;
  ActivationMap out = LayerForwardAll(
      w,
      [&x](int32_t row) -> const SparseVector* {
        auto it = x.find(row);
        return it == x.end() ? nullptr : &it->second;
      },
      bias, cap, batch, &stats);

  const std::vector<float> expected =
      DenseRef::Forward(w, x_dense, batch, bias, cap);
  // Compare element-wise (tolerance: accumulation order differs).
  int64_t nnz_seen = 0;
  for (int32_t i = 0; i < n; ++i) {
    const SparseVector* row = nullptr;
    auto it = out.find(i);
    if (it != out.end()) row = &it->second;
    for (int32_t s = 0; s < batch; ++s) {
      const float want = expected[static_cast<size_t>(i) * batch + s];
      float got = 0.0f;
      if (row != nullptr) {
        auto pos = std::lower_bound(row->idx.begin(), row->idx.end(), s);
        if (pos != row->idx.end() && *pos == s) {
          got = row->val[pos - row->idx.begin()];
        }
      }
      ASSERT_NEAR(want, got, 1e-4) << "row " << i << " sample " << s;
      if (got != 0.0f) ++nnz_seen;
    }
  }
  EXPECT_EQ(stats.output_nnz, nnz_seen);
  EXPECT_GT(stats.macs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayerForwardProperty,
    ::testing::Values(std::make_tuple(16, 4, 3, 0.5),
                      std::make_tuple(64, 8, 8, 0.3),
                      std::make_tuple(128, 16, 16, 0.15),
                      std::make_tuple(256, 5, 32, 0.05),
                      std::make_tuple(32, 32, 4, 0.9)));

TEST(LayerForward, SubsetMatchesUnion) {
  // Computing rows {evens} and {odds} separately must equal all rows.
  Rng rng(99);
  std::vector<Triplet> triplets;
  const int32_t n = 64;
  for (int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < 6; ++k) {
      triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(n)),
                          static_cast<float>(rng.NextUniform(0.0, 1.0))});
    }
  }
  const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);
  ActivationMap x;
  for (int32_t j = 0; j < n; j += 2) {
    SparseVector row;
    row.dim = 4;
    row.idx = {0, 2};
    row.val = {1.0f, 0.5f};
    x.emplace(j, row);
  }
  auto provider = [&x](int32_t row) -> const SparseVector* {
    auto it = x.find(row);
    return it == x.end() ? nullptr : &it->second;
  };
  ActivationMap all = LayerForwardAll(w, provider, -0.1f, 32.0f, 4);
  std::vector<int32_t> evens, odds;
  for (int32_t i = 0; i < n; ++i) ((i % 2 == 0) ? evens : odds).push_back(i);
  ActivationMap even_out = LayerForward(w, evens, provider, -0.1f, 32.0f, 4);
  ActivationMap odd_out = LayerForward(w, odds, provider, -0.1f, 32.0f, 4);
  ActivationMap merged = even_out;
  for (auto& [k, v] : odd_out) merged.emplace(k, v);
  EXPECT_EQ(all.size(), merged.size());
  for (const auto& [row, vec] : all) {
    ASSERT_TRUE(merged.contains(row));
    EXPECT_EQ(vec, merged.at(row)) << row;
  }
}

TEST(LayerForward, ReluClampAndThreshold) {
  // Single weight of 10 on an input of 10 -> 100, clamped to 32.
  const CsrMatrix w = CsrMatrix::FromTriplets(2, 1, {{0, 0, 10.0f},
                                                     {1, 0, -1.0f}});
  ActivationMap x;
  SparseVector row;
  row.dim = 1;
  row.idx = {0};
  row.val = {10.0f};
  x.emplace(0, row);
  ActivationMap out = LayerForwardAll(
      w,
      [&x](int32_t r) -> const SparseVector* {
        auto it = x.find(r);
        return it == x.end() ? nullptr : &it->second;
      },
      0.0f, 32.0f, 1);
  ASSERT_EQ(out.size(), 1u);                 // negative row ReLU'd away
  EXPECT_EQ(out.at(0).val[0], 32.0f);        // clamped
}

TEST(LayerForward, KernelsProduceByteIdenticalOutputs) {
  // The vectorized kernel must match the portable one bit-for-bit — same
  // ActivationMap bytes, same stats — across randomized layers. Where the
  // AVX2 path is compiled out or the CPU lacks it, both runs take the
  // portable kernel and the comparison is trivially exact.
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const int32_t n = 32 + static_cast<int32_t>(rng.NextBounded(200));
    const int32_t batch = 1 + static_cast<int32_t>(rng.NextBounded(40));
    const int nnz_per_row = 1 + static_cast<int>(rng.NextBounded(24));
    std::vector<Triplet> triplets;
    for (int32_t i = 0; i < n; ++i) {
      for (int k = 0; k < nnz_per_row; ++k) {
        triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(n)),
                            static_cast<float>(rng.NextUniform(-1.0, 1.0))});
      }
    }
    const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);

    ActivationMap x;
    for (int32_t j = 0; j < n; ++j) {
      SparseVector row;
      row.dim = batch;
      // Mix of contiguous runs (the AVX2 fast path) and scattered samples.
      const bool contiguous = rng.NextBool(0.5);
      for (int32_t s = 0; s < batch; ++s) {
        if (contiguous ? s < batch / 2 : rng.NextBool(0.3)) {
          row.idx.push_back(s);
          row.val.push_back(static_cast<float>(rng.NextUniform(-2.0, 2.0)));
        }
      }
      if (!row.empty()) x.emplace(j, std::move(row));
    }
    auto provider = [&x](int32_t row) -> const SparseVector* {
      auto it = x.find(row);
      return it == x.end() ? nullptr : &it->second;
    };

    SetLayerForwardKernel(ForwardKernel::kPortable);
    LayerForwardStats portable_stats;
    const ActivationMap portable =
        LayerForwardAll(w, provider, -0.2f, 8.0f, batch, &portable_stats);

    SetLayerForwardKernel(ForwardKernel::kVectorized);
    LayerForwardStats vector_stats;
    const ActivationMap vectorized =
        LayerForwardAll(w, provider, -0.2f, 8.0f, batch, &vector_stats);
    SetLayerForwardKernel(ForwardKernel::kAuto);

    ASSERT_EQ(portable.size(), vectorized.size()) << "trial " << trial;
    for (const auto& [row, vec] : portable) {
      ASSERT_TRUE(vectorized.contains(row)) << "trial " << trial;
      const SparseVector& other = vectorized.at(row);
      ASSERT_EQ(vec.idx, other.idx) << "trial " << trial << " row " << row;
      ASSERT_EQ(vec.dim, other.dim) << "trial " << trial << " row " << row;
      for (size_t p = 0; p < vec.val.size(); ++p) {
        // Bit-level comparison: 0.0f == -0.0f would hide a sign flip.
        ASSERT_EQ(std::bit_cast<uint32_t>(vec.val[p]),
                  std::bit_cast<uint32_t>(other.val[p]))
            << "trial " << trial << " row " << row << " pos " << p;
      }
    }
    EXPECT_EQ(portable_stats.macs, vector_stats.macs);
    EXPECT_EQ(portable_stats.rows_produced, vector_stats.rows_produced);
    EXPECT_EQ(portable_stats.output_nnz, vector_stats.output_nnz);
  }
}

class LayerForwardCapacity : public ::testing::TestWithParam<ForwardKernel> {
 protected:
  void TearDown() override { SetLayerForwardKernel(ForwardKernel::kAuto); }
};

TEST_P(LayerForwardCapacity, OutputRowsHoldNoSpareCapacity) {
  SetLayerForwardKernel(GetParam());
  if (GetParam() == ForwardKernel::kVectorized &&
      !LayerForwardVectorizedAvailable()) {
    GTEST_SKIP() << "AVX2 kernel not available on this build or CPU";
  }
  // Mixed-sign weights and a negative bias: ReLU drops many touched
  // positions, so rows end up shorter than their touched lists.
  Rng rng(99);
  const int32_t n = 96;
  const int32_t batch = 48;
  std::vector<Triplet> triplets;
  for (int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < 12; ++k) {
      triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(n)),
                          static_cast<float>(rng.NextUniform(-1.0, 1.0))});
    }
  }
  const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);
  ActivationMap x;
  for (int32_t j = 0; j < n; ++j) {
    SparseVector row;
    row.dim = batch;
    for (int32_t s = 0; s < batch; ++s) {
      // Contiguous leading runs take the AVX2 packed path.
      if (s < batch / 2 || rng.NextBool(0.3)) {
        row.idx.push_back(s);
        row.val.push_back(static_cast<float>(rng.NextUniform(0.0, 2.0)));
      }
    }
    x.emplace(j, std::move(row));
  }
  LayerForwardStats stats;
  const ActivationMap out = LayerForwardAll(
      w,
      [&x](int32_t row) -> const SparseVector* {
        auto it = x.find(row);
        return it == x.end() ? nullptr : &it->second;
      },
      -0.3f, 8.0f, batch, &stats);
  ASSERT_FALSE(out.empty());
  // Some positions were dropped, or the check below would prove nothing.
  EXPECT_LT(stats.output_nnz, static_cast<int64_t>(out.size()) * batch);
  for (const auto& [id, row] : out) {
    EXPECT_EQ(row.idx.capacity(), row.idx.size()) << "row " << id;
    EXPECT_EQ(row.val.capacity(), row.val.size()) << "row " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LayerForwardCapacity,
    ::testing::Values(ForwardKernel::kPortable, ForwardKernel::kVectorized),
    [](const ::testing::TestParamInfo<ForwardKernel>& info) {
      return std::string(info.param == ForwardKernel::kPortable ? "Portable"
                                                                : "Avx2");
    });

TEST(LayerForward, KernelSelectionReportsName) {
  SetLayerForwardKernel(ForwardKernel::kPortable);
  EXPECT_STREQ(LayerForwardKernelName(), "portable");
  SetLayerForwardKernel(ForwardKernel::kVectorized);
  if (LayerForwardVectorizedAvailable()) {
    EXPECT_STREQ(LayerForwardKernelName(), "avx2");
  } else {
    EXPECT_STREQ(LayerForwardKernelName(), "portable");
  }
  SetLayerForwardKernel(ForwardKernel::kAuto);
}

TEST(LayerForward, EmptyInputYieldsEmptyOutput) {
  const CsrMatrix w = CsrMatrix::FromTriplets(4, 4, {{0, 1, 1.0f}});
  ActivationMap out = LayerForwardAll(
      w, [](int32_t) -> const SparseVector* { return nullptr; }, -0.1f,
      32.0f, 8);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Compute-offload support: the MAC pre-pass and thread-safe scratch.

struct RandomProblem {
  CsrMatrix weights;
  ActivationMap x;
  int32_t batch = 0;

  RowProvider Provider() const {
    return [this](int32_t row) -> const SparseVector* {
      auto it = x.find(row);
      return it == x.end() ? nullptr : &it->second;
    };
  }

  static RandomProblem Make(uint64_t seed, int32_t n, int32_t batch,
                            int nnz_per_row, double density) {
    Rng rng(seed);
    RandomProblem problem;
    problem.batch = batch;
    std::vector<Triplet> triplets;
    for (int32_t i = 0; i < n; ++i) {
      for (int k = 0; k < nnz_per_row; ++k) {
        triplets.push_back(
            {i, static_cast<int32_t>(rng.NextBounded(n)),
             static_cast<float>(rng.NextUniform(-0.5, 1.0))});
      }
    }
    problem.weights = CsrMatrix::FromTriplets(n, n, triplets);
    for (int32_t j = 0; j < n; ++j) {
      SparseVector row;
      row.dim = batch;
      for (int32_t s = 0; s < batch; ++s) {
        if (rng.NextBool(density)) {
          row.idx.push_back(s);
          row.val.push_back(static_cast<float>(rng.NextUniform(0.1, 2.0)));
        }
      }
      if (!row.empty()) problem.x.emplace(j, std::move(row));
    }
    return problem;
  }
};

TEST(CountLayerMacs, MatchesKernelStatsExactly) {
  // The pre-pass prices a kernel's virtual time BEFORE the kernel runs;
  // any divergence from stats.macs would silently skew event times, so
  // the agreement must be bitwise, not approximate.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomProblem problem =
        RandomProblem::Make(seed, 96, 8, 6, 0.25);
    std::vector<int32_t> all_rows, evens;
    for (int32_t i = 0; i < problem.weights.rows(); ++i) {
      all_rows.push_back(i);
      if (i % 2 == 0) evens.push_back(i);
    }
    for (const std::vector<int32_t>* rows : {&all_rows, &evens}) {
      const RowProvider provider = problem.Provider();
      const double predicted =
          CountLayerMacs(problem.weights, *rows, provider);
      LayerForwardStats stats;
      LayerForward(problem.weights, *rows, provider, -0.25f, 4.0f,
                   problem.batch, &stats);
      EXPECT_EQ(predicted, stats.macs) << "seed " << seed;
    }
  }
  // Empty subset and empty input both price to zero.
  const RandomProblem problem = RandomProblem::Make(9, 16, 4, 2, 0.5);
  EXPECT_EQ(CountLayerMacs(problem.weights, {}, problem.Provider()), 0.0);
  EXPECT_EQ(CountLayerMacs(problem.weights, {0, 1},
                           [](int32_t) -> const SparseVector* {
                             return nullptr;
                           }),
            0.0);
}

TEST(LayerForward, ConcurrentCallsMatchSerialByteForByte) {
  // The kernel's accumulator panel and epoch-stamped touched tracking are
  // thread_local: concurrent calls from a compute pool must neither race
  // nor perturb results. Each thread replays problems a serial pass
  // already solved and demands identical ActivationMaps.
  constexpr int kProblems = 8;
  constexpr int kRepeats = 4;
  std::vector<RandomProblem> problems;
  std::vector<ActivationMap> serial(kProblems);
  std::vector<LayerForwardStats> serial_stats(kProblems);
  for (int i = 0; i < kProblems; ++i) {
    problems.push_back(
        RandomProblem::Make(100 + i, 128, 16, 8, 0.2));
  }
  for (int i = 0; i < kProblems; ++i) {
    serial[i] = LayerForwardAll(problems[i].weights, problems[i].Provider(),
                                -0.25f, 4.0f, problems[i].batch,
                                &serial_stats[i]);
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kProblems, 0);
  for (int i = 0; i < kProblems; ++i) {
    threads.emplace_back([&, i]() {
      for (int r = 0; r < kRepeats; ++r) {
        LayerForwardStats stats;
        const ActivationMap out = LayerForwardAll(
            problems[i].weights, problems[i].Provider(), -0.25f, 4.0f,
            problems[i].batch, &stats);
        if (out != serial[i] || stats.macs != serial_stats[i].macs ||
            stats.output_nnz != serial_stats[i].output_nnz) {
          ++mismatches[i];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kProblems; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "problem " << i;
  }
}

}  // namespace
}  // namespace fsd::linalg
