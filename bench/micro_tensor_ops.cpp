// google-benchmark microbenchmarks of the substrate hot paths: tensor ops,
// autograd round trips, cell forwards, distribution fits, and clustering.

#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"
#include "stats/distribution.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace ealgap;

/// Pins the pool size for one benchmark run, restoring it afterwards. The
/// *Threads benches sweep 1/2/4/8 so BENCH_tensor_ops.json records the
/// scaling curve of each kernel.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(GetNumThreads()) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Pins a SIMD backend for one run; the *Simd benches sweep every backend
/// the host supports so the JSON records the scalar/sse2/avx2/avx512 curve
/// of the kernel layer directly. Skips (rather than fails) on hosts that
/// lack one.
class ScopedBackend {
 public:
  ScopedBackend(benchmark::State& state, kernels::Backend b)
      : saved_(kernels::ActiveBackend()) {
    if (!kernels::BackendSupported(b)) {
      state.SkipWithError("backend not supported on this host");
      ok_ = false;
      return;
    }
    kernels::SetBackendForTesting(b);
  }
  ~ScopedBackend() { kernels::SetBackendForTesting(saved_); }
  bool ok() const { return ok_; }

 private:
  kernels::Backend saved_;
  bool ok_ = true;
};

constexpr kernels::Backend kBackends[] = {
    kernels::Backend::kScalar, kernels::Backend::kSse2,
    kernels::Backend::kAvx2, kernels::Backend::kAvx512};

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

/// Projection-shaped matmul scaled by region count: an (N, d) activation
/// against a (d, d) weight, the shape every per-region linear layer runs
/// at N=20 (city), N=1k (metro), and N=10k (metropolis) regions.
void BM_MatMulRegions(benchmark::State& state) {
  const int64_t n = state.range(0);
  constexpr int64_t kD = 64;
  Rng rng(1);
  Tensor a = Tensor::Randn({n, kD}, rng);
  Tensor b = Tensor::Randn({kD, kD}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * kD * kD);
}
BENCHMARK(BM_MatMulRegions)->Arg(20)->Arg(1000)->Arg(10000);

void BM_MatMulThreads(benchmark::State& state) {
  const int64_t n = 128;
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BMatMulThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  // Attention-shaped batch: many small per-region matrices.
  Tensor a = Tensor::Randn({64, 24, 24}, rng);
  Tensor b = Tensor::Randn({64, 24, 24}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::BMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 24 * 24 * 24);
}
BENCHMARK(BM_BMatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ElementwiseAddThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({1 << 20}, rng);
  Tensor b = Tensor::Randn({1 << 20}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_ElementwiseAddThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BroadcastAddThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  // Exercises the strided-row broadcast path (b constant per row block).
  Tensor a = Tensor::Randn({128, 128, 64}, rng);
  Tensor b = Tensor::Randn({128, 1, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 64);
}
BENCHMARK(BM_BroadcastAddThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SumAxisThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({512, 64, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::SumAxis(a, 1));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 64 * 32);
}
BENCHMARK(BM_SumAxisThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SoftmaxThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({4096, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::SoftmaxLastDim(a));
  }
  state.SetItemsProcessed(state.iterations() * 4096 * 64);
}
BENCHMARK(BM_SoftmaxThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MatMulSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  const int64_t n = 128;
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ElementwiseAddSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  Rng rng(1);
  // Cache-resident size and a preallocated output: measures the kernel,
  // not DRAM bandwidth or the allocator.
  constexpr int64_t kN = 1 << 14;
  Tensor a = Tensor::Randn({kN}, rng);
  Tensor b = Tensor::Randn({kN}, rng);
  Tensor o = Tensor::Zeros({kN});
  const kernels::KernelTable& t = kernels::Active();
  for (auto _ : state) {
    t.add_vv(a.data(), b.data(), o.data(), kN);
    benchmark::DoNotOptimize(o.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_ElementwiseAddSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SoftmaxSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  Rng rng(1);
  Tensor a = Tensor::Randn({4096, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::SoftmaxLastDim(a));
  }
  state.SetItemsProcessed(state.iterations() * 4096 * 64);
}
BENCHMARK(BM_SoftmaxSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ExpSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  Rng rng(1);
  Tensor a = Tensor::Randn({1 << 18}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Exp(a));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_ExpSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_TanhSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  Rng rng(1);
  Tensor a = Tensor::Randn({1 << 18}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Tanh(a));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_TanhSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SigmoidSimd(benchmark::State& state) {
  ScopedBackend backend(state, kBackends[state.range(0)]);
  if (!backend.ok()) return;
  ScopedThreads threads(1);
  Rng rng(1);
  Tensor a = Tensor::Randn({1 << 18}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Sigmoid(a));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_SigmoidSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::Randn({20, 5, 1}, rng);
  Tensor b = Tensor::Randn({20, 1, 5}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::BMatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::Randn({state.range(0), 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::SoftmaxLastDim(a));
  }
}
BENCHMARK(BM_SoftmaxLastDim)->Arg(64)->Arg(512);

void BM_GruCellForward(benchmark::State& state) {
  Rng rng(1);
  nn::GruCell cell(5, 16, rng);
  NoGradGuard no_grad;
  Var x = Var::Leaf(Tensor::Randn({20, 5}, rng));
  Var h = nn::ZeroState(20, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Forward(x, h));
  }
}
BENCHMARK(BM_GruCellForward);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(1);
  nn::Linear fc1(32, 64, rng), fc2(64, 1, rng);
  Tensor x = Tensor::Randn({64, 32}, rng);
  Tensor y = Tensor::Randn({64, 1}, rng);
  for (auto _ : state) {
    fc1.ZeroGrad();
    fc2.ZeroGrad();
    Var pred = fc2.Forward(Relu(fc1.Forward(Var::Leaf(x))));
    Var d = Sub(pred, Var::Leaf(y));
    Var loss = MeanAll(Mul(d, d));
    Backward(loss);
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_ExponentialRowwisePdf(benchmark::State& state) {
  Rng rng(1);
  Tensor x = Tensor::Rand({20, 5}, rng, 0.f, 100.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::RowwisePdf(x, stats::DistributionFamily::kExponential));
  }
}
BENCHMARK(BM_ExponentialRowwisePdf);

void BM_KMeansStations(benchmark::State& state) {
  Rng rng(1);
  std::vector<cluster::Point2> pts;
  for (int i = 0; i < 347; ++i) {
    pts.push_back({rng.Uniform(-74.1, -73.9), rng.Uniform(40.6, 40.9)});
  }
  for (auto _ : state) {
    auto result = cluster::KMeans(pts, 20);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeansStations);

}  // namespace

// main() lives in bench_main.cc (stamps ealgap_build_type / ealgap_simd).
