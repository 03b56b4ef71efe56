// Bit-exactness tests for the int8 inference kernel family
// (tensor/kernels_impl.h, DESIGN.md §8g): absmax_block, quantize_s8,
// quant_gemm_rows, dequant_bias_row.
//
// The contract: every kernel produces BITWISE-identical output in the
// scalar, SSE2 and AVX2 tables for every length (vector body + scalar
// tail) and alignment, and quant_gemm_rows matches an independent int64
// reference exactly (int32 accumulation never rounds, so cross-backend
// identity is by integer arithmetic, not by luck).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/quant.h"
#include "tensor/kernels.h"
#include "tensor/vec.h"

namespace ealgap {
namespace {

using kernels::Backend;
using kernels::KernelTable;

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Same coverage grid as vec_test.cc: empty input, pure tail, full vectors
// of every lane width (1/4/8) and vector-plus-tail combinations.
constexpr int64_t kMaxLen = 35;  // 4 * 8 + 3
constexpr int64_t kMaxOff = 3;

struct NamedTable {
  std::string name;
  const KernelTable* t;
};

std::vector<NamedTable> AltTables() {
  std::vector<NamedTable> out;
  for (Backend b : {Backend::kSse2, Backend::kAvx2}) {
    if (const KernelTable* t = kernels::Table(b)) {
      out.push_back({kernels::BackendName(b), t});
    }
  }
  return out;
}

const KernelTable& Scalar() {
  const KernelTable* t = kernels::Table(Backend::kScalar);
  EXPECT_NE(t, nullptr);
  return *t;
}

// Deterministic float stream (index-stable) mixing magnitudes and signs,
// including values that saturate the int8 clamp.
float TestValue(int64_t i) {
  uint32_t x = static_cast<uint32_t>(i * 2654435761u + 12345u);
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  const float u = static_cast<float>(x & 0xffffff) / 16777216.f;  // [0,1)
  switch (i % 5) {
    case 0:
      return (u - 0.5f) * 4.f;
    case 1:
      return (u - 0.5f) * 2e4f;
    case 2:
      return (u - 0.5f) * 2e-4f;
    case 3:
      return u + 0.5f;
    default:
      return i % 10 == 4 ? 0.f : (u - 0.5f) * 16.f;
  }
}

// Deterministic int8 stream covering the full [-127, 127] range.
int8_t TestQ8(int64_t i) {
  uint32_t x = static_cast<uint32_t>(i * 2246822519u + 777u);
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  const int v = static_cast<int>(x % 255u) - 127;  // [-127, 127]
  return static_cast<int8_t>(v);
}

// --- absmax_block ------------------------------------------------------

TEST(QuantKernels, AbsMaxBlockMatchesReferenceAndBackends) {
  for (int64_t n = 0; n <= kMaxLen; ++n) {
    for (int64_t off = 0; off <= kMaxOff; ++off) {
      std::vector<float> a(off + n);
      for (int64_t i = 0; i < off + n; ++i) a[i] = TestValue(i + 31);
      float want = 0.f;
      for (int64_t i = 0; i < n; ++i) {
        want = std::max(want, std::fabs(a[off + i]));
      }
      const float ref = Scalar().absmax_block(a.data() + off, n);
      ASSERT_EQ(Bits(want), Bits(ref)) << "scalar absmax n=" << n;
      for (const NamedTable& alt : AltTables()) {
        const float got = alt.t->absmax_block(a.data() + off, n);
        ASSERT_EQ(Bits(ref), Bits(got))
            << "absmax_block [" << alt.name << "] n=" << n << " off=" << off;
      }
    }
  }
}

// --- quantize_s8 -------------------------------------------------------

TEST(QuantKernels, QuantizeS8ParityAndScalarContract) {
  const float inv_scale = 127.f / 9871.3f;
  for (int64_t n = 0; n <= kMaxLen; ++n) {
    for (int64_t off = 0; off <= kMaxOff; ++off) {
      std::vector<float> x(off + n);
      for (int64_t i = 0; i < off + n; ++i) x[i] = TestValue(i + 57);
      std::vector<int8_t> q_ref(off + n, 99), q_alt(off + n, 99);
      Scalar().quantize_s8(x.data() + off, inv_scale, q_ref.data() + off, n);
      // The vector path must agree with the shared one-element contract
      // used by pack-time quantization (vec::QuantizeOneS8).
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(vec::QuantizeOneS8(x[off + i], inv_scale), q_ref[off + i])
            << "QuantizeOneS8 contract elem " << i << " n=" << n;
      }
      for (const NamedTable& alt : AltTables()) {
        std::fill(q_alt.begin(), q_alt.end(), static_cast<int8_t>(99));
        alt.t->quantize_s8(x.data() + off, inv_scale, q_alt.data() + off, n);
        for (int64_t i = 0; i < off + n; ++i) {
          ASSERT_EQ(q_ref[i], q_alt[i])
              << "quantize_s8 [" << alt.name << "] n=" << n << " off=" << off
              << " elem " << i;
        }
      }
    }
  }
}

TEST(QuantKernels, QuantizeS8SaturatesAtPlusMinus127) {
  const float x[6] = {1e30f, -1e30f, 4000.f, -4000.f, 126.4f, -126.6f};
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    int8_t q[6];
    nt.t->quantize_s8(x, 1.f, q, 6);
    EXPECT_EQ(q[0], 127) << nt.name;
    EXPECT_EQ(q[1], -127) << nt.name;
    EXPECT_EQ(q[2], 127) << nt.name;
    EXPECT_EQ(q[3], -127) << nt.name;
    EXPECT_EQ(q[4], 126) << nt.name;
    EXPECT_EQ(q[5], -127) << nt.name;
  }
}

// --- quant_gemm_rows ---------------------------------------------------

// Fills a pair-interleaved weight pack (nn/quant.h layout) from a logical
// (k, n) int8 weight matrix drawn from TestQ8.
void FillPack(std::vector<int16_t>* pack, int64_t k, int64_t n,
              int64_t salt) {
  const int64_t pairs = (k + 1) / 2;
  pack->assign(static_cast<size_t>(pairs * 2 * n), 0);
  for (int64_t x = 0; x < k; ++x) {
    for (int64_t j = 0; j < n; ++j) {
      const int64_t p2 = x / 2;
      (*pack)[p2 * 2 * n + 2 * j + (x & 1)] = TestQ8(x * n + j + salt);
    }
  }
}

// Independent int64 reference: the logical weight value for (x, j) is read
// back out of the pack so layout bugs in FillPack cannot self-cancel with
// the kernel's indexing.
void ReferenceGemm(const std::vector<int8_t>& aq,
                   const std::vector<int16_t>& pack, int64_t m, int64_t k,
                   int64_t n, std::vector<int64_t>* acc) {
  acc->assign(static_cast<size_t>(m * n), 0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t s = 0;
      for (int64_t x = 0; x < k; ++x) {
        const int64_t w = pack[(x / 2) * 2 * n + 2 * j + (x & 1)];
        s += static_cast<int64_t>(aq[i * k + x]) * w;
      }
      (*acc)[i * n + j] = s;
    }
  }
}

TEST(QuantKernels, QuantGemmRowsExactAcrossBackends) {
  for (int64_t m : {1, 3}) {
    for (int64_t k : {1, 2, 5, 8, 16, 33}) {
      for (int64_t n : {1, 2, 7, 8, 16, 17, 33}) {
        std::vector<int8_t> aq(m * k);
        for (int64_t i = 0; i < m * k; ++i) aq[i] = TestQ8(i + 5 * k);
        std::vector<int16_t> pack;
        FillPack(&pack, k, n, 17 * n);
        std::vector<int64_t> want;
        ReferenceGemm(aq, pack, m, k, n, &want);
        std::vector<NamedTable> tables = AltTables();
        tables.push_back({"scalar", &Scalar()});
        for (const NamedTable& nt : tables) {
          std::vector<int32_t> acc(m * n, -777);
          nt.t->quant_gemm_rows(aq.data(), pack.data(), acc.data(), 0, m, k,
                                n);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(want[i], static_cast<int64_t>(acc[i]))
                << "quant_gemm_rows [" << nt.name << "] m=" << m
                << " k=" << k << " n=" << n << " elem " << i;
          }
        }
      }
    }
  }
}

TEST(QuantKernels, QuantGemmRowsPartialRowRange) {
  const int64_t m = 5, k = 9, n = 17;
  std::vector<int8_t> aq(m * k);
  for (int64_t i = 0; i < m * k; ++i) aq[i] = TestQ8(i + 3);
  std::vector<int16_t> pack;
  FillPack(&pack, k, n, 29);
  std::vector<int64_t> want;
  ReferenceGemm(aq, pack, m, k, n, &want);
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    // Rows computed in two chunks (the ParallelFor shape) must equal the
    // one-shot result; rows outside the range must be untouched.
    std::vector<int32_t> acc(m * n, -777);
    nt.t->quant_gemm_rows(aq.data(), pack.data(), acc.data(), 1, 3, k, n);
    nt.t->quant_gemm_rows(aq.data(), pack.data(), acc.data(), 3, 5, k, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i < 1) {
          ASSERT_EQ(acc[i * n + j], -777) << nt.name << " row " << i;
        } else {
          ASSERT_EQ(want[i * n + j], static_cast<int64_t>(acc[i * n + j]))
              << nt.name << " row " << i << " col " << j;
        }
      }
    }
  }
}

// --- dequant_bias_row --------------------------------------------------

TEST(QuantKernels, DequantBiasRowParity) {
  const float a_scale = 0.031f;
  for (int64_t n = 0; n <= kMaxLen; ++n) {
    for (int64_t off = 0; off <= kMaxOff; ++off) {
      std::vector<int32_t> acc(off + n);
      std::vector<float> w_scale(off + n), bias(off + n);
      for (int64_t i = 0; i < off + n; ++i) {
        acc[i] = static_cast<int32_t>(TestQ8(i) * 1000 + TestQ8(i + 7));
        w_scale[i] = std::fabs(TestValue(i + 3)) + 1e-3f;
        bias[i] = TestValue(i + 11);
      }
      for (const float* b : {static_cast<const float*>(bias.data()),
                             static_cast<const float*>(nullptr)}) {
        const float* boff = b == nullptr ? nullptr : b + off;
        std::vector<float> o_ref(off + n, -777.f), o_alt(off + n, -777.f);
        Scalar().dequant_bias_row(acc.data() + off, a_scale,
                                  w_scale.data() + off, boff,
                                  o_ref.data() + off, n);
        for (const NamedTable& alt : AltTables()) {
          std::fill(o_alt.begin(), o_alt.end(), -777.f);
          alt.t->dequant_bias_row(acc.data() + off, a_scale,
                                  w_scale.data() + off, boff,
                                  o_alt.data() + off, n);
          for (int64_t i = 0; i < off + n; ++i) {
            ASSERT_EQ(Bits(o_ref[i]), Bits(o_alt[i]))
                << "dequant_bias_row [" << alt.name << "] bias="
                << (b != nullptr) << " n=" << n << " off=" << off << " elem "
                << i;
          }
        }
      }
    }
  }
}

// --- quant_gemm_dequant_rows (fused) -----------------------------------

// The fused kernel's contract is bit-identity with the two-kernel
// composition (quant_gemm_rows into an acc buffer, then dequant_bias_row
// per row) — the serve forward switched to it for speed, not for
// different numbers. The composition itself is pinned to the int64
// reference and the scalar rounding tree by the tests above, so equality
// with the scalar composition transitively pins the fused kernel too.
TEST(QuantKernels, QuantGemmDequantRowsMatchesCompositionBitExactly) {
  const float a_scale = 0.017f;
  for (int64_t m : {1, 3}) {
    for (int64_t k : {1, 2, 5, 8, 16, 33}) {
      for (int64_t n : {1, 2, 7, 8, 16, 17, 33}) {
        std::vector<int8_t> aq(m * k);
        for (int64_t i = 0; i < m * k; ++i) aq[i] = TestQ8(i + 7 * k);
        std::vector<int16_t> pack;
        FillPack(&pack, k, n, 23 * n);
        std::vector<float> w_scale(n), bias(n);
        for (int64_t j = 0; j < n; ++j) {
          w_scale[j] = std::fabs(TestValue(j + 3)) + 1e-3f;
          bias[j] = TestValue(j + 11);
        }
        std::vector<int32_t> acc(m * n, -777);
        Scalar().quant_gemm_rows(aq.data(), pack.data(), acc.data(), 0, m, k,
                                 n);
        for (const float* b : {static_cast<const float*>(bias.data()),
                               static_cast<const float*>(nullptr)}) {
          std::vector<float> want(m * n, -777.f);
          for (int64_t i = 0; i < m; ++i) {
            Scalar().dequant_bias_row(acc.data() + i * n, a_scale,
                                      w_scale.data(), b, want.data() + i * n,
                                      n);
          }
          std::vector<NamedTable> tables = AltTables();
          tables.push_back({"scalar", &Scalar()});
          for (const NamedTable& nt : tables) {
            std::vector<float> o(m * n, -777.f);
            nt.t->quant_gemm_dequant_rows(aq.data(), pack.data(), a_scale,
                                          w_scale.data(), b, o.data(), 0, m,
                                          k, n);
            for (int64_t i = 0; i < m * n; ++i) {
              ASSERT_EQ(Bits(want[i]), Bits(o[i]))
                  << "quant_gemm_dequant_rows [" << nt.name << "] bias="
                  << (b != nullptr) << " m=" << m << " k=" << k << " n=" << n
                  << " elem " << i;
            }
          }
        }
      }
    }
  }
}

TEST(QuantKernels, QuantGemmDequantRowsPartialRowRange) {
  const int64_t m = 5, k = 9, n = 17;
  const float a_scale = 0.009f;
  std::vector<int8_t> aq(m * k);
  for (int64_t i = 0; i < m * k; ++i) aq[i] = TestQ8(i + 13);
  std::vector<int16_t> pack;
  FillPack(&pack, k, n, 37);
  std::vector<float> w_scale(n), bias(n);
  for (int64_t j = 0; j < n; ++j) {
    w_scale[j] = std::fabs(TestValue(j + 5)) + 1e-3f;
    bias[j] = TestValue(j + 17);
  }
  std::vector<int32_t> acc(m * n, -777);
  Scalar().quant_gemm_rows(aq.data(), pack.data(), acc.data(), 0, m, k, n);
  std::vector<float> want(m * n, -777.f);
  for (int64_t i = 0; i < m; ++i) {
    Scalar().dequant_bias_row(acc.data() + i * n, a_scale, w_scale.data(),
                              bias.data(), want.data() + i * n, n);
  }
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    // Rows computed in two chunks (the ParallelFor shape) must equal the
    // one-shot scalar composition; rows outside the range stay untouched.
    std::vector<float> o(m * n, -777.f);
    nt.t->quant_gemm_dequant_rows(aq.data(), pack.data(), a_scale,
                                  w_scale.data(), bias.data(), o.data(), 1, 3,
                                  k, n);
    nt.t->quant_gemm_dequant_rows(aq.data(), pack.data(), a_scale,
                                  w_scale.data(), bias.data(), o.data(), 3, 5,
                                  k, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i < 1) {
          ASSERT_EQ(Bits(o[i * n + j]), Bits(-777.f))
              << nt.name << " row " << i;
        } else {
          ASSERT_EQ(Bits(want[i * n + j]), Bits(o[i * n + j]))
              << nt.name << " row " << i << " col " << j;
        }
      }
    }
  }
}

// k at the documented overflow bound: kQuantMaxK products of magnitude
// 127*127 must not overflow int32 (the bound is what pack-time enforces),
// and the bound must comfortably cover the largest serve-path reduction
// (dec1's k = N * L).
TEST(QuantKernels, AccumulatorBoundIsSafe) {
  static_assert(nn::quant::kQuantMaxK * 127 * 127 <
                (int64_t{1} << 31));
  static_assert(nn::quant::kQuantMaxK > 100000);
}

}  // namespace
}  // namespace ealgap
