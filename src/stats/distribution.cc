#include "stats/distribution.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace stats {

namespace {
constexpr double kMinMean = 1e-6;
constexpr double kMinStddev = 1e-6;
}  // namespace

ExponentialDistribution::ExponentialDistribution(double lambda)
    : lambda_(lambda) {
  EALGAP_CHECK_GT(lambda, 0.0);
}

Result<ExponentialDistribution> ExponentialDistribution::Fit(
    const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("exponential fit on empty sample");
  }
  double sum = 0.0;
  for (double v : values) {
    if (v < 0.0) {
      return Status::InvalidArgument("exponential fit on negative value");
    }
    sum += v;
  }
  const double mean = std::max(sum / static_cast<double>(values.size()),
                               kMinMean);
  return ExponentialDistribution(1.0 / mean);
}

double ExponentialDistribution::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  return lambda_ * std::exp(-lambda_ * x);
}

double ExponentialDistribution::Cdf(double x) const {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-lambda_ * x);
}

double ExponentialDistribution::LogLikelihood(
    const std::vector<double>& values) const {
  double ll = 0.0;
  for (double v : values) {
    ll += std::log(lambda_) - lambda_ * std::max(v, 0.0);
  }
  return ll;
}

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  EALGAP_CHECK_GT(stddev, 0.0);
}

Result<NormalDistribution> NormalDistribution::Fit(
    const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("normal fit on empty sample");
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  const double stddev =
      std::max(std::sqrt(ss / static_cast<double>(values.size())), kMinStddev);
  return NormalDistribution(mean, stddev);
}

double NormalDistribution::Pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return std::exp(-0.5 * z * z) / (stddev_ * std::sqrt(2.0 * M_PI));
}

double NormalDistribution::Cdf(double x) const {
  return 0.5 * std::erfc(-(x - mean_) / (stddev_ * std::sqrt(2.0)));
}

double NormalDistribution::LogLikelihood(
    const std::vector<double>& values) const {
  double ll = 0.0;
  for (double v : values) ll += std::log(std::max(Pdf(v), 1e-300));
  return ll;
}

Tensor RowwisePdf(const Tensor& x, DistributionFamily family) {
  EALGAP_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0), l = x.dim(1);
  Tensor z(x.shape());
  if (n == 0) return z;
  EALGAP_CHECK_GT(l, 0) << "distribution fit on empty sample";
  const float* px = x.data();
  float* pz = z.data();
  const kernels::KernelTable& t = kernels::Active();
  // Each row's fit runs in double exactly as Fit does (same sums in the
  // same order, same floors) and aborts where Fit or the distribution
  // constructor would; its float parameters are broadcast over the row, and
  // one kernel call then evaluates all N*L densities, each element rounding
  // as the per-row kernel does.
  if (family == DistributionFamily::kExponential) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = px + i * l;
      double sum = 0.0;
      for (int64_t j = 0; j < l; ++j) {
        const double v = row[j];
        EALGAP_CHECK(!(v < 0.0)) << "exponential fit on negative value";
        sum += v;
      }
      const double lambda =
          1.0 / std::max(sum / static_cast<double>(l), kMinMean);
      EALGAP_CHECK_GT(lambda, 0.0);  // NaN or +inf input
      std::fill(pz + i * l, pz + (i + 1) * l, static_cast<float>(lambda));
    }
    t.exp_pdf(px, pz, pz, n * l);  // rates in place
    return z;
  }
  Tensor mean(x.shape()), inv_stddev(x.shape());
  float* pm = mean.data();
  float* pinv = inv_stddev.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = px + i * l;
    double sum = 0.0;
    for (int64_t j = 0; j < l; ++j) sum += row[j];
    const double mu = sum / static_cast<double>(l);
    double ss = 0.0;
    for (int64_t j = 0; j < l; ++j) {
      const double d = row[j] - mu;
      ss += d * d;
    }
    const double stddev =
        std::max(std::sqrt(ss / static_cast<double>(l)), kMinStddev);
    EALGAP_CHECK_GT(stddev, 0.0);  // NaN or inf input
    const int64_t b = i * l, e = b + l;
    std::fill(pm + b, pm + e, static_cast<float>(mu));
    std::fill(pinv + b, pinv + e, static_cast<float>(1.0 / stddev));
    std::fill(pz + b, pz + e,
              static_cast<float>(1.0 / (stddev * std::sqrt(2.0 * M_PI))));
  }
  t.normal_pdf(px, pm, pinv, pz, pz, n * l);  // norms in place
  return z;
}

}  // namespace stats
}  // namespace ealgap
