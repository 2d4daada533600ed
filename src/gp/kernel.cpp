#include "gp/kernel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pamo::gp {

std::vector<double> KernelParams::pack() const {
  std::vector<double> packed = log_lengthscales;
  packed.push_back(log_signal_var);
  packed.push_back(log_noise_var);
  return packed;
}

KernelParams KernelParams::unpack(const std::vector<double>& packed,
                                  std::size_t dim) {
  PAMO_CHECK(packed.size() == dim + 2, "packed hyperparameter size mismatch");
  KernelParams p;
  p.log_lengthscales.assign(packed.begin(),
                            packed.begin() + static_cast<long>(dim));
  p.log_signal_var = packed[dim];
  p.log_noise_var = packed[dim + 1];
  return p;
}

namespace {

/// 1/ℓ_i per dimension. Matrix builders compute it once per call instead
/// of once per pair; exp is a pure function, so every distance is the same
/// double either way.
std::vector<double> inverse_lengthscales(const KernelParams& params) {
  std::vector<double> inv_ls(params.dim());
  for (std::size_t i = 0; i < inv_ls.size(); ++i) {
    inv_ls[i] = std::exp(-params.log_lengthscales[i]);
  }
  return inv_ls;
}

/// Scaled squared distance Σ ((x_i - z_i) / ℓ_i)², with 1/ℓ_i given by
/// `inv_ls(i)`.
template <typename InvLs>
double scaled_sqdist(const InvLs& inv_ls, const std::vector<double>& x,
                     const std::vector<double>& z) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = (x[i] - z[i]) * inv_ls(i);
    sum += d * d;
  }
  return sum;
}

double kernel_from_sqdist(KernelType type, double sf2, double r2) {
  switch (type) {
    case KernelType::kRbf:
      return sf2 * std::exp(-0.5 * r2);
    case KernelType::kMatern52: {
      const double r = std::sqrt(r2);
      const double sqrt5_r = 2.2360679774997896 * r;
      return sf2 * (1.0 + sqrt5_r + 5.0 / 3.0 * r2) * std::exp(-sqrt5_r);
    }
  }
  return 0.0;  // unreachable
}

}  // namespace

double kernel_value(KernelType type, const KernelParams& params,
                    const std::vector<double>& x,
                    const std::vector<double>& z) {
  PAMO_CHECK(x.size() == params.dim() && z.size() == params.dim(),
             "kernel input dimension mismatch");
  const double sf2 = std::exp(params.log_signal_var);
  const auto inv_ls = [&params](std::size_t i) {
    return std::exp(-params.log_lengthscales[i]);
  };
  return kernel_from_sqdist(type, sf2, scaled_sqdist(inv_ls, x, z));
}

la::Matrix kernel_matrix(KernelType type, const KernelParams& params,
                         const std::vector<std::vector<double>>& x) {
  PAMO_CHECK(x.empty() || x.front().size() == params.dim(),
             "kernel input dimension mismatch");
  const std::size_t n = x.size();
  const double sf2 = std::exp(params.log_signal_var);
  const std::vector<double> hoisted = inverse_lengthscales(params);
  const auto inv_ls = [&hoisted](std::size_t i) { return hoisted[i]; };
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = sf2;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v =
          kernel_from_sqdist(type, sf2, scaled_sqdist(inv_ls, x[i], x[j]));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

la::Matrix kernel_cross(KernelType type, const KernelParams& params,
                        const std::vector<std::vector<double>>& x,
                        const std::vector<std::vector<double>>& z) {
  PAMO_CHECK((x.empty() || x.front().size() == params.dim()) &&
                 (z.empty() || z.front().size() == params.dim()),
             "kernel input dimension mismatch");
  const double sf2 = std::exp(params.log_signal_var);
  const std::vector<double> hoisted = inverse_lengthscales(params);
  const auto inv_ls = [&hoisted](std::size_t i) { return hoisted[i]; };
  la::Matrix k(x.size(), z.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < z.size(); ++j) {
      k(i, j) =
          kernel_from_sqdist(type, sf2, scaled_sqdist(inv_ls, x[i], z[j]));
    }
  }
  return k;
}

}  // namespace pamo::gp
