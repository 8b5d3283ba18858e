#pragma once

/// \file pce.hpp
/// Polynomial chaos expansion GSA — the paper's baseline in Figure 4,
/// "included to highlight the limitations of one-shot approaches". A
/// total-degree Legendre PCE is fit by (ridge-regularized) least squares
/// on a single experimental design; Sobol' indices follow analytically
/// from the coefficient variance decomposition. The paper "chose a
/// degree 3 PCE as it performed the best", which is the default here.

#include <cstdint>
#include <vector>

#include "gsa/sobol.hpp"
#include "num/legendre.hpp"

namespace osprey::gsa {

struct PceConfig {
  unsigned degree = 3;
  double ridge_lambda = 1e-8;  // stabilizes under-determined fits (n < P)
};

/// A fitted expansion over the unit cube.
class PceModel {
 public:
  /// Fit on unit-cube inputs `u` (n x d) and responses `y`.
  PceModel(const Matrix& u, const Vector& y, const PceConfig& config = {});

  double predict(const Vector& u) const;

  std::size_t num_terms() const { return coefficients_.size(); }

  /// Analytic Sobol' indices of the expansion: with an orthonormal
  /// basis, Var = sum of squared non-constant coefficients; S1_i sums
  /// the terms involving only dimension i; ST_i all terms involving i.
  SobolIndices sobol() const;

 private:
  std::vector<std::vector<unsigned>> indices_;
  Vector coefficients_;
  std::size_t dim_ = 0;
};

/// One-shot PCE GSA of a model over a parameter box: draw an LHS design
/// of size n, fit, return the indices. This is the per-sample-size point
/// of the paper's magenta curves.
SobolIndices pce_gsa(const ModelFn& model,
                     const std::vector<ParamRange>& ranges, std::size_t n,
                     std::uint64_t seed, const PceConfig& config = {});

}  // namespace osprey::gsa
