// Student-t distribution: CDF and quantile for small-sample confidence
// intervals.
//
// Replication counts in this repo are small (typically 5-30 seeds), where
// the normal approximation's 1.96 understates the 95% half-width badly
// (t_{0.975} is 2.776 at 4 degrees of freedom and 12.706 at 1). The CDF is
// evaluated through the regularized incomplete beta function (Lentz's
// continued fraction); the quantile inverts it by bisection — replications
// are summarized once per batch, so robustness beats speed here.
#pragma once

#include "src/util/accumulator.hpp"

namespace abp::stats {

// Regularized incomplete beta function I_x(a, b) for a, b > 0 and x in
// [0, 1]. Exposed for testing; accurate to ~1e-12.
[[nodiscard]] double regularized_incomplete_beta(double a, double b, double x);

// P(T <= t) for T Student-t distributed with `df` degrees of freedom (>= 1).
[[nodiscard]] double student_t_cdf(double t, int df);

// Inverse CDF: the t with student_t_cdf(t, df) == p, for p in (0, 1).
// student_t_quantile(0.975, df) is the two-sided 95% critical value.
// Throws std::invalid_argument on df < 1 or p outside (0, 1).
[[nodiscard]] double student_t_quantile(double p, int df);

// Half-width of the two-sided 95% confidence interval on the mean of the
// accumulated samples, t(0.975, n - 1) * s / sqrt(n); 0 below two samples.
[[nodiscard]] double ci95_halfwidth(const Accumulator& acc);

}  // namespace abp::stats
