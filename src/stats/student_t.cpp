#include "src/stats/student_t.hpp"

#include <cmath>
#include <stdexcept>

namespace abp::stats {
namespace {

// Continued-fraction core of the incomplete beta function (modified Lentz).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0)) {
    throw std::invalid_argument("incomplete beta needs a, b > 0");
  }
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the continued fraction on the side where it converges fast.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, int df) {
  if (df < 1) throw std::invalid_argument("Student-t needs df >= 1");
  const double nu = static_cast<double>(df);
  const double x = nu / (nu + t * t);
  const double tail = 0.5 * regularized_incomplete_beta(0.5 * nu, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double student_t_quantile(double p, int df) {
  if (df < 1) throw std::invalid_argument("Student-t needs df >= 1");
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("Student-t quantile needs p in (0, 1)");
  }
  if (p == 0.5) return 0.0;
  // By symmetry, invert on the upper half only.
  if (p < 0.5) return -student_t_quantile(1.0 - p, df);

  // Bracket: grow hi until the CDF passes p (df = 1 has very heavy tails).
  double lo = 0.0;
  double hi = 2.0;
  while (student_t_cdf(hi, df) < p) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1.0e12) break;  // p indistinguishable from 1 at double precision
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;  // bisection hit double resolution
    if (student_t_cdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double ci95_halfwidth(const Accumulator& acc) {
  const int n = static_cast<int>(acc.count());
  if (n < 2) return 0.0;
  return student_t_quantile(0.975, n - 1) * acc.stddev() /
         std::sqrt(static_cast<double>(n));
}

}  // namespace abp::stats
