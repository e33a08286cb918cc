#include "expander/params.hpp"

#include <algorithm>
#include <cmath>

#include "sparsecut/partition.hpp"
#include "util/check.hpp"

namespace xd::expander {

double h_of(double theta, std::size_t m, std::uint64_t vol, Preset preset) {
  XD_CHECK(theta > 0);
  // Single source of truth: Theorem 3's contract as implemented (and, in
  // practical mode, enforced) by the sparsecut module.
  return sparsecut::theorem3_conductance_bound(theta, m, vol, preset);
}

double h_inverse(double theta, std::size_t m, std::uint64_t vol, Preset preset) {
  XD_CHECK(theta > 0);
  if (preset == Preset::kPaper) {
    // Invert h(x) = c * x^{1/3} with c = bound(x)/x^{1/3} (c is
    // θ-independent in paper mode apart from the 1/12 clamp, which never
    // binds on the inverse path for θ < h(1/12)).
    const double c =
        sparsecut::theorem3_conductance_bound(1e-30, m, vol, Preset::kPaper) /
        std::cbrt(1e-30);
    const double x = theta / c;
    return x * x * x;
  }
  return theta / 6.0;
}

Schedule derive_schedule(const DecompositionParams& prm, std::size_t n,
                         std::size_t m, std::uint64_t vol) {
  XD_CHECK(prm.epsilon > 0 && prm.epsilon < 1);
  XD_CHECK(prm.k >= 1);
  XD_CHECK(n >= 2 && m >= 1);

  Schedule s;
  // d: smallest integer with (1 - ε/12)^d · 2·C(n,2) < 1 (paper); the
  // practical preset uses the depth balanced splitting actually reaches
  // (O(log n); the driver's depth guard finalizes any excess), which keeps
  // β -- and with it the LDD epoch count -- at bench-executable scale.
  const double nn = static_cast<double>(n);
  const double pairs2 = nn * (nn - 1.0);  // 2·C(n,2)
  const double shrink = -std::log1p(-prm.epsilon / 12.0);
  const double d_paper = std::max(1.0, std::ceil(std::log(pairs2) / shrink));
  const double d_practical = std::ceil(3.0 * std::log(nn)) + 5.0;
  s.d = static_cast<std::uint32_t>(
      prm.preset == Preset::kPaper ? d_paper : std::min(d_paper, d_practical));

  s.beta = (prm.epsilon / 3.0) / static_cast<double>(s.d);

  // φ₀ from the Remove-2 budget: h(φ₀) <= ε / (6 log₂(n²)).
  const double log2_n2 = 2.0 * std::log2(nn);
  const double target0 = prm.epsilon / (6.0 * log2_n2);
  double phi0 = h_inverse(target0, m, vol, prm.preset);
  if (prm.preset == Preset::kPractical) {
    phi0 = std::max(phi0, prm.phi_floor);
  }
  if (prm.phi0_override > 0.0) phi0 = prm.phi0_override;
  s.phi.push_back(phi0);
  for (int i = 1; i <= prm.k; ++i) {
    double next = h_inverse(s.phi.back(), m, vol, prm.preset);
    if (prm.preset == Preset::kPractical) {
      next = std::max(next, prm.phi_floor * std::pow(0.25, i));
    }
    XD_CHECK_MSG(next > 0, "phi schedule underflowed at level " << i);
    s.phi.push_back(next);
  }
  return s;
}

}  // namespace xd::expander
