// Host-side arithmetic behind the 3-5-Sum twin. The twin charges simulated
// time for every candidate's two modulo tests, but the host sums each chunk's
// multiples of 3 or 5 in closed form instead of walking it.
#pragma once

#include <cstddef>

namespace hsm::workloads {

/// Sum of the multiples of `m` in [0, n): m·k(k+1)/2 with k = ⌊(n−1)/m⌋.
[[nodiscard]] constexpr long long sumOfMultiplesBelow(std::size_t n, std::size_t m) {
  if (n == 0) return 0;
  const auto k = static_cast<long long>((n - 1) / m);
  return static_cast<long long>(m) * (k * (k + 1) / 2);
}

/// Σ i over [first, last) with i % 3 == 0 || i % 5 == 0, by inclusion–
/// exclusion: multiples of 3 plus multiples of 5 minus multiples of 15.
[[nodiscard]] constexpr long long sum35Range(std::size_t first, std::size_t last) {
  const auto below = [](std::size_t n) {
    return sumOfMultiplesBelow(n, 3) + sumOfMultiplesBelow(n, 5) -
           sumOfMultiplesBelow(n, 15);
  };
  return below(last) - below(first);
}

/// Σ over [0, limit), derived independently of sum35Range: every period
/// [15q, 15q+15) holds 15q + {0, 3, 5, 6, 9, 10, 12}, which sums to 105q + 45;
/// the partial last period is summed by a loop.
[[nodiscard]] long long sum35Reference(std::size_t limit);

}  // namespace hsm::workloads
