// Host-side arithmetic behind the Count Primes twin (paper Algorithm 11).
// The twin charges simulated time for Algorithm 11's full trial-division
// loop, but the host derives each candidate's result and trial count in
// closed form from a smallest-prime-factor table instead of running it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hsm::workloads {

/// spf[i] = smallest prime factor of i for 2 <= i <= limit (spf[0] =
/// spf[1] = 0). Sieved once in O(limit log log limit).
[[nodiscard]] std::vector<std::uint32_t> smallestPrimeFactors(std::size_t limit);

/// {is_prime, trial_divisions} of Algorithm 11's loop
/// `for (j = 2; j < i; ++j) if (i % j == 0) break;` for candidate `i`.
/// The loop stops at the first divisor, spf(i), so a composite costs
/// spf(i) - 1 trials and a prime i - 2. `i` must be <= the table's limit.
[[nodiscard]] inline std::pair<bool, std::size_t> primeTrials(
    const std::vector<std::uint32_t>& spf, std::size_t i) {
  if (i < 2) return {false, 0};
  if (spf[i] == i) return {true, i - 2};
  return {false, spf[i] - 1};
}

/// π(limit) by a boolean Sieve of Eratosthenes — code independent of the
/// spf table, so the twin's verification compares two separate computations.
[[nodiscard]] long long sievePrimeCount(std::size_t limit);

}  // namespace hsm::workloads
