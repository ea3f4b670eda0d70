#include "common/hash.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace kdd {

namespace {

// xxh64's primes.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One lane step. Bijective in both `acc` and `word` (odd multipliers, add,
/// rotate), so a change confined to one lane always survives to its end.
std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

}  // namespace

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t page_tag(std::span<const std::uint8_t> bytes) {
  KDD_CHECK(bytes.size() % 32 == 0);
  const std::uint8_t* p = bytes.data();
  std::uint64_t v1 = kP1 + kP2;
  std::uint64_t v2 = kP2;
  std::uint64_t v3 = 0;
  std::uint64_t v4 = 0 - kP1;
  for (std::size_t i = 0; i < bytes.size(); i += 32) {
    v1 = lane_round(v1, load_u64(p + i));
    v2 = lane_round(v2, load_u64(p + i + 8));
    v3 = lane_round(v3, load_u64(p + i + 16));
    v4 = lane_round(v4, load_u64(p + i + 24));
  }
  // Each lane enters through its own rotation and an add, so the merge is
  // bijective in every lane on its own.
  std::uint64_t h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
                    std::rotl(v4, 18) + bytes.size();
  // Avalanche: xor-shifts and odd multiplies, each a bijection.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h != 0 ? h : 1;
}

}  // namespace kdd
