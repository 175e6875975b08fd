// Checkpoint payload helpers shared by the client and the server: the
// deterministic model-state generator and the payload sum (XXH64, seed 0)
// that the client sends with its commit, the server checks at commit, and
// the client checks again on restore. All of it is host-side bookkeeping;
// none of it is charged virtual time.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/rng.hpp"

namespace gdrshmem::apps::ckpt {

// XXH64 is defined over little-endian 8- and 4-byte loads.
static_assert(std::endian::native == std::endian::little);

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

}  // namespace detail

/// XXH64 with seed 0: four independent 8-byte lanes per 32-byte stripe, then
/// the 8/4/1-byte tails and the final avalanche. Any alignment.
inline std::uint64_t xxh64(const void* data, std::size_t n) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = kP5;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, load64(p));
      v2 = xxh_round(v2, load64(p + 8));
      v3 = xxh_round(v3, load64(p + 16));
      v4 = xxh_round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xxh_round(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

/// The deterministic "model state" of (client, version): both the
/// checkpoint fill and the restore verification regenerate it from the seed.
/// Byte i is byte i % 8 (little-endian) of the (i / 8)-th splitmix64 draw.
inline void fill_model_state(std::uint64_t seed, int ci, std::uint64_t version,
                             std::vector<std::byte>& buf, std::size_t bytes) {
  sim::Rng rng(seed ^ mix64(static_cast<std::uint64_t>(ci) + 1) ^
               mix64(version * 0x9e3779b97f4a7c15ULL + 7));
  buf.resize(bytes);
  std::byte* p = buf.data();
  const std::size_t words = bytes / 8;
  for (std::size_t i = 0; i < words; ++i, p += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p, &w, 8);
  }
  if (const std::size_t tail = bytes % 8; tail != 0) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p, &w, tail);
  }
}

}  // namespace gdrshmem::apps::ckpt
