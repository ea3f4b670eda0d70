// Byte-span hashes, one per job:
//   * fnv1a    — 64-bit FNV-1a, one serial multiply per byte. Every pinned
//                digest (replay read-back digests, the reliability-drill
//                report, segment header CRCs) uses it; its values must never
//                change.
//   * page_tag — the per-page integrity tag simulated devices store on write
//                and verify on read (standing in for T10-DIF / on-media ECC).
//                xxh64-style: four independent 64-bit lanes take the input a
//                word at a time, then a final avalanche. Device tags live
//                only in memory; segment headers carry a fold of them.
#pragma once

#include <cstdint>
#include <span>

namespace kdd {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64 continuation over `bytes`, starting from state `h` (kFnvOffset
/// for a fresh hash).
std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes);

/// 64-bit integrity tag of `bytes`, whose size must be a multiple of 32 (a
/// page is). Never 0, so 0 can mean "no tag yet".
std::uint64_t page_tag(std::span<const std::uint8_t> bytes);

}  // namespace kdd
