// Keyed and unkeyed hashing used to model cryptographic constructions
// (enclave measurements, quote MACs, seal keys) without external
// dependencies:
//
//   * SipHash-2-4 — the real algorithm (Aumasson & Bernstein), verified
//     against the reference test vectors; used wherever a keyed MAC is
//     modelled.
//   * FNV-1a 64 — fast unkeyed hashing for identifiers/measurements.
//
// These stand in for the AES-CMAC/EPID primitives of real SGX: the
// security *logic* (who can derive which key, what verifies against what)
// is modelled faithfully; the cipher strength is not the point of the
// reproduction.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace sgxo {

/// 128-bit key for keyed hashing.
struct HashKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;

  constexpr auto operator<=>(const HashKey&) const = default;
};

/// SipHash-2-4 of `data` under `key`.
[[nodiscard]] std::uint64_t siphash24(HashKey key,
                                      std::span<const std::uint8_t> data);
[[nodiscard]] std::uint64_t siphash24(HashKey key, std::string_view data);

/// FNV-1a 64-bit. Passing one call's result as `hash` continues the
/// stream: fnv1a(b, fnv1a(a)) == fnv1a(a + b).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view data, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Derives a sub-key from a parent key and a label — the KDF pattern used
/// for seal keys and the migration key (EGETKEY-style derivation).
[[nodiscard]] HashKey derive_key(HashKey parent, std::string_view label);

/// Hex rendering of a 64-bit digest (16 lowercase hex chars).
[[nodiscard]] std::string to_hex(std::uint64_t value);

}  // namespace sgxo
