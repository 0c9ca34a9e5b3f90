#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sgxo {
namespace {

/// The reference key of the SipHash paper: 000102…0f little-endian.
constexpr HashKey kRefKey{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};

/// Input for vector i is the byte string 00 01 02 … (i-1).
std::vector<std::uint8_t> ref_input(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  return data;
}

TEST(SipHash, ReferenceVectors) {
  // First vectors of the official SipHash-2-4 test vector table
  // (Aumasson & Bernstein, "SipHash: a fast short-input PRF").
  struct Vector {
    std::size_t len;
    std::uint64_t expected;
  };
  const std::vector<Vector> vectors{
      {0, 0x726fdb47dd0e0e31ULL},
      {1, 0x74f839c593dc67fdULL},
      {2, 0x0d6c8009d9a94f5aULL},
      {3, 0x85676696d7fb7e2dULL},
      {4, 0xcf2794e0277187b7ULL},
      {5, 0x18765564cd99a68dULL},
      {6, 0xcbc9466e58fee3ceULL},
      {7, 0xab0200f58b01d137ULL},
      {8, 0x93f5f5799a932462ULL},
      {9, 0x9e0082df0ba9e4b0ULL},
  };
  for (const Vector& v : vectors) {
    const auto input = ref_input(v.len);
    EXPECT_EQ(siphash24(kRefKey, std::span<const std::uint8_t>(input)),
              v.expected)
        << "input length " << v.len;
  }
}

TEST(SipHash, StringViewOverloadAgrees) {
  const auto input = ref_input(9);
  const std::string as_string(input.begin(), input.end());
  EXPECT_EQ(siphash24(kRefKey, std::string_view{as_string}),
            siphash24(kRefKey, std::span<const std::uint8_t>(input)));
}

TEST(SipHash, KeySensitivity) {
  const HashKey other{kRefKey.k0 ^ 1, kRefKey.k1};
  EXPECT_NE(siphash24(kRefKey, "message"), siphash24(other, "message"));
}

TEST(SipHash, InputSensitivity) {
  EXPECT_NE(siphash24(kRefKey, "message"), siphash24(kRefKey, "messagf"));
  EXPECT_NE(siphash24(kRefKey, ""), siphash24(kRefKey, std::string(1, '\0')));
}

TEST(SipHash, AvalancheRoughly) {
  // Flipping one input bit should flip ~32 of 64 output bits.
  const std::uint64_t a = siphash24(kRefKey, "avalanche-test-input");
  const std::uint64_t b = siphash24(kRefKey, "avalanche-test-inpus");
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 10);
  EXPECT_LT(flipped, 54);
}

TEST(Fnv1a, KnownValues) {
  // Standard FNV-1a 64 test values.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ChainedCallsHashTheConcatenation) {
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
  EXPECT_EQ(fnv1a("key", fnv1a("\n", fnv1a("m"))), fnv1a("m\nkey"));
  EXPECT_EQ(fnv1a("", fnv1a("a")), fnv1a("a"));
}

TEST(Fnv1a, IsConstexpr) {
  static_assert(fnv1a("compile-time") != 0);
  SUCCEED();
}

TEST(DeriveKey, DeterministicAndLabelSeparated) {
  const HashKey parent{1, 2};
  const HashKey a1 = derive_key(parent, "seal");
  const HashKey a2 = derive_key(parent, "seal");
  const HashKey b = derive_key(parent, "migration");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  // And parent-separated.
  EXPECT_NE(derive_key(HashKey{3, 4}, "seal"), a1);
}

TEST(ToHex, Formats) {
  EXPECT_EQ(to_hex(0), "0000000000000000");
  EXPECT_EQ(to_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(to_hex(0x0123456789abcdefULL), "0123456789abcdef");
}

}  // namespace
}  // namespace sgxo
