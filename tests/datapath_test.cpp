#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "datapath/adders.hpp"
#include "datapath/multipliers.hpp"
#include "datapath/shifters.hpp"

namespace gap::datapath {
namespace {

/// Drive an adder AIG with one 64-pattern word per input bit, where
/// pattern k of input bit i is bit i of operand_k.
std::vector<std::uint64_t> bit_words(const std::vector<std::uint64_t>& operands,
                                     int width) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(width), 0);
  for (std::size_t k = 0; k < operands.size(); ++k)
    for (int i = 0; i < width; ++i)
      if ((operands[k] >> i) & 1u) words[static_cast<std::size_t>(i)] |= 1ull << k;
  return words;
}

std::uint64_t extract_result(const std::vector<std::uint64_t>& po_words,
                             std::size_t pattern, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    if ((po_words[static_cast<std::size_t>(i)] >> pattern) & 1u) v |= 1ull << i;
  return v;
}

class AdderCorrectness
    : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(AdderCorrectness, MatchesIntegerAddition) {
  const auto [kind, width] = GetParam();
  const Aig aig = make_adder_aig(kind, width);
  ASSERT_EQ(aig.num_pis(), static_cast<std::size_t>(2 * width + 1));
  ASSERT_EQ(aig.num_pos(), static_cast<std::size_t>(width + 1));

  Rng rng(0xADD5EED);
  const std::uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  // 64 random (a, b, cin) triples evaluated in one parallel simulation.
  std::vector<std::uint64_t> as(64), bs(64);
  std::uint64_t cins = rng.next_u64();
  for (int k = 0; k < 64; ++k) {
    as[k] = rng.next_u64() & mask;
    bs[k] = rng.next_u64() & mask;
  }
  std::vector<std::uint64_t> pi = bit_words(as, width);
  const auto bw = bit_words(bs, width);
  pi.insert(pi.end(), bw.begin(), bw.end());
  pi.push_back(cins);

  const auto po = aig.simulate(pi);
  for (std::size_t k = 0; k < 64; ++k) {
    const std::uint64_t cin = (cins >> k) & 1u;
    const std::uint64_t expect = as[k] + bs[k] + cin;
    const std::uint64_t got_sum = extract_result(po, k, width);
    const std::uint64_t got_cout = (po[static_cast<std::size_t>(width)] >> k) & 1u;
    EXPECT_EQ(got_sum, expect & mask);
    EXPECT_EQ(got_cout, (expect >> width) & 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndWidths, AdderCorrectness,
    ::testing::Combine(::testing::Values(AdderKind::kRipple,
                                         AdderKind::kCarryLookahead,
                                         AdderKind::kCarrySelect,
                                         AdderKind::kKoggeStone,
                                         AdderKind::kCarrySkip,
                                         AdderKind::kBrentKung),
                       ::testing::Values(1, 2, 3, 8, 16, 32)),
    [](const auto& info) {
      std::string n = adder_name(std::get<0>(info.param));
      for (char& c : n) if (c == '-') c = '_';
      return n + "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(AdderDepth, FastArchitecturesShallower) {
  const int w = 32;
  const int d_ripple = make_adder_aig(AdderKind::kRipple, w).depth();
  const int d_cla = make_adder_aig(AdderKind::kCarryLookahead, w).depth();
  const int d_csel = make_adder_aig(AdderKind::kCarrySelect, w).depth();
  const int d_ks = make_adder_aig(AdderKind::kKoggeStone, w).depth();
  EXPECT_LT(d_cla, d_ripple);
  EXPECT_LT(d_csel, d_ripple);
  EXPECT_LT(d_ks, d_cla);
  EXPECT_LE(d_ks, 12);       // log-depth
  EXPECT_GE(d_ripple, w);    // linear depth
}

TEST(AdderDepth, KoggeStoneScalesLogarithmically) {
  const int d16 = make_adder_aig(AdderKind::kKoggeStone, 16).depth();
  const int d64 = make_adder_aig(AdderKind::kKoggeStone, 64).depth();
  // Quadrupling the width should add only ~2 prefix levels.
  EXPECT_LE(d64 - d16, 4);
}

class MultiplierCorrectness
    : public ::testing::TestWithParam<std::tuple<MultiplierKind, int>> {};

TEST_P(MultiplierCorrectness, MatchesIntegerMultiplication) {
  const auto [kind, width] = GetParam();
  const Aig aig = make_multiplier_aig(kind, width);
  ASSERT_EQ(aig.num_pos(), static_cast<std::size_t>(2 * width));

  Rng rng(0x12345);
  const std::uint64_t mask = (1ull << width) - 1;
  std::vector<std::uint64_t> as(64), bs(64);
  for (int k = 0; k < 64; ++k) {
    as[k] = rng.next_u64() & mask;
    bs[k] = rng.next_u64() & mask;
  }
  std::vector<std::uint64_t> pi = bit_words(as, width);
  const auto bw = bit_words(bs, width);
  pi.insert(pi.end(), bw.begin(), bw.end());

  const auto po = aig.simulate(pi);
  for (std::size_t k = 0; k < 64; ++k) {
    const std::uint64_t expect = as[k] * bs[k];
    EXPECT_EQ(extract_result(po, k, 2 * width), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndWidths, MultiplierCorrectness,
    ::testing::Combine(::testing::Values(MultiplierKind::kArray,
                                         MultiplierKind::kWallace),
                       ::testing::Values(2, 4, 8, 16)),
    [](const auto& info) {
      const std::string n =
          std::get<0>(info.param) == MultiplierKind::kArray ? "array"
                                                             : "wallace";
      return n + "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(MultiplierDepth, WallaceShallowerThanArray) {
  const int w = 16;
  const int d_arr = make_multiplier_aig(MultiplierKind::kArray, w).depth();
  const int d_wal = make_multiplier_aig(MultiplierKind::kWallace, w).depth();
  EXPECT_LT(d_wal, d_arr / 2);
}

/// A width-bit left shifter: data PIs first, then log2(width) amount PIs.
Aig barrel_shifter_aig(int width) {
  Aig aig;
  std::vector<Lit> data, amount;
  for (int i = 0; i < width; ++i) data.push_back(aig.create_pi());
  for (int i = 1; i < width; i *= 2) amount.push_back(aig.create_pi());
  for (Lit q : build_barrel_shifter(aig, data, amount)) aig.add_po(q);
  return aig;
}

TEST(BarrelShifter, MatchesShift) {
  const int w = 16;
  const Aig aig = barrel_shifter_aig(w);
  Rng rng(0x5417);
  std::vector<std::uint64_t> data(64), amounts(64);
  for (int k = 0; k < 64; ++k) {
    data[k] = rng.next_u64() & 0xFFFF;
    amounts[k] = rng.uniform_index(16);
  }
  std::vector<std::uint64_t> pi = bit_words(data, w);
  const auto aw = bit_words(amounts, 4);
  pi.insert(pi.end(), aw.begin(), aw.end());
  const auto po = aig.simulate(pi);
  for (std::size_t k = 0; k < 64; ++k) {
    const std::uint64_t expect = (data[k] << amounts[k]) & 0xFFFF;
    EXPECT_EQ(extract_result(po, k, w), expect);
  }
}

TEST(BarrelShifter, LogDepth) {
  EXPECT_LE(barrel_shifter_aig(32).depth(), 8);
}

TEST(Comparators, EqualAndLessThan) {
  Aig aig;
  std::vector<Lit> a, b;
  const int w = 8;
  for (int i = 0; i < w; ++i) a.push_back(aig.create_pi());
  for (int i = 0; i < w; ++i) b.push_back(aig.create_pi());
  aig.add_po(build_equal(aig, a, b));
  aig.add_po(build_less_than(aig, a, b));

  Rng rng(0xC0DE);
  std::vector<std::uint64_t> as(64), bs(64);
  for (int k = 0; k < 64; ++k) {
    as[k] = rng.next_u64() & 0xFF;
    // Bias towards equality now and then.
    bs[k] = rng.bernoulli(0.25) ? as[k] : rng.next_u64() & 0xFF;
  }
  std::vector<std::uint64_t> pi = bit_words(as, w);
  const auto bw = bit_words(bs, w);
  pi.insert(pi.end(), bw.begin(), bw.end());
  const auto po = aig.simulate(pi);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_EQ((po[0] >> k) & 1u, as[k] == bs[k] ? 1u : 0u);
    EXPECT_EQ((po[1] >> k) & 1u, as[k] < bs[k] ? 1u : 0u);
  }
}

}  // namespace
}  // namespace gap::datapath
