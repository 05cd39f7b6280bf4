#include <gtest/gtest.h>

#include "logic/aig.hpp"
#include "logic/transforms.hpp"

namespace gap::logic {
namespace {

TEST(Aig, ConstantPropagation) {
  Aig aig;
  const Lit a = aig.create_pi("a");
  EXPECT_EQ(aig.create_and(a, lit_false()), lit_false());
  EXPECT_EQ(aig.create_and(a, lit_true()), a);
  EXPECT_EQ(aig.create_and(a, a), a);
  EXPECT_EQ(aig.create_and(a, !a), lit_false());
  EXPECT_EQ(aig.create_or(a, lit_true()), lit_true());
  EXPECT_EQ(aig.create_xor(a, a), lit_false());
  EXPECT_EQ(aig.create_xor(a, !a), lit_true());
}

TEST(Aig, StructuralHashingDeduplicates) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(a, b);
  const Lit y = aig.create_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(aig.num_gates(), 1u);
}

TEST(Aig, XorCanonicalization) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_xor(a, b);
  // x ^ !y == !(x ^ y): same node, complemented.
  EXPECT_EQ(aig.create_xor(a, !b), !x);
  EXPECT_EQ(aig.create_xor(!a, !b), x);
  EXPECT_EQ(aig.num_gates(), 1u);
}

TEST(Aig, MuxSimplifications) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit s = aig.create_pi();
  EXPECT_EQ(aig.create_mux(lit_true(), a, b), a);
  EXPECT_EQ(aig.create_mux(lit_false(), a, b), b);
  EXPECT_EQ(aig.create_mux(s, a, a), a);
  EXPECT_EQ(aig.create_mux(s, lit_true(), lit_false()), s);
  EXPECT_EQ(aig.create_mux(s, lit_false(), lit_true()), !s);
}

TEST(Aig, MajSimplifications) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  // maj(a, b, 0) = a & b, maj(a, b, 1) = a | b.
  const Lit and_ab = aig.create_maj(a, b, lit_false());
  const Lit or_ab = aig.create_maj(a, b, lit_true());
  EXPECT_EQ(and_ab, aig.create_and(a, b));
  EXPECT_EQ(or_ab, aig.create_or(a, b));
  EXPECT_EQ(aig.create_maj(a, a, b), a);
  EXPECT_EQ(aig.create_maj(a, !a, b), b);
}

TEST(Aig, SimulateBasicGates) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  aig.add_po(aig.create_and(a, b));
  aig.add_po(aig.create_xor(a, b));
  aig.add_po(aig.create_mux(c, a, b));
  aig.add_po(aig.create_maj(a, b, c));

  const std::uint64_t va = 0xFF00FF00F0F0F0F0ull;
  const std::uint64_t vb = 0x0F0F0F0FAAAAAAAAull;
  const std::uint64_t vc = 0x3333CCCC5555AAAAull;
  const auto r = aig.simulate({va, vb, vc});
  EXPECT_EQ(r[0], va & vb);
  EXPECT_EQ(r[1], va ^ vb);
  EXPECT_EQ(r[2], (vc & va) | (~vc & vb));
  EXPECT_EQ(r[3], (va & vb) | (va & vc) | (vb & vc));
}

TEST(Aig, SimulateComplementedPo) {
  Aig aig;
  const Lit a = aig.create_pi();
  aig.add_po(!a);
  EXPECT_EQ(aig.simulate({0xDEADBEEFull})[0], ~0xDEADBEEFull);
}

TEST(Aig, DepthAndLevels) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  const Lit d = aig.create_pi();
  // Linear chain: depth 3.
  const Lit chain = aig.create_and(aig.create_and(aig.create_and(a, b), c), d);
  aig.add_po(chain);
  EXPECT_EQ(aig.depth(), 3);
}

TEST(Transforms, ExpandXorPreservesFunction) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  aig.add_po(aig.create_xor(a, b));
  ExpandOptions opts;
  opts.expand_xor = true;
  const Aig ex = expand_structural(aig, opts);
  EXPECT_TRUE(equivalent(aig, ex));
  // No structural XOR nodes remain.
  for (std::uint32_t i = 0; i < ex.num_nodes(); ++i)
    EXPECT_NE(ex.node(i).kind, NodeKind::kXor);
}

TEST(Transforms, ExpandMuxMajPreserveFunction) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  aig.add_po(aig.create_mux(a, b, c));
  aig.add_po(aig.create_maj(a, b, c));
  ExpandOptions opts;
  opts.expand_mux = true;
  opts.expand_maj = true;
  const Aig ex = expand_structural(aig, opts);
  EXPECT_TRUE(equivalent(aig, ex));
  for (std::uint32_t i = 0; i < ex.num_nodes(); ++i) {
    EXPECT_NE(ex.node(i).kind, NodeKind::kMux);
    EXPECT_NE(ex.node(i).kind, NodeKind::kMaj);
  }
}

TEST(Transforms, EquivalentDetectsDifference) {
  Aig a, b;
  const Lit a0 = a.create_pi();
  const Lit a1 = a.create_pi();
  a.add_po(a.create_and(a0, a1));
  const Lit b0 = b.create_pi();
  const Lit b1 = b.create_pi();
  b.add_po(b.create_or(b0, b1));
  EXPECT_FALSE(equivalent(a, b));
}

TEST(Transforms, VariadicOpsMatchReference) {
  Aig aig;
  std::vector<Lit> pis;
  for (int i = 0; i < 5; ++i) pis.push_back(aig.create_pi());
  aig.add_po(aig.create_and_n(pis));
  aig.add_po(aig.create_or_n(pis));
  aig.add_po(aig.create_xor_n(pis));

  std::vector<std::uint64_t> v = {0xFFFF0000FFFF0000ull, 0xFF00FF00FF00FF00ull,
                                  0xF0F0F0F0F0F0F0F0ull, 0xCCCCCCCCCCCCCCCCull,
                                  0xAAAAAAAAAAAAAAAAull};
  const auto r = aig.simulate(v);
  EXPECT_EQ(r[0], v[0] & v[1] & v[2] & v[3] & v[4]);
  EXPECT_EQ(r[1], v[0] | v[1] | v[2] | v[3] | v[4]);
  EXPECT_EQ(r[2], v[0] ^ v[1] ^ v[2] ^ v[3] ^ v[4]);
}

}  // namespace
}  // namespace gap::logic
