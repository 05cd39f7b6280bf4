#include "logic/transforms.hpp"

#include "common/rng.hpp"

namespace gap::logic {
namespace {

/// Rebuilds `src` into a new Aig, applying `translate_node` to each node in
/// topological order. `translate_node(new_aig, node, get)` returns the new
/// literal for the node's positive output, where `get(Lit)` maps an old
/// fanin literal to the new network.
template <typename Fn>
Aig rebuild(const Aig& src, Fn translate_node) {
  Aig out;
  std::vector<Lit> new_lit(src.num_nodes(), lit_false());
  for (std::size_t i = 0; i < src.num_pis(); ++i)
    new_lit[src.pi_node(i)] = out.create_pi(src.pi_name(i));

  auto get = [&](Lit old) {
    const Lit n = new_lit[old.node()];
    return old.complemented() ? !n : n;
  };

  // Nodes are stored in topological order by construction.
  for (std::uint32_t i = 1; i < src.num_nodes(); ++i) {
    const Node& n = src.node(i);
    if (n.kind == NodeKind::kPi) continue;
    new_lit[i] = translate_node(out, n, get);
  }
  for (std::size_t i = 0; i < src.num_pos(); ++i)
    out.add_po(get(src.po(i)), src.po_name(i));
  return out;
}

Lit translate_plain(Aig& out, const Node& n, const auto& get) {
  switch (n.kind) {
    case NodeKind::kAnd:
      return out.create_and(get(n.fanin[0]), get(n.fanin[1]));
    case NodeKind::kXor:
      return out.create_xor(get(n.fanin[0]), get(n.fanin[1]));
    case NodeKind::kMux:
      return out.create_mux(get(n.fanin[0]), get(n.fanin[1]), get(n.fanin[2]));
    case NodeKind::kMaj:
      return out.create_maj(get(n.fanin[0]), get(n.fanin[1]), get(n.fanin[2]));
    default:
      GAP_EXPECTS(false);
  }
  return lit_false();
}

}  // namespace

Aig expand_structural(const Aig& aig, const ExpandOptions& opts) {
  return rebuild(aig, [&](Aig& out, const Node& n, const auto& get) {
    switch (n.kind) {
      case NodeKind::kXor:
        if (opts.expand_xor) {
          const Lit a = get(n.fanin[0]), b = get(n.fanin[1]);
          return out.create_or(out.create_and(a, !b), out.create_and(!a, b));
        }
        break;
      case NodeKind::kMux:
        if (opts.expand_mux) {
          const Lit s = get(n.fanin[0]), t = get(n.fanin[1]),
                    e = get(n.fanin[2]);
          return out.create_or(out.create_and(s, t), out.create_and(!s, e));
        }
        break;
      case NodeKind::kMaj:
        if (opts.expand_maj) {
          const Lit a = get(n.fanin[0]), b = get(n.fanin[1]),
                    c = get(n.fanin[2]);
          return out.create_or(out.create_and(a, b),
                               out.create_and(c, out.create_or(a, b)));
        }
        break;
      default:
        break;
    }
    return translate_plain(out, n, get);
  });
}

bool equivalent(const Aig& a, const Aig& b, int rounds) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  const std::size_t n_pi = a.num_pis();

  if (n_pi <= 16) {
    // Exhaustive: sweep all input combinations, 64 patterns per word.
    const std::uint64_t total = 1ull << n_pi;
    for (std::uint64_t base = 0; base < total; base += 64) {
      std::vector<std::uint64_t> pi(n_pi, 0);
      for (std::uint64_t k = 0; k < 64 && base + k < total; ++k) {
        const std::uint64_t assignment = base + k;
        for (std::size_t i = 0; i < n_pi; ++i)
          if ((assignment >> i) & 1u) pi[i] |= 1ull << k;
      }
      const std::uint64_t valid =
          base + 64 <= total ? ~0ull : (1ull << (total - base)) - 1;
      const auto ra = a.simulate(pi);
      const auto rb = b.simulate(pi);
      for (std::size_t o = 0; o < ra.size(); ++o)
        if ((ra[o] & valid) != (rb[o] & valid)) return false;
    }
    return true;
  }

  Rng rng(0xC0FFEEull);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> pi(n_pi);
    for (auto& v : pi) v = rng.next_u64();
    if (a.simulate(pi) != b.simulate(pi)) return false;
  }
  return true;
}

}  // namespace gap::logic
