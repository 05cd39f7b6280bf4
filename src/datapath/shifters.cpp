#include "datapath/shifters.hpp"

#include "common/check.hpp"

namespace gap::datapath {

std::vector<Lit> build_barrel_shifter(Aig& aig, const std::vector<Lit>& data,
                                      const std::vector<Lit>& shift_amount) {
  GAP_EXPECTS(!data.empty());
  GAP_EXPECTS(!shift_amount.empty());
  const std::size_t n = data.size();
  std::vector<Lit> cur = data;
  for (std::size_t s = 0; s < shift_amount.size(); ++s) {
    const std::size_t dist = 1ull << s;
    const Lit sel = shift_amount[s];
    std::vector<Lit> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Lit shifted =
          i >= dist ? cur[i - dist] : logic::lit_false();
      next[i] = aig.create_mux(sel, shifted, cur[i]);
    }
    cur = std::move(next);
  }
  return cur;
}

Lit build_equal(Aig& aig, const std::vector<Lit>& a,
                const std::vector<Lit>& b) {
  GAP_EXPECTS(a.size() == b.size());
  std::vector<Lit> bits;
  for (std::size_t i = 0; i < a.size(); ++i)
    bits.push_back(aig.create_xnor(a[i], b[i]));
  return aig.create_and_n(bits);
}

Lit build_less_than(Aig& aig, const std::vector<Lit>& a,
                    const std::vector<Lit>& b) {
  GAP_EXPECTS(a.size() == b.size());
  // From LSB to MSB: lt_i = (!a_i & b_i) | (a_i==b_i) & lt_{i-1}.
  Lit lt = logic::lit_false();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Lit eq = aig.create_xnor(a[i], b[i]);
    const Lit bi_gt = aig.create_and(!a[i], b[i]);
    lt = aig.create_or(bi_gt, aig.create_and(eq, lt));
  }
  return lt;
}

namespace {

/// (lt, eq) of the slice [lo, hi).
struct LtEq {
  Lit lt;
  Lit eq;
};

LtEq less_than_range(Aig& aig, const std::vector<Lit>& a,
                     const std::vector<Lit>& b, std::size_t lo,
                     std::size_t hi) {
  if (hi - lo == 1) {
    return {aig.create_and(!a[lo], b[lo]), aig.create_xnor(a[lo], b[lo])};
  }
  const std::size_t mid = (lo + hi) / 2;
  const LtEq low = less_than_range(aig, a, b, lo, mid);
  const LtEq high = less_than_range(aig, a, b, mid, hi);
  // High slice dominates; equal high slices defer to the low slice.
  return {aig.create_or(high.lt, aig.create_and(high.eq, low.lt)),
          aig.create_and(high.eq, low.eq)};
}

}  // namespace

Lit build_less_than_tree(Aig& aig, const std::vector<Lit>& a,
                         const std::vector<Lit>& b) {
  GAP_EXPECTS(a.size() == b.size());
  GAP_EXPECTS(!a.empty());
  return less_than_range(aig, a, b, 0, a.size()).lt;
}

}  // namespace gap::datapath
