#include "datapath/multipliers.hpp"

#include <string>

#include "common/check.hpp"

namespace gap::datapath {
namespace {

/// Column-wise partial products: columns[k] = all bits of weight 2^k.
std::vector<std::vector<Lit>> partial_products(Aig& aig,
                                               const std::vector<Lit>& a,
                                               const std::vector<Lit>& b) {
  const std::size_t n = a.size();
  std::vector<std::vector<Lit>> cols(2 * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      cols[i + j].push_back(aig.create_and(a[i], b[j]));
  return cols;
}

std::vector<Lit> array_multiplier(Aig& aig, const std::vector<Lit>& a,
                                  const std::vector<Lit>& b) {
  const std::size_t n = a.size();
  // Row-by-row: acc += (a & b_j) << j using ripple adders (linear depth).
  std::vector<Lit> acc(2 * n, logic::lit_false());
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Lit> row(2 * n, logic::lit_false());
    for (std::size_t i = 0; i < n; ++i)
      row[i + j] = aig.create_and(a[i], b[j]);
    // acc = acc + row (ripple over the affected range).
    Lit carry = logic::lit_false();
    for (std::size_t k = j; k < 2 * n; ++k) {
      const Lit s = aig.create_xor_n({acc[k], row[k], carry});
      carry = aig.create_maj(acc[k], row[k], carry);
      acc[k] = s;
    }
  }
  return acc;
}

/// 3:2 / 2:2 compression of weighted columns followed by a Kogge-Stone
/// carry-propagate add.
std::vector<Lit> compress_and_add(Aig& aig,
                                  std::vector<std::vector<Lit>> cols,
                                  std::size_t out_width) {
  bool more = true;
  while (more) {
    more = false;
    std::vector<std::vector<Lit>> next(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      auto& col = cols[k];
      std::size_t i = 0;
      while (col.size() - i >= 3) {
        const Lit s = aig.create_xor_n({col[i], col[i + 1], col[i + 2]});
        const Lit c = aig.create_maj(col[i], col[i + 1], col[i + 2]);
        next[k].push_back(s);
        if (k + 1 < cols.size()) next[k + 1].push_back(c);
        i += 3;
      }
      if (col.size() - i == 2 && col.size() > 2) {
        const Lit s = aig.create_xor(col[i], col[i + 1]);
        const Lit c = aig.create_and(col[i], col[i + 1]);
        next[k].push_back(s);
        if (k + 1 < cols.size()) next[k + 1].push_back(c);
        i += 2;
      }
      for (; i < col.size(); ++i) next[k].push_back(col[i]);
    }
    cols = std::move(next);
    for (const auto& col : cols)
      if (col.size() > 2) more = true;
  }

  std::vector<Lit> x(cols.size(), logic::lit_false());
  std::vector<Lit> y(cols.size(), logic::lit_false());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (!cols[k].empty()) x[k] = cols[k][0];
    if (cols[k].size() > 1) y[k] = cols[k][1];
  }
  const AdderResult sum =
      build_adder(aig, AdderKind::kKoggeStone, x, y, logic::lit_false());
  std::vector<Lit> out = sum.sum;
  out.resize(out_width, logic::lit_false());
  out.resize(out_width);
  return out;
}

std::vector<Lit> wallace_multiplier(Aig& aig, const std::vector<Lit>& a,
                                    const std::vector<Lit>& b) {
  const std::size_t n = a.size();
  return compress_and_add(aig, partial_products(aig, a, b), 2 * n);
}

}  // namespace

std::vector<Lit> build_multiplier(Aig& aig, MultiplierKind kind,
                                  const std::vector<Lit>& a,
                                  const std::vector<Lit>& b) {
  GAP_EXPECTS(a.size() == b.size());
  GAP_EXPECTS(!a.empty());
  switch (kind) {
    case MultiplierKind::kArray:
      return array_multiplier(aig, a, b);
    case MultiplierKind::kWallace:
      return wallace_multiplier(aig, a, b);
  }
  GAP_EXPECTS(false);
  return {};
}

Aig make_multiplier_aig(MultiplierKind kind, int width) {
  GAP_EXPECTS(width >= 1);
  Aig aig;
  std::vector<Lit> a, b;
  for (int i = 0; i < width; ++i)
    a.push_back(aig.create_pi("a" + std::to_string(i)));
  for (int i = 0; i < width; ++i)
    b.push_back(aig.create_pi("b" + std::to_string(i)));
  const auto prod = build_multiplier(aig, kind, a, b);
  for (std::size_t i = 0; i < prod.size(); ++i)
    aig.add_po(prod[i], "p" + std::to_string(i));
  return aig;
}

}  // namespace gap::datapath
