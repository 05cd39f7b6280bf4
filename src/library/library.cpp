#include "library/library.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gap::library {

CellLibrary::CellLibrary(std::string name, tech::Technology technology)
    : name_(std::move(name)),
      tech_(std::move(technology)),
      by_func_(static_cast<std::size_t>(kNumFuncs) * 2) {}

std::size_t CellLibrary::bucket(Func f, Family fam) {
  return static_cast<std::size_t>(f) * 2 + static_cast<std::size_t>(fam);
}

CellId CellLibrary::add(Cell cell) {
  GAP_EXPECTS(cell.drive > 0.0);
  GAP_EXPECTS(!find(cell.name).has_value());
  const CellId id{static_cast<std::uint32_t>(cells_.size())};
  auto& ids = by_func_[bucket(cell.func, cell.family)];
  cells_.push_back(std::move(cell));
  // Keep the bucket sorted by drive (libraries are small; insertion is fine).
  const auto pos = std::upper_bound(
      ids.begin(), ids.end(), id, [this](CellId a, CellId b) {
        return cells_[a.index()].drive < cells_[b.index()].drive;
      });
  ids.insert(pos, id);
  return id;
}

const Cell& CellLibrary::cell(CellId id) const {
  GAP_EXPECTS(id.valid() && id.index() < cells_.size());
  return cells_[id.index()];
}

const std::vector<CellId>& CellLibrary::cells_of(Func f, Family fam) const {
  return by_func_[bucket(f, fam)];
}

bool CellLibrary::has(Func f, Family fam) const {
  return !cells_of(f, fam).empty();
}

std::optional<CellId> CellLibrary::best_for_drive(Func f, Family fam,
                                                  double min_drive) const {
  const auto& ids = cells_of(f, fam);
  if (ids.empty()) return std::nullopt;
  for (CellId id : ids)
    if (cells_[id.index()].drive >= min_drive) return id;
  return ids.back();
}

std::optional<CellId> CellLibrary::smallest(Func f, Family fam) const {
  const auto& ids = cells_of(f, fam);
  if (ids.empty()) return std::nullopt;
  return ids.front();
}

std::optional<CellId> CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i)
    if (cells_[i].name == name) return CellId{static_cast<std::uint32_t>(i)};
  return std::nullopt;
}

}  // namespace gap::library
