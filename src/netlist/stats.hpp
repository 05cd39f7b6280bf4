#pragma once
/// \file stats.hpp
/// Summary statistics of a netlist for reports and examples.

#include <map>
#include <string>

#include "netlist/netlist.hpp"

namespace gap::netlist {

struct NetlistStats {
  std::size_t instances = 0;
  std::size_t sequential = 0;
  std::size_t nets = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  int logic_depth = 0;
  double area_um2 = 0.0;
  std::map<std::string, std::size_t> cells_by_func;
};

[[nodiscard]] NetlistStats collect_stats(const Netlist& nl);

}  // namespace gap::netlist
