#include "netlist/stats.hpp"

#include "netlist/checks.hpp"

namespace gap::netlist {

NetlistStats collect_stats(const Netlist& nl) {
  NetlistStats s;
  s.instances = nl.num_instances();
  s.sequential = nl.num_sequential();
  s.nets = nl.num_nets();
  for (PortId p : nl.all_ports())
    (nl.port(p).is_input ? s.inputs : s.outputs) += 1;
  s.logic_depth = logic_depth(nl);
  s.area_um2 = nl.total_area_um2();
  for (InstanceId id : nl.all_instances())
    s.cells_by_func[library::traits(nl.cell_of(id).func).name] += 1;
  return s;
}

}  // namespace gap::netlist
