#include "netlist/netlist.hpp"

#include <algorithm>

namespace gap::netlist {

Netlist::Netlist(std::string name, const CellLibrary* lib)
    : name_(std::move(name)), lib_(lib) {
  GAP_EXPECTS(lib_ != nullptr);
}

NetId Netlist::add_net(std::string name) {
  ++version_;
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  Net n;
  n.name = std::move(name);
  nets_.push_back(std::move(n));
  return id;
}

PortId Netlist::add_input(std::string name, double ext_drive) {
  ++version_;
  const NetId net_id = add_net(name);
  const PortId id{static_cast<std::uint32_t>(ports_.size())};
  ports_.push_back(Port{std::move(name), net_id, true, ext_drive});
  Net& n = nets_[net_id.index()];
  n.driver.kind = NetDriver::Kind::kPrimaryInput;
  n.driver.port = id;
  return id;
}

PortId Netlist::add_output(std::string name, NetId net, double load_units) {
  ++version_;
  GAP_EXPECTS(net.valid() && net.index() < nets_.size());
  const PortId id{static_cast<std::uint32_t>(ports_.size())};
  ports_.push_back(Port{std::move(name), net, false, 0.0});
  Net& n = nets_[net.index()];
  NetSink sink;
  sink.kind = NetSink::Kind::kPrimaryOutput;
  sink.port = id;
  n.sinks.push_back(sink);
  n.extra_cap_units += load_units;
  return id;
}

InstanceId Netlist::add_instance(std::string name, CellId cell,
                                 std::vector<NetId> inputs, NetId output) {
  ++version_;
  const library::Cell& c = lib_->cell(cell);
  GAP_EXPECTS(static_cast<int>(inputs.size()) == c.num_inputs());
  GAP_EXPECTS(output.valid() && output.index() < nets_.size());
  GAP_EXPECTS(nets_[output.index()].driver.kind == NetDriver::Kind::kNone);

  const InstanceId id{static_cast<std::uint32_t>(instances_.size())};
  for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
    const NetId in = inputs[pin];
    GAP_EXPECTS(in.valid() && in.index() < nets_.size());
    NetSink sink;
    sink.kind = NetSink::Kind::kInstancePin;
    sink.inst = id;
    sink.pin = static_cast<int>(pin);
    nets_[in.index()].sinks.push_back(sink);
  }
  Net& out = nets_[output.index()];
  out.driver.kind = NetDriver::Kind::kInstance;
  out.driver.inst = id;

  Instance inst;
  inst.name = std::move(name);
  inst.cell = cell;
  inst.inputs = std::move(inputs);
  inst.output = output;
  instances_.push_back(std::move(inst));
  return id;
}

void Netlist::rewire_input(InstanceId inst, int pin, NetId net) {
  ++version_;
  Instance& i = instance(inst);
  GAP_EXPECTS(pin >= 0 && pin < static_cast<int>(i.inputs.size()));
  GAP_EXPECTS(net.valid() && net.index() < nets_.size());
  const NetId old = i.inputs[pin];
  NetSink sink;
  sink.kind = NetSink::Kind::kInstancePin;
  sink.inst = inst;
  sink.pin = pin;
  auto& old_sinks = nets_[old.index()].sinks;
  old_sinks.erase(std::remove(old_sinks.begin(), old_sinks.end(), sink),
                  old_sinks.end());
  nets_[net.index()].sinks.push_back(sink);
  i.inputs[pin] = net;
}

void Netlist::replace_cell(InstanceId inst, CellId cell) {
  ++version_;
  Instance& i = instance(inst);
  const library::Cell& old_cell = lib_->cell(i.cell);
  const library::Cell& new_cell = lib_->cell(cell);
  GAP_EXPECTS(new_cell.func == old_cell.func);
  GAP_EXPECTS(new_cell.num_inputs() == old_cell.num_inputs());
  i.cell = cell;
}

const Instance& Netlist::instance(InstanceId id) const {
  GAP_EXPECTS(id.valid() && id.index() < instances_.size());
  return instances_[id.index()];
}

Instance& Netlist::instance(InstanceId id) {
  GAP_EXPECTS(id.valid() && id.index() < instances_.size());
  return instances_[id.index()];
}

const Net& Netlist::net(NetId id) const {
  GAP_EXPECTS(id.valid() && id.index() < nets_.size());
  return nets_[id.index()];
}

Net& Netlist::net(NetId id) {
  GAP_EXPECTS(id.valid() && id.index() < nets_.size());
  return nets_[id.index()];
}

const Port& Netlist::port(PortId id) const {
  GAP_EXPECTS(id.valid() && id.index() < ports_.size());
  return ports_[id.index()];
}

Port& Netlist::port(PortId id) {
  GAP_EXPECTS(id.valid() && id.index() < ports_.size());
  return ports_[id.index()];
}

double Netlist::net_load(NetId id) const {
  const Net& n = net(id);
  double load = n.extra_cap_units;
  for (const NetSink& s : n.sinks)
    if (s.kind == NetSink::Kind::kInstancePin) load += pin_cap(s.inst);
  load += lib_->technology().cap_to_units(
      lib_->technology().wire_c_ff_per_um * n.length_um);
  return load;
}

std::vector<InstanceId> Netlist::all_instances() const {
  std::vector<InstanceId> out;
  out.reserve(instances_.size());
  for (std::uint32_t i = 0; i < instances_.size(); ++i)
    out.push_back(InstanceId{i});
  return out;
}

std::vector<NetId> Netlist::all_nets() const {
  std::vector<NetId> out;
  out.reserve(nets_.size());
  for (std::uint32_t i = 0; i < nets_.size(); ++i) out.push_back(NetId{i});
  return out;
}

std::vector<PortId> Netlist::all_ports() const {
  std::vector<PortId> out;
  out.reserve(ports_.size());
  for (std::uint32_t i = 0; i < ports_.size(); ++i) out.push_back(PortId{i});
  return out;
}

std::size_t Netlist::num_sequential() const {
  std::size_t n = 0;
  for (const Instance& i : instances_)
    if (lib_->cell(i.cell).is_sequential()) ++n;
  return n;
}

double Netlist::total_area_um2() const {
  double a = 0.0;
  for (const Instance& i : instances_) {
    const library::Cell& c = lib_->cell(i.cell);
    // Drive overrides scale area proportionally (transistor widths).
    const double scale = i.drive_override > 0.0 ? i.drive_override / c.drive : 1.0;
    a += c.area_um2 * scale;
  }
  return a;
}

std::string Netlist::fresh_name(const std::string& prefix) {
  return prefix + "_" + std::to_string(fresh_counter_++);
}

}  // namespace gap::netlist
