/// \file incremental_sta_test.cpp
/// Differential equivalence harness for the incremental timer
/// (sta/incremental.hpp). Randomized edit scripts — cell swaps, continuous
/// resizes, net rewires, clock-constraint changes, seeded via Rng::stream
/// so every script is reproducible — run against both engines, asserting
/// the byte-identity contract: arrivals, slacks, the timing summary and
/// the top-k critical paths from the resident timer must match a
/// from-scratch recompute bit for bit, at any thread count. Plus property
/// tests: edit+undo round-trips to the exact initial state, the same edit
/// set applied in two orders (flushing between edits) converges, and an
/// empty edit set re-propagates zero nodes. A hand-built netlist with
/// waves wider than sta::kWaveDispatchHint covers the pooled branch of
/// every wavefront loop, which alu16's narrow waves never reach.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "library/builders.hpp"
#include "sta/compact_graph.hpp"
#include "sta/incremental.hpp"
#include "sta/sta.hpp"
#include "tech/technology.hpp"
#include "timer_fixtures.hpp"

namespace gap {
namespace {

using netlist::Netlist;
using sta::Edit;
using sta::IncrementalTimer;

/// Register-bounded alu16, placed (timer_fixtures.hpp): its nets carry
/// lengths, so the wire models and the repeater branch take part.
class IncrementalSta : public ::testing::Test {
 protected:
  IncrementalSta()
      : lib_(library::make_rich_asic_library(tech::asic_025um())) {
    base_.emplace(placed_design("alu16", lib_));
  }

  [[nodiscard]] static sta::StaOptions options_for(std::uint64_t script) {
    sta::StaOptions opt;
    // Vary the analysis knobs across scripts so the repeater branch of
    // the wire model and a non-unit corner factor are both exercised.
    opt.optimal_repeaters = script % 3 == 0;
    opt.corner_delay_factor = script % 2 == 0 ? 1.0 : 1.15;
    return opt;
  }

  library::CellLibrary lib_;
  std::optional<Netlist> base_;
};

void expect_bytes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0)
      << what << " differ from the full recompute";
}

void expect_paths_equal(const std::vector<sta::CriticalPath>& got,
                        const std::vector<sta::CriticalPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    const sta::CriticalPath& a = got[p];
    const sta::CriticalPath& b = want[p];
    EXPECT_EQ(a.endpoint_net, b.endpoint_net) << p;
    EXPECT_EQ(a.endpoint.kind, b.endpoint.kind) << p;
    EXPECT_EQ(std::memcmp(&a.path_tau, &b.path_tau, sizeof(double)), 0) << p;
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << p;
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].inst, b.nodes[i].inst) << p << ":" << i;
      EXPECT_EQ(a.nodes[i].input_net, b.nodes[i].input_net) << p << ":" << i;
      EXPECT_EQ(std::memcmp(&a.nodes[i].arrival_tau, &b.nodes[i].arrival_tau,
                            sizeof(double)),
                0)
          << p << ":" << i;
    }
  }
}

/// The full differential check: every query the timer answers, against
/// the batch engine on the timer's current netlist and options.
void expect_equivalent(IncrementalTimer& t) {
  const Netlist& nl = t.netlist();
  const sta::StaOptions opt = t.options();  // reflects clock edits

  expect_bytes_equal(t.arrivals(), sta::net_arrivals(nl, opt), "arrivals");

  const sta::TimingResult full = sta::analyze(nl, opt);
  const sta::TimingResult inc = t.timing();
  EXPECT_EQ(std::memcmp(&inc.worst_path_tau, &full.worst_path_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&inc.min_period_tau, &full.min_period_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&inc.min_period_ps, &full.min_period_ps,
                        sizeof(double)),
            0);
  EXPECT_EQ(inc.num_endpoints, full.num_endpoints);
  EXPECT_EQ(inc.critical_path, full.critical_path);
  expect_bytes_equal(inc.critical_path_arrival_tau,
                     full.critical_path_arrival_tau, "path arrivals");

  const double period = full.min_period_tau;
  expect_bytes_equal(t.slacks(period), sta::net_slacks(nl, opt, period),
                     "slacks at min period");
  // A second period exercises the cached-required invalidation path.
  expect_bytes_equal(t.slacks(period * 1.25),
                     sta::net_slacks(nl, opt, period * 1.25),
                     "slacks at relaxed period");

  expect_paths_equal(t.top_paths(5), sta::top_critical_paths(nl, opt, 5));
}

// --- the differential suite -------------------------------------------------

constexpr std::uint64_t kHarnessSeed = 0xD1FFull;
constexpr int kScripts = 100;
constexpr int kEditsPerScript = 12;

/// >= 100 randomized scripts, alternating serial and 4-lane timers, with
/// the equivalence predicate evaluated mid-script and at the end.
TEST_F(IncrementalSta, RandomScriptsMatchFullRecompute) {
  int applied = 0;
  int rejected = 0;
  for (int script = 0; script < kScripts; ++script) {
    Rng rng = Rng::stream(kHarnessSeed, static_cast<std::uint64_t>(script));
    Netlist nl = *base_;
    IncrementalTimer timer(nl, options_for(static_cast<std::uint64_t>(script)),
                           script % 2 == 0 ? 1 : 4);
    for (int e = 0; e < kEditsPerScript; ++e) {
      const common::Status s = timer.apply(random_edit(rng, nl));
      if (s.ok()) ++applied;
      else ++rejected;
      // Check both freshly after an edit and after edits have batched.
      if (e % 5 == 4) expect_equivalent(timer);
      if (HasFatalFailure()) return;
    }
    expect_equivalent(timer);
    if (HasFatalFailure()) return;
  }
  // Sanity on the generator: the suite exercised real work, and the odd
  // rejected rewire (cycle) stayed harmless.
  EXPECT_GT(applied, kScripts * kEditsPerScript / 2);
  EXPECT_LT(rejected, applied);
}

/// The same script on a serial and a 4-lane timer: every query answers
/// with identical bytes, mid-script and at the end.
TEST_F(IncrementalSta, ThreadCountNeverChangesAnswers) {
  for (int script = 0; script < 10; ++script) {
    Netlist nl1 = *base_;
    Netlist nl4 = *base_;
    const sta::StaOptions opt =
        options_for(static_cast<std::uint64_t>(script));
    IncrementalTimer t1(nl1, opt, 1);
    IncrementalTimer t4(nl4, opt, 4);
    Rng rng1 = Rng::stream(kHarnessSeed + 1, static_cast<std::uint64_t>(script));
    Rng rng4 = Rng::stream(kHarnessSeed + 1, static_cast<std::uint64_t>(script));
    for (int e = 0; e < kEditsPerScript; ++e) {
      const Edit e1 = random_edit(rng1, nl1);
      const Edit e4 = random_edit(rng4, nl4);
      EXPECT_EQ(t1.apply(e1).ok(), t4.apply(e4).ok());
      if (e % 4 == 3) {
        expect_bytes_equal(t1.arrivals(), t4.arrivals(), "arrivals 1 vs 4");
        if (HasFatalFailure()) return;
      }
    }
    const sta::TimingResult r1 = t1.timing();
    const sta::TimingResult r4 = t4.timing();
    EXPECT_EQ(std::memcmp(&r1.min_period_tau, &r4.min_period_tau,
                          sizeof(double)),
              0);
    EXPECT_EQ(r1.critical_path, r4.critical_path);
    expect_bytes_equal(r1.critical_path_arrival_tau,
                       r4.critical_path_arrival_tau, "path arrivals");
    expect_bytes_equal(t1.slacks(r1.min_period_tau),
                       t4.slacks(r4.min_period_tau), "slacks 1 vs 4");
    if (HasFatalFailure()) return;
  }
}

// --- property tests ---------------------------------------------------------

/// apply_undoable + replaying the inverses in reverse order restores the
/// netlist and every timing answer to the exact starting bytes.
TEST_F(IncrementalSta, EditUndoRoundTripIsExact) {
  for (int script = 0; script < 8; ++script) {
    Netlist nl = *base_;
    IncrementalTimer timer(nl, options_for(static_cast<std::uint64_t>(script)),
                           script % 2 == 0 ? 1 : 4);
    const sta::TimingResult before = timer.timing();
    const std::vector<double> slacks_before =
        timer.slacks(before.min_period_tau);

    Rng rng = Rng::stream(kHarnessSeed + 2, static_cast<std::uint64_t>(script));
    std::vector<Edit> inverses;
    for (int e = 0; e < kEditsPerScript; ++e) {
      const auto inv = timer.apply_undoable(random_edit(rng, nl));
      if (inv.ok()) inverses.push_back(*inv);
    }
    ASSERT_FALSE(inverses.empty());
    // Interleave a query so the undo replay starts from flushed state,
    // not from a pending batch that cancels out textually.
    (void)timer.timing();

    for (auto it = inverses.rbegin(); it != inverses.rend(); ++it)
      ASSERT_TRUE(timer.apply(*it).ok());

    const sta::TimingResult after = timer.timing();
    EXPECT_EQ(std::memcmp(&after.min_period_tau, &before.min_period_tau,
                          sizeof(double)),
              0);
    EXPECT_EQ(after.critical_path, before.critical_path);
    expect_bytes_equal(after.critical_path_arrival_tau,
                       before.critical_path_arrival_tau, "path arrivals");
    expect_bytes_equal(timer.slacks(after.min_period_tau), slacks_before,
                       "slacks after undo");
    if (HasFatalFailure()) return;
  }
}

/// The same edit set — one edit per distinct instance, so the final
/// netlist is order-independent — applied forward and reversed, flushing
/// between edits, converges to identical bytes.
TEST_F(IncrementalSta, EditOrderWithInterleavedFlushesConverges) {
  Rng rng = Rng::stream(kHarnessSeed + 3, 0);
  std::vector<Edit> edits;
  for (std::uint32_t i = 0; i < base_->num_instances(); i += 7) {
    const InstanceId id(i);
    if (rng.bernoulli(0.5)) {
      const library::Cell& c = base_->cell_of(id);
      const auto& ladder = base_->lib().cells_of(c.func, c.family);
      edits.push_back(
          Edit::replace_cell(id, ladder[rng.uniform_index(ladder.size())]));
    } else {
      edits.push_back(Edit::set_drive(id, rng.uniform(1.0, 16.0)));
    }
  }
  ASSERT_GT(edits.size(), 10u);

  Netlist fwd = *base_;
  Netlist rev = *base_;
  const sta::StaOptions opt = options_for(0);
  IncrementalTimer tf(fwd, opt, 1);
  IncrementalTimer tr(rev, opt, 4);
  for (const Edit& e : edits) {
    ASSERT_TRUE(tf.apply(e).ok());
    tf.flush();
  }
  for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
    ASSERT_TRUE(tr.apply(*it).ok());
    tr.flush();
  }
  const sta::TimingResult a = tf.timing();
  const sta::TimingResult b = tr.timing();
  EXPECT_EQ(std::memcmp(&a.min_period_tau, &b.min_period_tau, sizeof(double)),
            0);
  EXPECT_EQ(a.critical_path, b.critical_path);
  expect_bytes_equal(a.critical_path_arrival_tau,
                     b.critical_path_arrival_tau, "path arrivals");
  expect_bytes_equal(tf.slacks(a.min_period_tau), tr.slacks(b.min_period_tau),
                     "slacks fwd vs rev");
  expect_bytes_equal(tf.arrivals(), tr.arrivals(), "arrivals fwd vs rev");
}

/// An empty edit set is a no-op: nothing pending, zero nodes
/// re-propagated (observed through the metrics registry), and queries
/// return the same bytes.
TEST_F(IncrementalSta, EmptyEditSetRepropagatesNothing) {
  Netlist nl = *base_;
  IncrementalTimer timer(nl, options_for(0), 2);
  timer.flush();  // the initial full rebuild
  EXPECT_EQ(timer.pending_dirty(), 0u);

  common::Counter& reprops =
      common::metrics().counter("sta.incremental.nodes_repropagated");
  common::Counter& rebuilds =
      common::metrics().counter("sta.incremental.full_rebuilds");
  const std::uint64_t reprops_before = reprops.value();
  const std::uint64_t rebuilds_before = rebuilds.value();

  const sta::TimingResult first = timer.timing();
  const std::vector<double> arrivals = timer.arrivals();
  timer.flush();
  const sta::TimingResult second = timer.timing();

  EXPECT_EQ(reprops.value(), reprops_before);
  EXPECT_EQ(rebuilds.value(), rebuilds_before);
  EXPECT_EQ(timer.pending_dirty(), 0u);
  EXPECT_EQ(std::memcmp(&first.min_period_tau, &second.min_period_tau,
                        sizeof(double)),
            0);
  expect_bytes_equal(timer.arrivals(), arrivals, "arrivals after no-op");
}

/// A rejected edit leaves the pending set, the netlist and every cached
/// answer untouched (the coded-diagnostics side is fault_injection_test's
/// job; byte-exactness is enforced here).
TEST_F(IncrementalSta, RejectedEditLeavesStateExact) {
  Netlist nl = *base_;
  IncrementalTimer timer(nl, options_for(0), 1);
  const sta::TimingResult before = timer.timing();
  const std::size_t pending = timer.pending_dirty();

  const common::Status bad =
      timer.apply(Edit::set_drive(InstanceId(), 4.0));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), common::ErrorCode::kUnknownName);

  EXPECT_EQ(timer.pending_dirty(), pending);
  const sta::TimingResult after = timer.timing();
  EXPECT_EQ(std::memcmp(&after.min_period_tau, &before.min_period_tau,
                        sizeof(double)),
            0);
  EXPECT_EQ(after.critical_path, before.critical_path);
  expect_bytes_equal(after.critical_path_arrival_tau,
                     before.critical_path_arrival_tau, "path arrivals");
}

/// apply_checked() applies what check() accepted, without validating it
/// again, only while the epoch check() returned is current: an edit or
/// an invalidate_all() in between is a contract violation.
TEST_F(IncrementalSta, ApplyCheckedNeedsTheCurrentEpoch) {
  Netlist nl = *base_;
  IncrementalTimer timer(nl, options_for(0), 1);
  const common::Counter& validated =
      common::metrics().counter("sta.incremental.edits_validated");
  const Edit e = Edit::set_drive(InstanceId(3), 6.0);
  const double drive_before = nl.instance(InstanceId(3)).drive_override;

  const auto stale = timer.check(e);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(timer.apply(Edit::set_drive(InstanceId(5), 2.0)).ok());
  {
    const ScopedContractCapture capture;
    EXPECT_THROW((void)timer.apply_checked(e, *stale), ContractViolation);
    const auto before_invalidate = timer.check(e);
    ASSERT_TRUE(before_invalidate.ok());
    timer.invalidate_all();
    EXPECT_THROW((void)timer.apply_checked(e, *before_invalidate),
                 ContractViolation);
  }
  EXPECT_EQ(nl.instance(InstanceId(3)).drive_override, drive_before);

  const std::uint64_t validated_before = validated.value();
  const auto fresh = timer.check(e);
  ASSERT_TRUE(fresh.ok());
  const Edit inverse = timer.apply_checked(e, *fresh);
  EXPECT_EQ(validated.value() - validated_before, 1u);
  EXPECT_EQ(nl.instance(InstanceId(3)).drive_override, 6.0);
  EXPECT_EQ(inverse.kind, Edit::Kind::kSetDriveOverride);
  EXPECT_EQ(inverse.drive, drive_before);
  expect_equivalent(timer);
}

/// invalidate_all() after an out-of-band netlist mutation converges back
/// to the batch engine — the escape hatch gapd's degrade() takes when a
/// session's cached state is suspect (its only caller).
TEST_F(IncrementalSta, InvalidateAllRecoversFromOutOfBandEdits) {
  Netlist nl = *base_;
  IncrementalTimer timer(nl, options_for(0), 2);
  (void)timer.timing();

  // Mutate behind the timer's back, as buffer insertion would.
  nl.instance(InstanceId(0)).drive_override = 9.5;
  nl.net(nl.instance(InstanceId(0)).output).length_um += 25.0;
  timer.invalidate_all();

  expect_equivalent(timer);
}

// --- waves wide enough to dispatch ------------------------------------------

/// One inverter fans out to 2 x kWaveDispatchHint inverters on level 1,
/// and a NAND2 reduction tree joins their outputs into one primary
/// output. An edit of the fan-out driver re-times forward waves of 128
/// and 64 instances; an edit of the tree's root re-times backward
/// (required) waves of 2, 4, ..., 64 and 128 nets. Every instance gets
/// its own drive and every net its own length, so no two slots of a wave
/// hold the same bytes and a value written to the wrong slot shows.
struct WideFanout {
  Netlist nl;
  InstanceId driver;
  InstanceId root;
};

WideFanout wide_fanout(const library::CellLibrary& lib) {
  using library::Family;
  using library::Func;
  const CellId inv = *lib.smallest(Func::kInv, Family::kStatic);
  const CellId nand2 = *lib.smallest(Func::kNand2, Family::kStatic);
  WideFanout w{Netlist("wide_fanout", &lib), {}, {}};
  Netlist& nl = w.nl;
  const PortId a = nl.add_input("a");
  const NetId fan = nl.add_net("fan");
  w.driver = nl.add_instance("drv", inv, {nl.port(a).net}, fan);
  std::vector<NetId> layer;
  for (std::size_t i = 0; i < 2 * sta::kWaveDispatchHint; ++i) {
    const std::string name = "s" + std::to_string(i);
    layer.push_back(nl.add_net(name));
    nl.add_instance(name, inv, {fan}, layer.back());
  }
  for (int depth = 0; layer.size() > 1; ++depth) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const std::string name =
          "t" + std::to_string(depth) + "_" + std::to_string(i / 2);
      next.push_back(nl.add_net(name));
      w.root = nl.add_instance(name, nand2, {layer[i], layer[i + 1]},
                               next.back());
    }
    layer = std::move(next);
  }
  nl.add_output("y", layer.front());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    nl.instance(InstanceId(i)).drive_override = 1.0 + 0.03 * i;
  for (std::uint32_t i = 0; i < nl.num_nets(); ++i)
    nl.net(NetId(i)).length_um = 20.0 + 0.5 * i;
  return w;
}

/// The same set_drive script on a serial and a 4-lane timer over waves
/// that reach the pool: arrivals, slacks and the timing summary agree
/// byte for byte after every edit, and the 4-lane timer dispatches
/// exactly the wide waves — its full sweep, its arrival flush and its
/// required refresh each fan out, while the serial timer never does.
TEST(IncrementalStaWideWaves, PooledWavesMatchSerialBytes) {
  const library::CellLibrary lib =
      library::make_rich_asic_library(tech::asic_025um());
  WideFanout w1 = wide_fanout(lib);
  WideFanout w4 = wide_fanout(lib);
  const sta::StaOptions opt;
  IncrementalTimer t1(w1.nl, opt, 1);
  IncrementalTimer t4(w4.nl, opt, 4);

  const common::Counter& items =
      common::metrics().counter("wall.pool.items_dispatched");
  const auto dispatched_by = [&](auto&& query) {
    const std::uint64_t before = items.value();
    query();
    return items.value() - before;
  };
  constexpr std::uint64_t kWideCone = 3 * sta::kWaveDispatchHint;  // 128+64

  // The full sweep hands the net fan-out and every wide level to the pool.
  EXPECT_EQ(dispatched_by([&] { t1.flush(); }), 0u);
  EXPECT_EQ(dispatched_by([&] { t4.flush(); }),
            w4.nl.num_nets() + kWideCone);

  const double period = t1.timing().min_period_tau;
  const auto expect_same = [&](const char* step) {
    SCOPED_TRACE(step);
    expect_bytes_equal(t1.arrivals(), t4.arrivals(), "arrivals 1 vs 4");
    expect_bytes_equal(t1.slacks(period), t4.slacks(period),
                       "slacks 1 vs 4");
    const sta::TimingResult r1 = t1.timing();
    const sta::TimingResult r4 = t4.timing();
    EXPECT_EQ(std::memcmp(&r1.worst_path_tau, &r4.worst_path_tau,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&r1.min_period_tau, &r4.min_period_tau,
                          sizeof(double)),
              0);
    EXPECT_EQ(r1.critical_path, r4.critical_path);
    expect_bytes_equal(r1.critical_path_arrival_tau,
                       r4.critical_path_arrival_tau, "path arrivals 1 vs 4");
  };
  expect_same("initial");

  const auto edit_both = [&](InstanceId id, double drive) {
    ASSERT_TRUE(t1.apply(Edit::set_drive(id, drive)).ok());
    ASSERT_TRUE(t4.apply(Edit::set_drive(id, drive)).ok());
  };

  // The driver's arc delay moves every fan-out sink and the whole tree:
  // forward waves of 128 and 64 go to the pool in the arrival flush.
  edit_both(w1.driver, 3.0);
  EXPECT_EQ(dispatched_by([&] { (void)t1.arrivals(); }), 0u);
  EXPECT_EQ(dispatched_by([&] { (void)t4.arrivals(); }), kWideCone);
  expect_same("driver edit");

  // The root's arc delay moves the required time of every net below it:
  // backward waves of 64 and 128 go to the pool in the required refresh.
  edit_both(w1.root, 5.0);
  (void)t1.arrivals();
  (void)t4.arrivals();
  EXPECT_EQ(dispatched_by([&] { (void)t1.slacks(period); }), 0u);
  EXPECT_EQ(dispatched_by([&] { (void)t4.slacks(period); }), kWideCone);
  expect_same("root edit");

  // A fan-out sink's pin cap loads the driver, which re-times all of it.
  edit_both(InstanceId(5), 7.5);
  expect_same("sink edit");
  edit_both(w1.driver, 0.0);
  expect_same("driver override cleared");

  expect_equivalent(t4);
}

}  // namespace
}  // namespace gap
