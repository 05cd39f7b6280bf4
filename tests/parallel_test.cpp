/// \file parallel_test.cpp
/// The determinism contract of the parallel execution layer
/// (docs/parallelism.md): for every ThreadPool consumer, results at
/// threads = 1 and threads = 4 are bit-identical (same counter-based RNG
/// streams, same ordering), and two runs at the same thread count agree.
/// Plus ThreadPool unit behavior: empty ranges, more tasks than threads,
/// exception propagation, reuse after failure.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/sweep.hpp"
#include "sizing/tilos.hpp"
#include "sta/statistical.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"
#include "variation/variation.hpp"

namespace gap {
namespace {

// --- ThreadPool unit tests -------------------------------------------------

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(common::resolve_threads(0), 1);
  EXPECT_EQ(common::resolve_threads(1), 1);
  EXPECT_EQ(common::resolve_threads(7), 7);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  common::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  common::parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MoreTasksThanThreadsCoversEveryIndexOnce) {
  common::ThreadPool pool(4);
  constexpr std::size_t kN = 1003;  // deliberately not a multiple of 4
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, MoreThreadsThanTasks) {
  common::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  common::ThreadPool pool(4);
  const auto out =
      pool.parallel_map(100, [](std::size_t i) { return 3.0 * static_cast<double>(i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], 3.0 * static_cast<double>(i));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("lane fault");
                        }),
      std::runtime_error);

  // Serial path (single lane) propagates too.
  common::ThreadPool serial(1);
  EXPECT_THROW(serial.parallel_for(
                   8, [](std::size_t) { throw std::logic_error("serial"); }),
               std::logic_error);

  // The pool survives a failed job.
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, FreeFunctionMatchesSerialLoop) {
  std::vector<double> serial(257), parallel(257);
  for (std::size_t i = 0; i < serial.size(); ++i)
    serial[i] = static_cast<double>(i * i);
  common::parallel_for(4, parallel.size(), [&](std::size_t i) {
    parallel[i] = static_cast<double>(i * i);
  });
  EXPECT_EQ(serial, parallel);
}

// --- Counter-based RNG streams ---------------------------------------------

TEST(RngStream, PureFunctionOfSeedAndIndex) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, DistinctIndicesDecorrelated) {
  Rng a = Rng::stream(42, 0);
  Rng b = Rng::stream(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_EQ(equal, 0);
}

// --- Consumer equivalence ---------------------------------------------------

class ParallelConsumers : public ::testing::Test {
 protected:
  ParallelConsumers()
      : lib_(library::make_rich_asic_library(tech::asic_025um())),
        nl_(synth::map_to_netlist(
            designs::make_design("alu16", designs::DatapathStyle::kSynthesized),
            lib_, synth::MapOptions{}, "alu")) {
    sizing::initial_drive_assignment(nl_);
  }

  library::CellLibrary lib_;
  netlist::Netlist nl_;
};

TEST_F(ParallelConsumers, McStaBitIdenticalAcrossThreadCounts) {
  sta::McStaOptions opt;
  opt.samples = 60;
  opt.sigma_gate = 0.10;
  opt.sigma_die = 0.05;
  opt.seed = 9;

  opt.threads = 1;
  const auto serial = sta::monte_carlo_sta(nl_, opt);
  opt.threads = 4;
  const auto parallel = sta::monte_carlo_sta(nl_, opt);
  const auto parallel2 = sta::monte_carlo_sta(nl_, opt);

  // Same seeds -> same per-sample periods, in the same order, hence the
  // same quantiles to the last bit.
  EXPECT_EQ(serial.period_tau.samples(), parallel.period_tau.samples());
  EXPECT_EQ(serial.period_tau.quantile(0.5), parallel.period_tau.quantile(0.5));
  EXPECT_EQ(serial.period_tau.quantile(0.95),
            parallel.period_tau.quantile(0.95));
  EXPECT_EQ(serial.nominal_period_tau, parallel.nominal_period_tau);
  // Reproducible at a fixed thread count, too.
  EXPECT_EQ(parallel.period_tau.samples(), parallel2.period_tau.samples());
}

TEST_F(ParallelConsumers, SweepBitIdenticalAcrossThreadCounts) {
  std::vector<netlist::SweepPoint> points;
  for (int i = 0; i < 17; ++i)
    points.push_back({0.6 + 0.05 * i, 0.5 * i});
  const auto metric = [](const netlist::Netlist& n) {
    return sta::analyze(n, sta::StaOptions{}).min_period_tau;
  };
  const auto serial = netlist::sweep_parameters(nl_, points, metric, {1});
  const auto parallel = netlist::sweep_parameters(nl_, points, metric, {4});
  EXPECT_EQ(serial, parallel);

  // The sweep really perturbs: the last point's extra cap (8.0 units per
  // net) moves the period off the untouched netlist's, and the identity
  // point reproduces it. The fixture is unplaced, so wire_length_scale
  // alone would change nothing.
  EXPECT_NE(serial.back(), metric(nl_));
  EXPECT_EQ(netlist::sweep_parameters(nl_, {netlist::SweepPoint{}}, metric)[0],
            metric(nl_));
}

TEST_F(ParallelConsumers, VariationBitIdenticalAcrossThreadCounts) {
  const auto fab = variation::merchant_fab();
  const auto serial = variation::monte_carlo_speeds(fab, 5000, 3, 1);
  const auto parallel = variation::monte_carlo_speeds(fab, 5000, 3, 4);
  const auto hardware = variation::monte_carlo_speeds(fab, 5000, 3, 0);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, hardware);

  const auto sb = variation::bin_stats(serial, variation::SignoffDerating{});
  const auto pb = variation::bin_stats(parallel, variation::SignoffDerating{});
  EXPECT_EQ(sb.typical, pb.typical);
  EXPECT_EQ(sb.worst_case_quote, pb.worst_case_quote);
}

}  // namespace
}  // namespace gap
