// Tests of the src/gen/ netlist generator family: determinism (same seed
// -> byte-identical netlist), structural validity, and exhaustive oracle
// self-checks at small widths where the full truth table is affordable.
#include <gtest/gtest.h>

#include <set>

#include "api/serialize.hpp"
#include "gen/gen.hpp"
#include "sim_support.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

using test::po_values;
using test::row_bits;

const liberty::Library& cnfet_library() {
  static const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *library;
}

gen::GenOptions options_for(gen::Family family, int width_or_gates,
                            std::uint64_t seed = 1) {
  gen::GenOptions o;
  o.family = family;
  if (family == gen::Family::kRandomDag) {
    o.target_gates = width_or_gates;
  } else {
    o.width = width_or_gates;
  }
  o.seed = seed;
  return o;
}

/// Canonical byte form of a netlist for identity comparisons.
std::string netlist_bytes(const flow::GateNetlist& netlist) {
  return util::json::dump(api::to_json(netlist));
}

TEST(GenFamily, NamesRoundTrip) {
  for (const auto family :
       {gen::Family::kRippleCarryAdder, gen::Family::kCarryLookaheadAdder,
        gen::Family::kArrayMultiplier, gen::Family::kRandomDag}) {
    const auto parsed = gen::family_from_string(gen::to_string(family));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), family);
  }
  EXPECT_FALSE(gen::family_from_string("fft").ok());
}

TEST(GenFamily, SameOptionsAreByteIdentical) {
  const auto& lib = cnfet_library();
  for (const auto family :
       {gen::Family::kRippleCarryAdder, gen::Family::kCarryLookaheadAdder,
        gen::Family::kArrayMultiplier, gen::Family::kRandomDag}) {
    const auto options = options_for(family, 6, 42);
    const auto first = gen::generate(lib, options);
    const auto second = gen::generate(lib, options);
    EXPECT_EQ(first.name, second.name);
    EXPECT_EQ(netlist_bytes(first.netlist), netlist_bytes(second.netlist))
        << gen::to_string(family);
  }
}

TEST(GenFamily, DifferentSeedsGiveDifferentRandomDags) {
  const auto& lib = cnfet_library();
  const auto a = gen::generate(
      lib, options_for(gen::Family::kRandomDag, 50, 1));
  const auto b = gen::generate(
      lib, options_for(gen::Family::kRandomDag, 50, 2));
  EXPECT_NE(netlist_bytes(a.netlist), netlist_bytes(b.netlist));
}

TEST(GenFamily, StructurallyValid) {
  const auto& lib = cnfet_library();
  for (const auto family :
       {gen::Family::kRippleCarryAdder, gen::Family::kCarryLookaheadAdder,
        gen::Family::kArrayMultiplier, gen::Family::kRandomDag}) {
    const auto design = gen::generate(lib, options_for(family, 8, 3));
    const auto& netlist = design.netlist;

    // Exactly one driver per gate-output net; none for primary inputs.
    std::vector<int> drivers(static_cast<std::size_t>(netlist.num_nets()), 0);
    for (const auto& gate : netlist.gates()) {
      ASSERT_NE(gate.cell, nullptr);
      // Fan-in arity matches the cell's pin count.
      EXPECT_EQ(gate.inputs.size(), gate.cell->input_cap.size());
      drivers[static_cast<std::size_t>(gate.output)] += 1;
    }
    const std::set<int> pis(netlist.inputs().begin(), netlist.inputs().end());
    for (int net = 0; net < netlist.num_nets(); ++net) {
      EXPECT_EQ(drivers[static_cast<std::size_t>(net)],
                pis.count(net) != 0U ? 0 : 1)
          << gen::to_string(family) << " net " << net;
    }
    ASSERT_FALSE(netlist.outputs().empty());

    // Acyclic: the topological sort throws on a combinational cycle.
    EXPECT_NO_THROW((void)netlist.topological_order());
  }
}

TEST(GenOracle, RippleCarryExhaustiveSmall) {
  const auto& lib = cnfet_library();
  for (const int width : {1, 2, 3}) {
    const auto design = gen::generate(
        lib, options_for(gen::Family::kRippleCarryAdder, width));
    const auto n = design.netlist.inputs().size();
    ASSERT_EQ(n, static_cast<std::size_t>(2 * width + 1));
    for (std::uint64_t row = 0; row < (1ull << n); ++row) {
      EXPECT_EQ(po_values(design.netlist, row_bits(row, n)),
                design.oracle(row_bits(row, n)))
          << "rca width " << width << " row " << row;
    }
  }
}

TEST(GenOracle, CarryLookaheadExhaustiveAcrossBlockBoundary) {
  const auto& lib = cnfet_library();
  // Width 5 spans two lookahead blocks (4 + 1): 2^11 rows.
  for (const int width : {2, 5}) {
    const auto design = gen::generate(
        lib, options_for(gen::Family::kCarryLookaheadAdder, width));
    const auto n = design.netlist.inputs().size();
    for (std::uint64_t row = 0; row < (1ull << n); ++row) {
      EXPECT_EQ(po_values(design.netlist, row_bits(row, n)),
                design.oracle(row_bits(row, n)))
          << "cla width " << width << " row " << row;
    }
  }
}

TEST(GenOracle, MultiplierExhaustiveSmall) {
  const auto& lib = cnfet_library();
  for (const int width : {1, 2, 3}) {
    const auto design = gen::generate(
        lib, options_for(gen::Family::kArrayMultiplier, width));
    const auto n = design.netlist.inputs().size();
    ASSERT_EQ(n, static_cast<std::size_t>(2 * width));
    ASSERT_EQ(design.netlist.outputs().size(),
              static_cast<std::size_t>(width == 1 ? 1 : 2 * width));
    for (std::uint64_t row = 0; row < (1ull << n); ++row) {
      EXPECT_EQ(po_values(design.netlist, row_bits(row, n)),
                design.oracle(row_bits(row, n)))
          << "mul width " << width << " row " << row;
    }
  }
}

TEST(GenOracle, RandomDagExhaustiveSmall) {
  const auto& lib = cnfet_library();
  auto options = options_for(gen::Family::kRandomDag, 40, 9);
  options.num_inputs = 8;
  const auto design = gen::generate(lib, options);
  EXPECT_EQ(design.netlist.gates().size(), 40U);
  for (std::uint64_t row = 0; row < 256; ++row) {
    EXPECT_EQ(po_values(design.netlist, row_bits(row, 8)),
              design.oracle(row_bits(row, 8)))
        << "row " << row;
  }
}

TEST(GenOracle, AddersAgreeOnSampledVectors) {
  const auto& lib = cnfet_library();
  const int width = 16;
  const auto rca = gen::generate(
      lib, options_for(gen::Family::kRippleCarryAdder, width));
  const auto cla = gen::generate(
      lib, options_for(gen::Family::kCarryLookaheadAdder, width));
  const auto n = rca.netlist.inputs().size();
  ASSERT_EQ(n, cla.netlist.inputs().size());
  for (const auto& vec : gen::sample_vectors(n, 64, 7)) {
    const auto expect = rca.oracle(vec);
    EXPECT_EQ(po_values(rca.netlist, vec), expect);
    EXPECT_EQ(po_values(cla.netlist, vec), expect);
  }
}

// simulate_words against every family's oracle on every lane: 19 words
// (two full 8-word blocks and a partial one) of seeded patterns, with
// rca32's 65 inputs past the width of one packed row.
TEST(GenOracle, SimulateWordsMatchesEveryFamilyOnEveryLane) {
  const auto& lib = cnfet_library();
  auto rand = options_for(gen::Family::kRandomDag, 300, 4);
  rand.num_inputs = 24;
  for (const auto& options :
       {options_for(gen::Family::kRippleCarryAdder, 32),
        options_for(gen::Family::kCarryLookaheadAdder, 9),
        options_for(gen::Family::kArrayMultiplier, 5), rand}) {
    const auto design = gen::generate(lib, options);
    SCOPED_TRACE(design.name);
    const auto& netlist = design.netlist;
    const std::size_t n = netlist.inputs().size();
    const std::size_t outs = netlist.outputs().size();
    constexpr std::size_t kWords = 19;
    std::vector<std::uint64_t> in(kWords * n);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = util::derive_stream(99, i);
    }
    const auto out = netlist.simulate_words(in, kWords, netlist.outputs());
    ASSERT_EQ(out.size(), kWords * outs);
    int mismatches = 0;
    for (std::size_t w = 0; w < kWords; ++w) {
      for (unsigned b = 0; b < 64; ++b) {
        std::vector<bool> vec(n);
        for (std::size_t i = 0; i < n; ++i) vec[i] = (in[w * n + i] >> b) & 1;
        std::vector<bool> got(outs);
        for (std::size_t o = 0; o < outs; ++o) {
          got[o] = (out[w * outs + o] >> b) & 1;
        }
        if (got != design.oracle(vec)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(GenSampleVectors, IndependentOfCount) {
  const auto few = gen::sample_vectors(100, 5, 11);
  const auto many = gen::sample_vectors(100, 20, 11);
  for (std::size_t i = 0; i < few.size(); ++i) EXPECT_EQ(few[i], many[i]);
  // And a different seed actually changes the stimulus.
  EXPECT_NE(gen::sample_vectors(100, 5, 12)[0], few[0]);
}

TEST(GenToExpressions, MatchesOracleThroughTheMapper) {
  const auto& lib = cnfet_library();
  const auto design = gen::generate(
      lib, options_for(gen::Family::kRippleCarryAdder, 4));
  const auto specs = gen::to_expressions(design.netlist);
  std::vector<std::string> input_names;
  for (const int pi : design.netlist.inputs()) {
    input_names.push_back(design.netlist.net_name(pi));
  }
  const auto mapped = flow::map_expressions(specs, input_names, lib);
  ASSERT_TRUE(flow::verify_mapping(mapped, specs));
  const auto n = input_names.size();
  for (std::uint64_t row = 0; row < (1ull << n); ++row) {
    EXPECT_EQ(po_values(mapped.netlist, row_bits(row, n)),
              design.oracle(row_bits(row, n)))
        << "row " << row;
  }
}

TEST(GenToExpressions, BudgetStopsReconvergentBlowup) {
  const auto& lib = cnfet_library();
  auto options = options_for(gen::Family::kRandomDag, 400, 5);
  options.num_inputs = 8;
  const auto design = gen::generate(lib, options);
  EXPECT_THROW((void)gen::to_expressions(design.netlist, 1000), util::Error);
}

}  // namespace
}  // namespace cnfet
