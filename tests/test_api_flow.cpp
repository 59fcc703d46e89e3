// Tests of the public api:: pipeline: stage progression, Result<T> error
// paths (no exception ever escapes the boundary), library sharing through
// LibraryCache, batch report aggregation, and a golden equivalence check
// between api::Flow and the legacy free-function path.
#include <gtest/gtest.h>

#include <sstream>

#include "api/batch.hpp"
#include "api/flow.hpp"
#include "flow/gds_export.hpp"

namespace cnfet {
namespace {

api::LibraryHandle cnfet_library() {
  return api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
}

TEST(ApiFlow, StageProgressionProducesTypedArtifacts) {
  auto flow_result = api::Flow::from_cell("NAND2");
  ASSERT_TRUE(flow_result.ok());
  auto& flow = flow_result.value();

  EXPECT_EQ(flow.stage(), api::Stage::kCreated);
  EXPECT_EQ(flow.name(), "NAND2");  // from_cell names the flow after the cell
  EXPECT_EQ(flow.mapped(), nullptr);
  EXPECT_EQ(flow.timed(), nullptr);
  EXPECT_EQ(flow.placed(), nullptr);
  EXPECT_EQ(flow.signed_off(), nullptr);
  EXPECT_EQ(flow.exported(), nullptr);
  EXPECT_FALSE(flow.netlist().ok());

  ASSERT_TRUE(flow.map().ok());
  EXPECT_EQ(flow.stage(), api::Stage::kMapped);
  ASSERT_NE(flow.mapped(), nullptr);
  EXPECT_GT(flow.mapped()->map.total_gates(), 0);
  EXPECT_TRUE(flow.mapped()->verified);
  EXPECT_TRUE(flow.netlist().ok());

  ASSERT_TRUE(flow.time().ok());
  EXPECT_EQ(flow.stage(), api::Stage::kTimed);
  ASSERT_NE(flow.timed(), nullptr);
  EXPECT_GT(flow.timed()->timing.worst_arrival, 0.0);
  EXPECT_GT(flow.timed()->edp_js(), 0.0);

  // Default FlowOptions leave optimization off: the stage passes through
  // with the Timed numbers and the netlist untouched.
  ASSERT_TRUE(flow.optimize().ok());
  EXPECT_EQ(flow.stage(), api::Stage::kOptimized);
  ASSERT_NE(flow.optimized(), nullptr);
  EXPECT_FALSE(flow.optimized()->enabled);
  EXPECT_EQ(flow.optimized()->timing.worst_arrival,
            flow.timed()->timing.worst_arrival);

  ASSERT_TRUE(flow.place().ok());
  ASSERT_NE(flow.placed(), nullptr);
  EXPECT_EQ(flow.placed()->placement.instances.size(),
            flow.netlist().value()->gates().size());

  ASSERT_TRUE(flow.sign_off().ok());
  ASSERT_NE(flow.signed_off(), nullptr);
  EXPECT_TRUE(flow.signed_off()->clean());

  ASSERT_TRUE(flow.export_design().ok());
  EXPECT_EQ(flow.stage(), api::Stage::kExported);
  ASSERT_NE(flow.exported(), nullptr);
  EXPECT_FALSE(flow.exported()->gds.structures.empty());

  const auto metrics = flow.metrics();
  EXPECT_EQ(metrics.stage, api::Stage::kExported);
  EXPECT_GT(metrics.placed_area_lambda2, 0.0);
  EXPECT_TRUE(metrics.all_immune);
  EXPECT_EQ(metrics.drc_violations, 0);
}

TEST(ApiFlow, RunAdvancesToTargetAndStops) {
  auto flow = api::Flow::from_cell("NOR2");
  ASSERT_TRUE(flow.ok());
  const auto reached = flow.value().run(api::Stage::kTimed);
  ASSERT_TRUE(reached.ok());
  EXPECT_EQ(reached.value(), api::Stage::kTimed);
  EXPECT_NE(flow.value().timed(), nullptr);
  EXPECT_EQ(flow.value().placed(), nullptr);
}

TEST(ApiFlow, UnknownCellIsAResultNotAThrow) {
  const auto flow = api::Flow::from_cell("XOR9");
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.error().severity, util::Severity::kError);
  EXPECT_NE(flow.error().message.find("XOR9"), std::string::npos);
}

TEST(ApiFlow, UndeclaredInputsFailMappingWithoutThrowing) {
  // The expression uses three variables but only one input is declared:
  // the mapper's internal contract violation must surface as a Diagnostic.
  std::vector<flow::OutputSpec> outputs;
  outputs.push_back({"f", logic::parse_expr("A*B+C"), false});
  auto flow = api::Flow::from_expressions(outputs, {"A"});
  ASSERT_TRUE(flow.ok());
  const auto mapped = flow.value().map();
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(flow.value().stage(), api::Stage::kCreated);
  EXPECT_TRUE(flow.value().diagnostics().has_errors());
}

TEST(ApiFlow, StageOrderViolationsAreDiagnosed) {
  auto flow = api::Flow::from_cell("INV");
  ASSERT_TRUE(flow.ok());
  auto& f = flow.value();
  EXPECT_FALSE(f.time().ok());       // requires Mapped
  EXPECT_FALSE(f.optimize().ok());   // requires Timed
  EXPECT_FALSE(f.place().ok());      // requires Optimized
  EXPECT_FALSE(f.export_design().ok());
  ASSERT_TRUE(f.map().ok());
  EXPECT_FALSE(f.map().ok());        // already mapped
  EXPECT_EQ(f.stage(), api::Stage::kMapped);
}

TEST(ApiFlow, MissingDriveStrengthFailsAsDiagnostic) {
  api::FlowOptions options;
  options.drive = 3.0;  // no *_3X cells exist in the library
  auto flow = api::Flow::from_cell("NAND2", options);
  ASSERT_TRUE(flow.ok());
  const auto mapped = flow.value().map();
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.error().message.find("3X"), std::string::npos);
}

// A drive the library lacks names the family's drives; a drive that is
// not a positive integer is refused before any cell name is formed.
TEST(ApiFlow, UnavailableOrFractionalDrivesFailMapWithTheirReason) {
  const auto map_error = [](const std::string& cell, double drive,
                            double output_drive) {
    api::FlowOptions options;
    options.drive = drive;
    options.output_drive = output_drive;
    auto flow = api::Flow::from_cell(cell, options);
    EXPECT_TRUE(flow.ok());
    const auto mapped = flow.value().map();
    EXPECT_FALSE(mapped.ok());
    EXPECT_EQ(flow.value().stage(), api::Stage::kCreated);
    return mapped.ok() ? util::Diagnostic{} : mapped.error();
  };
  // NAND3 maps through NOR2, which the library has at 1X only.
  const auto nor = map_error("NAND3", 2.0, 0.0);
  EXPECT_EQ(nor.stage, "map");
  EXPECT_EQ(nor.message,
            "no such library cell: NOR2_2X (NOR2 drives in the library: 1)");
  const auto nand = map_error("NAND2", 7.0, 0.0);
  EXPECT_EQ(nand.message,
            "no such library cell: NAND2_7X (NAND2 drives in the library: "
            "1, 2, 4)");
  for (const double bad : {1.5, 0.0, -2.0}) {
    const auto drive = map_error("NAND2", bad, 0.0);
    EXPECT_EQ(drive.stage, "map");
    EXPECT_NE(drive.message.find("is not a positive integer"),
              std::string::npos)
        << drive.message;
  }
  EXPECT_EQ(map_error("NAND2", 1.0, 1.5).message,
            "drive 1.5 is not a positive integer");
  EXPECT_EQ(map_error("NAND2", 1.0, -2.0).message,
            "drive -2 is not a positive integer");
  // The drives the library has keep working.
  for (const char* cell : {"INV", "NAND2"}) {
    api::FlowOptions options;
    options.drive = 2.0;
    auto flow = api::Flow::from_cell(cell, options);
    ASSERT_TRUE(flow.ok());
    EXPECT_TRUE(flow.value().map().ok()) << cell;
  }
}

TEST(ApiFlow, WriteGdsToBadPathFailsCleanly) {
  auto flow = api::Flow::from_cell("INV");
  ASSERT_TRUE(flow.ok());
  // Before export: stage error.
  EXPECT_FALSE(flow.value().write_gds("x.gds").ok());
  ASSERT_TRUE(flow.value().run().ok());
  const auto written =
      flow.value().write_gds("/nonexistent-dir/deep/x.gds");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().stage, "export");
}

TEST(ApiFlow, AdoptedNetlistStartsAtMapped) {
  const auto library = cnfet_library();
  const auto adder = flow::build_full_adder(*library, {});
  auto flow = api::Flow::from_netlist(adder, {});
  ASSERT_TRUE(flow.ok());
  auto& f = flow.value();
  EXPECT_EQ(f.stage(), api::Stage::kMapped);
  EXPECT_EQ(f.mapped()->map.total_gates(), 9);  // 9 NAND2, no buffers
  EXPECT_FALSE(f.mapped()->verified);
  ASSERT_TRUE(f.run().ok());
  EXPECT_EQ(f.metrics().gates, 9);
  EXPECT_TRUE(f.metrics().all_immune);
}

TEST(ApiFlow, OutputDriveResizesOnlyOutputDrivers) {
  api::FlowOptions strong;
  strong.output_drive = 4.0;
  auto flow = api::Flow::from_cell("NAND3", strong);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(flow.value().map().ok());
  const auto* netlist = flow.value().netlist().value();
  int strong_gates = 0;
  for (const auto& gate : netlist->gates()) {
    const bool drives_output = gate.output == netlist->outputs().front();
    const bool is_4x =
        gate.cell->name.find("_4X") != std::string::npos;
    EXPECT_EQ(drives_output, is_4x) << gate.name;
    strong_gates += is_4x ? 1 : 0;
  }
  EXPECT_EQ(strong_gates, 1);
  // Resizing must preserve function.
  EXPECT_TRUE(flow.value().mapped()->verified);
}

TEST(ApiFlow, OptimizeImprovesWeakAdderWithinAreaBudget) {
  const auto library = cnfet_library();
  flow::FullAdderOptions weak;
  weak.nand_drive = 1.0;  // undersized everywhere: sizing has headroom
  api::FlowOptions options;
  options.library = library;
  options.optimize = true;
  options.max_area_growth = 0.5;
  auto flow =
      api::Flow::from_netlist(flow::build_full_adder(*library, weak), options);
  ASSERT_TRUE(flow.ok());
  auto& f = flow.value();
  ASSERT_TRUE(f.run(api::Stage::kOptimized).ok());
  const auto* opt = f.optimized();
  ASSERT_NE(opt, nullptr);
  EXPECT_TRUE(opt->enabled);
  EXPECT_GT(opt->stats.edits(), 0);
  EXPECT_LT(opt->timing.worst_arrival, opt->stats.delay_before);
  EXPECT_LE(opt->stats.area_after,
            opt->stats.area_before * (1.0 + options.max_area_growth) + 1e-9);

  const auto m = f.metrics();
  EXPECT_TRUE(m.optimized);
  EXPECT_EQ(m.worst_arrival_s, opt->timing.worst_arrival);
  EXPECT_EQ(m.pre_opt_worst_arrival_s, opt->stats.delay_before);

  // The optimized netlist still places, signs off and exports cleanly.
  ASSERT_TRUE(f.run().ok());
  EXPECT_TRUE(f.metrics().all_immune);
}

TEST(ApiFlow, DelayCostMappingIsStillVerifiedExhaustively) {
  api::FlowOptions options;
  options.map_cost = flow::MapCost::kDelay;
  auto flow = api::Flow::from_cell("AOI22", options);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(flow.value().run(api::Stage::kTimed).ok());
  EXPECT_TRUE(flow.value().mapped()->verified);
  EXPECT_GT(flow.value().timed()->timing.worst_arrival, 0.0);
}

// Above 16 inputs map and optimize still check function, on 4,096 seeded
// vectors: the flow passes with a warning that says so, and `verified` /
// `function_verified` keep meaning "exhaustive and passed".
TEST(ApiFlow, WideDesignsAreCheckedOnSeededVectors) {
  using logic::Expr;
  std::vector<std::string> inputs;
  std::vector<Expr> products;
  for (int i = 0; i < 20; i += 2) {
    inputs.push_back("I" + std::to_string(i));
    inputs.push_back("I" + std::to_string(i + 1));
    products.push_back(Expr::make_and({Expr::var(i), Expr::var(i + 1)}));
  }
  api::FlowOptions options;
  options.optimize = true;
  auto flow = api::Flow::from_expressions(
      {{"F", Expr::make_or(products), false}}, inputs, options);
  ASSERT_TRUE(flow.ok());
  auto& f = flow.value();
  ASSERT_TRUE(f.run(api::Stage::kOptimized).ok());
  EXPECT_FALSE(f.mapped()->verified);
  EXPECT_FALSE(f.optimized()->stats.function_verified);
  std::vector<std::string> warnings;
  for (const auto& d : f.diagnostics().items()) {
    if (d.severity == util::Severity::kWarning) {
      warnings.push_back(d.stage + ": " + d.message);
    }
  }
  const std::string note =
      "function checked on 4096 seeded vectors, not exhaustively (20 > 16 "
      "inputs)";
  EXPECT_EQ(warnings, (std::vector<std::string>{
                          "map: " + note, "optimize: optimized netlist's " + note}));
}

TEST(ApiFlow, TechFollowsTheSuppliedLibrary) {
  // A caller handing in a CMOS library must not get CNFET-keyed signoff
  // (tech defaults to kCnfet65 in FlowOptions).
  api::FlowOptions options;
  options.library =
      api::LibraryCache::global().get(layout::Tech::kCmos65).value();
  auto flow = api::Flow::from_cell("NAND2", options);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(flow.value().run().ok());
  EXPECT_EQ(flow.value().options().tech, layout::Tech::kCmos65);
  EXPECT_EQ(flow.value().metrics().tech, layout::Tech::kCmos65);
  // CMOS cells skip the CNT-immunity proof.
  for (const auto& cell : flow.value().signed_off()->cells) {
    EXPECT_FALSE(cell.immunity_checked) << cell.cell;
  }
}

TEST(ApiLibraryCache, FlowSharesTheCachedLibrary) {
  const auto handle = cnfet_library();
  auto flow = api::Flow::from_cell("INV");
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(&flow.value().library(), handle.get());
}

TEST(ApiBatch, FamilyBatchAggregatesBothTechs) {
  const auto jobs = api::family_jobs(
      {layout::Tech::kCnfet65, layout::Tech::kCmos65});
  ASSERT_EQ(jobs.size(), 18u);
  const auto report = api::run_batch(jobs);
  ASSERT_EQ(report.jobs.size(), 18u);
  EXPECT_EQ(report.num_ok(), 18u);
  EXPECT_EQ(report.num_failed(), 0u);
  EXPECT_TRUE(report.all_immune);
  EXPECT_EQ(report.total_drc_violations, 0);
  EXPECT_GT(report.total_gates, 0);
  EXPECT_GT(report.total_area_lambda2, 0.0);
  EXPECT_GT(report.worst_arrival_s, 0.0);
  for (const auto& job : report.jobs) {
    EXPECT_EQ(job.reached, api::Stage::kExported) << job.name;
    EXPECT_GT(job.metrics.gds_structures, 0u) << job.name;
  }
  // The rendering carries one row per job plus the rollup footer.
  const auto text = report.to_string();
  EXPECT_NE(text.find("INV@CNFET65"), std::string::npos);
  EXPECT_NE(text.find("OAI21@CMOS65"), std::string::npos);
  EXPECT_NE(text.find("18/18 jobs ok"), std::string::npos);
}

TEST(ApiBatch, FailingJobDoesNotAbortTheBatch) {
  std::vector<api::FlowJob> jobs(2);
  jobs[0].name = "bad";
  jobs[0].cell = "NOPE";
  jobs[1].name = "good";
  jobs[1].cell = "INV";
  const auto report = api::run_batch(jobs);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_TRUE(report.jobs[0].diagnostics.has_errors());
  EXPECT_TRUE(report.jobs[1].ok);
  EXPECT_EQ(report.num_ok(), 1u);
  // Merged diagnostics tag the originating job.
  const auto merged = report.merged_diagnostics();
  bool tagged = false;
  for (const auto& d : merged.items()) {
    tagged = tagged || d.stage.rfind("bad/", 0) == 0;
  }
  EXPECT_TRUE(tagged);
}

TEST(ApiGolden, FlowMatchesLegacyPathByteForByte) {
  // The quickstart NAND3 through api::Flow must produce exactly the GDS
  // stream of the hand-wired legacy path (map -> place -> export).
  api::FlowOptions options;
  options.top_name = "NAND3";
  auto flow = api::Flow::from_cell("NAND3", options);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(flow.value().run().ok());
  std::stringstream via_flow;
  gds::write(flow.value().exported()->gds, via_flow);

  const auto library = cnfet_library();
  const auto& spec = layout::find_cell_spec("NAND3");
  std::vector<std::string> inputs;
  std::vector<flow::OutputSpec> outputs;
  outputs.push_back({"OUT", logic::parse_expr(spec.pdn_expr, &inputs), true});
  const auto mapped = flow::map_expressions(outputs, inputs, *library);
  const auto placement = flow::place(mapped.netlist, {});
  const auto gds_lib = flow::export_gds(placement, "NAND3");
  std::stringstream via_legacy;
  gds::write(gds_lib, via_legacy);

  ASSERT_FALSE(via_flow.str().empty());
  EXPECT_EQ(via_flow.str(), via_legacy.str());
}

TEST(ApiStage, ToStringRoundTripsAllSevenStages) {
  // stage_from_string is the inverse the CLI and jobs.json rely on;
  // exhaustive over the whole pipeline.
  const api::Stage all[] = {
      api::Stage::kCreated,  api::Stage::kMapped,    api::Stage::kTimed,
      api::Stage::kOptimized, api::Stage::kPlaced,
      api::Stage::kSignedOff, api::Stage::kExported};
  ASSERT_EQ(std::size(all), 7u);
  for (const auto stage : all) {
    const auto parsed = api::stage_from_string(api::to_string(stage));
    ASSERT_TRUE(parsed.ok()) << api::to_string(stage);
    EXPECT_EQ(parsed.value(), stage);
  }
  const auto bogus = api::stage_from_string("routed");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.error().message.find("routed"), std::string::npos);
}

TEST(ApiResult, ValueAndErrorAccessorsGuard) {
  util::Result<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(0), 7);
  EXPECT_THROW((void)good.error(), util::ContractViolation);

  auto bad = util::Result<int>::failure("stage", "boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(42), 42);
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_THROW((void)bad.value(), util::ContractViolation);
}

TEST(ApiResult, DiagnosticsRollups) {
  util::Diagnostics diags;
  EXPECT_TRUE(diags.empty());
  diags.info("map", "fine");
  diags.warning("drc", "narrow");
  EXPECT_FALSE(diags.has_errors());
  diags.error("sta", "bad");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.count(util::Severity::kWarning), 1u);
  util::Diagnostics more;
  more.error("x", "y");
  diags.append(more);
  EXPECT_EQ(diags.count(util::Severity::kError), 2u);
  EXPECT_NE(diags.to_string().find("error [sta] bad"), std::string::npos);
}

TEST(GateNetlist, ResizeGateEnforcesInvariants) {
  const auto library = cnfet_library();
  flow::GateNetlist nl;
  const int in = nl.add_net("in");
  nl.mark_input(in);
  const int out = nl.add_net("out");
  const auto& inv1 = library->find("INV_1X");
  const auto& inv4 = library->find("INV_4X");
  nl.add_gate(flow::Gate{&inv1, {in}, out, "g"});

  // Legal resize: same pins, different cell.
  nl.resize_gate(0, &inv4);
  EXPECT_EQ(nl.gates()[0].cell, &inv4);

  // Pin arity must match the cell.
  EXPECT_THROW(nl.resize_gate(0, &library->find("NAND2_1X")),
               util::ContractViolation);
  // Index must exist.
  EXPECT_THROW(nl.resize_gate(5, &inv1), util::ContractViolation);
}

}  // namespace
}  // namespace cnfet
