// The persistent-session contracts: exact JSON round-trips (doubles
// bit-for-bit, NaN/inf refused), the versioned envelope (forward-refusing
// schema, checksum over the payload), Flow::save/resume reproducing the
// identical GDS bytes and metrics from every checkpoint stage on both
// technologies, and the LibraryCache disk tier (NLDM-exact loads >=10x
// faster than serial characterization, corrupt files falling back to
// characterization with a warning), and the wire format itself, pinned by
// literal dumps and key-skeleton digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/serialize.hpp"
#include "gds/gds.hpp"
#include "sim_support.hpp"
#include "util/json.hpp"

namespace cnfet {
namespace {

namespace json = util::json;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / "cnfet_serialize" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

api::LibraryHandle cnfet_library() {
  return api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
}

// --- util::json -------------------------------------------------------------

TEST(Json, ScalarsAndContainersRoundTrip) {
  json::Value obj = json::Value::object();
  obj.set("null", json::Value());
  obj.set("t", true);
  obj.set("f", false);
  obj.set("int", 42);
  obj.set("neg", -7);
  obj.set("str", "a \"quoted\"\nline\tand \\ slash");
  json::Value arr = json::Value::array();
  for (const double d : {0.1, 1e-300, -2.5e17, 3.14159265358979}) {
    arr.push_back(d);
  }
  obj.set("doubles", std::move(arr));

  const std::string compact = json::dump(obj);
  const json::Value parsed = json::parse(compact);
  EXPECT_EQ(json::dump(parsed), compact);
  // Pretty output parses back to the same compact form.
  EXPECT_EQ(json::dump(json::parse(json::dump(obj, 2))), compact);
  EXPECT_TRUE(parsed.at("null").is_null());
  EXPECT_TRUE(parsed.get_bool("t"));
  EXPECT_EQ(parsed.get_int("neg"), -7);
  EXPECT_EQ(parsed.get_string("str"), obj.get_string("str"));
}

TEST(Json, DoublesSurviveBitForBit) {
  // The values NLDM tables actually hold (picoseconds, femtojoules) plus
  // adversarial cases: denormals, epsilon neighbours, huge magnitudes.
  const double cases[] = {5e-12,
                          1.23456789012345e-15,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          1.0 + std::numeric_limits<double>::epsilon(),
                          -0.0,
                          6.62607015e-34,
                          9.0071992547409915e15};
  for (const double value : cases) {
    const json::Value parsed = json::parse(json::format_number(value));
    const double back = parsed.as_double();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0)
        << json::format_number(value);
  }
}

TEST(Json, NanAndInfinityAreRefusedAtWriteTime) {
  EXPECT_THROW((void)json::format_number(std::nan("")), util::Error);
  EXPECT_THROW((void)json::format_number(
                   std::numeric_limits<double>::infinity()),
               util::Error);
  json::Value obj = json::Value::object();
  obj.set("bad", std::nan(""));
  EXPECT_THROW((void)json::dump(obj), util::Error);
  // And the api:: boundary converts the throw into a Result.
  const auto written =
      api::write_artifact(obj, "jobs", temp_dir("nan") + "/x.json");
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.error().message.find("NaN"), std::string::npos);
  // "nan" is not a JSON token either.
  EXPECT_THROW((void)json::parse("nan"), util::Error);
}

TEST(Json, MalformedAndTruncatedInputsThrowWithOffsets) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"", "{\"a\":}", "\"unterminated", "01", "1.",
        "[1] trailing", "{\"a\":1,}", "tru"}) {
    EXPECT_THROW((void)json::parse(bad), util::Error) << bad;
  }
  try {
    (void)json::parse("[1, 2, ");
    FAIL() << "expected a throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  json::Value obj = json::Value::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("zebra", 3);  // replacement keeps position
  EXPECT_EQ(json::dump(obj), "{\"zebra\":3,\"alpha\":2}");
}

// --- enum string helpers ----------------------------------------------------

TEST(Serialize, TechFromStringAcceptsAnyCase) {
  EXPECT_EQ(api::tech_from_string("cnfet65").value(), layout::Tech::kCnfet65);
  EXPECT_EQ(api::tech_from_string("CNFET65").value(), layout::Tech::kCnfet65);
  EXPECT_EQ(api::tech_from_string("cmos65").value(), layout::Tech::kCmos65);
  EXPECT_FALSE(api::tech_from_string("finfet7").ok());
}

// --- value-level round trips ------------------------------------------------

TEST(Serialize, DiagnosticsOptionsAndMetricsRoundTrip) {
  util::Diagnostics diags;
  diags.info("map", "fine");
  diags.warning("drc", "narrow\nmultiline");
  diags.error("sta", "bad");
  EXPECT_EQ(
      api::diagnostics_from_json(api::to_json(diags)).to_string(),
      diags.to_string());

  api::FlowOptions options;
  options.tech = layout::Tech::kCmos65;
  options.drive = 2.0;
  options.output_drive = 4.0;
  options.verify = false;
  options.map_cost = flow::MapCost::kDelay;
  options.optimize = true;
  options.target_delay = 17e-12;
  options.max_area_growth = 0.375;
  options.sta.input_slew = 11e-12;
  options.place.scheme = layout::CellScheme::kScheme2;
  options.drc.allow_vertical_gating = true;
  options.drc.deck = layout::DesignRules::cmos65();
  options.top_name = "T";
  const auto options2 =
      api::flow_options_from_json(api::to_json(options));
  EXPECT_EQ(json::dump(api::to_json(options2)),
            json::dump(api::to_json(options)));
  EXPECT_EQ(options2.tech, layout::Tech::kCmos65);
  EXPECT_EQ(options2.map_cost, flow::MapCost::kDelay);
  ASSERT_TRUE(options2.drc.deck.has_value());
  EXPECT_EQ(options2.drc.deck->pun_pdn_gap, 10.0);

  api::FlowMetrics metrics;
  metrics.name = "x";
  metrics.stage = api::Stage::kSignedOff;
  metrics.gates = 9;
  metrics.worst_arrival_s = 2.93e-11;
  metrics.all_immune = true;
  EXPECT_EQ(json::dump(api::to_json(
                api::flow_metrics_from_json(api::to_json(metrics)))),
            json::dump(api::to_json(metrics)));
}

TEST(Serialize, GateNetlistRoundTripsAgainstTheLibrary) {
  const auto library = cnfet_library();
  flow::FullAdderOptions sizing;
  sizing.sum_buffer_drive = 9.0;
  sizing.carry_buffer_drive = 7.0;
  const auto adder = flow::build_full_adder(*library, sizing);
  const auto v = api::to_json(adder);
  const auto back = api::gate_netlist_from_json(v, *library);
  EXPECT_EQ(json::dump(api::to_json(back)), json::dump(v));
  ASSERT_EQ(back.gates().size(), adder.gates().size());
  for (std::size_t i = 0; i < adder.gates().size(); ++i) {
    EXPECT_EQ(back.gates()[i].cell, adder.gates()[i].cell);  // same LibCell*
  }
  for (std::uint64_t row = 0; row < 8; ++row) {
    const auto inputs = test::row_bits(row, 3);
    EXPECT_EQ(back.simulate(inputs), adder.simulate(inputs)) << row;
  }
}

TEST(Serialize, JobsFileRoundTrips) {
  auto jobs = api::family_jobs({layout::Tech::kCnfet65, layout::Tech::kCmos65});
  // One expression job too, with variables deliberately out of index order
  // (structural Expr serialization must not renumber them).
  api::FlowJob expr_job;
  expr_job.name = "maj";
  expr_job.inputs = {"A", "B", "C"};
  expr_job.outputs.push_back(
      {"f",
       logic::Expr::make_or({logic::Expr::var(2), logic::Expr::var(0)}),
       true});
  expr_job.target = api::Stage::kTimed;
  jobs.push_back(expr_job);

  const auto dir = temp_dir("jobs");
  const auto saved = api::save_jobs(jobs, dir + "/jobs.json");
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_jobs(dir + "/jobs.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(json::dump(api::to_json(loaded.value()[i])),
              json::dump(api::to_json(jobs[i])))
        << jobs[i].name;
  }
  EXPECT_EQ(loaded.value().back().target, api::Stage::kTimed);
}

TEST(Serialize, ReportFileRoundTripsIncludingSkippedFlag) {
  std::vector<api::FlowJob> jobs;
  for (const char* cell : {"INV", "NO_SUCH_CELL", "NAND2"}) {
    api::FlowJob job;
    job.name = cell;
    job.cell = cell;
    job.target = api::Stage::kTimed;
    jobs.push_back(std::move(job));
  }
  api::BatchOptions options;
  options.fail_fast = true;
  const auto report = api::run_batch(jobs, options);
  ASSERT_TRUE(report.jobs[2].skipped);

  const auto dir = temp_dir("report");
  const auto saved = api::save_report(report, dir + "/report.json");
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_report(dir + "/report.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(json::dump(api::to_json(loaded.value())),
            json::dump(api::to_json(report)));
  EXPECT_FALSE(loaded.value().jobs[0].skipped);
  EXPECT_TRUE(loaded.value().jobs[2].skipped);
  // The human rendering survives the round trip too.
  EXPECT_EQ(loaded.value().to_string(), report.to_string());
}

// --- the versioned envelope -------------------------------------------------

TEST(Serialize, UnknownSchemaVersionIsRefused) {
  const auto dir = temp_dir("schema");
  const auto path = dir + "/jobs.json";
  ASSERT_TRUE(api::save_jobs({}, path).ok());
  json::Value envelope = json::parse(slurp(path));
  envelope.set("schema_version", api::kSchemaVersion + 1);
  spit(path, json::dump(envelope, 2));
  const auto loaded = api::load_jobs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("schema_version"), std::string::npos);
  EXPECT_NE(loaded.error().message.find("newer"), std::string::npos);
}

TEST(Serialize, ChecksumMismatchIsRefused) {
  const auto dir = temp_dir("checksum");
  const auto path = dir + "/report.json";
  ASSERT_TRUE(api::save_report({}, path).ok());
  json::Value envelope = json::parse(slurp(path));
  json::Value payload = envelope.at("payload");
  payload.set("total_gates", 999);  // edit without refreshing the checksum
  envelope.set("payload", payload);
  spit(path, json::dump(envelope, 2));
  const auto loaded = api::load_report(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("checksum"), std::string::npos);
}

TEST(Serialize, TruncatedFilesFailCleanly) {
  const auto dir = temp_dir("truncated");
  const auto path = dir + "/jobs.json";
  ASSERT_TRUE(api::save_jobs(api::family_jobs({layout::Tech::kCnfet65}), path)
                  .ok());
  const std::string text = slurp(path);
  spit(path, text.substr(0, text.size() / 2));
  const auto loaded = api::load_jobs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("offset"), std::string::npos);
  // Wrong kind is refused too.
  spit(path, text);
  EXPECT_FALSE(api::load_report(path).ok());
  // And a missing file.
  EXPECT_FALSE(api::load_jobs(dir + "/absent.json").ok());
}

// --- the library on disk ----------------------------------------------------

void expect_library_exact(const liberty::Library& a,
                          const liberty::Library& b) {
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t c = 0; c < a.cells().size(); ++c) {
    const auto& ca = a.cells()[c];
    const auto& cb = b.cells()[c];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.drive, cb.drive);
    EXPECT_EQ(ca.area_lambda2, cb.area_lambda2);
    EXPECT_EQ(ca.input_cap, cb.input_cap);
    ASSERT_EQ(ca.arcs.size(), cb.arcs.size()) << ca.name;
    for (std::size_t i = 0; i < ca.arcs.size(); ++i) {
      const auto& aa = ca.arcs[i];
      const auto& ab = cb.arcs[i];
      EXPECT_EQ(aa.input, ab.input);
      EXPECT_EQ(aa.out_rising, ab.out_rising);
      const auto expect_table_exact = [&](const liberty::NldmTable& ta,
                                          const liberty::NldmTable& tb) {
        ASSERT_EQ(ta.slews(), tb.slews());
        ASSERT_EQ(ta.loads(), tb.loads());
        for (std::size_t si = 0; si < ta.slews().size(); ++si) {
          for (std::size_t li = 0; li < ta.loads().size(); ++li) {
            // Exact — the disk tier must be indistinguishable from the
            // in-memory characterization, not merely close.
            EXPECT_EQ(ta.at(si, li), tb.at(si, li)) << ca.name;
          }
        }
      };
      expect_table_exact(aa.delay, ab.delay);
      expect_table_exact(aa.out_slew, ab.out_slew);
      expect_table_exact(aa.energy, ab.energy);
    }
  }
}

TEST(LibraryDiskCache, SavedLibraryLoadsNldmExact) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("library");
  const auto path = dir + "/cnfet65.json";
  const auto saved = api::save_library(*library, path);
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto loaded = api::load_library(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_library_exact(*library, *loaded.value());
  // The geometry rebuild restored enough for find()/drives_of and the
  // downstream passes (layout present, truth table intact).
  const auto& nand2 = loaded.value()->find("NAND2_1X");
  EXPECT_GT(nand2.built.layout.core_area_lambda2(), 0.0);
  EXPECT_EQ(loaded.value()->drives_of("INV").size(),
            library->drives_of("INV").size());
}

TEST(LibraryDiskCache, CacheLoadsInsteadOfRecharacterizing) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("cache_hit");
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  ASSERT_TRUE(
      api::save_library(*library, cache.cache_path(layout::Tech::kCnfet65))
          .ok());
  const auto handle = cache.get(layout::Tech::kCnfet65);
  ASSERT_TRUE(handle.ok());
  expect_library_exact(*library, *handle.value());
  bool loaded_note = false;
  const auto diags = cache.diagnostics();
  for (const auto& d : diags.items()) {
    loaded_note = loaded_note ||
                  (d.severity == util::Severity::kInfo &&
                   d.message.find("loaded") != std::string::npos);
  }
  EXPECT_TRUE(loaded_note) << diags.to_string();
}

TEST(LibraryDiskCache, CorruptFileFallsBackToCharacterizationWithWarning) {
  const auto library = cnfet_library();
  const auto dir = temp_dir("cache_corrupt");
  api::LibraryCache cache;
  cache.set_cache_dir(dir);
  const auto path = cache.cache_path(layout::Tech::kCnfet65);
  ASSERT_TRUE(api::save_library(*library, path).ok());
  // Corrupt the payload without refreshing the checksum: clobber the
  // first cell's drive.
  json::Value envelope = json::parse(slurp(path));
  json::Value payload = envelope.at("payload");
  {
    json::Value cells = payload.at("cells");
    json::Value first = cells.at(std::size_t{0});
    first.set("drive", 123.0);
    json::Value rebuilt = json::Value::array();
    rebuilt.push_back(first);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      rebuilt.push_back(cells.at(i));
    }
    payload.set("cells", std::move(rebuilt));
  }
  envelope.set("payload", payload);
  spit(path, json::dump(envelope, 2));

  const auto handle = cache.get(layout::Tech::kCnfet65);
  ASSERT_TRUE(handle.ok());  // fell back to characterization, no crash
  expect_library_exact(*library, *handle.value());
  bool warned = false;
  const auto diags = cache.diagnostics();
  for (const auto& d : diags.items()) {
    warned = warned || (d.severity == util::Severity::kWarning &&
                        d.message.find("falling back") != std::string::npos);
  }
  EXPECT_TRUE(warned) << diags.to_string();
}

TEST(LibraryDiskCache, DiskLoadBeats10xOverSerialCharacterization) {
  using clock = std::chrono::steady_clock;
  liberty::CharacterizeOptions serial;
  serial.num_threads = 1;
  const auto t0 = clock::now();
  const liberty::Library characterized = liberty::build_library(serial);
  const auto t1 = clock::now();

  const auto dir = temp_dir("speed");
  const auto path = dir + "/lib.json";
  ASSERT_TRUE(api::save_library(characterized, path).ok());
  const auto t2 = clock::now();
  const auto loaded = api::load_library(path);
  const auto t3 = clock::now();
  ASSERT_TRUE(loaded.ok());
  expect_library_exact(characterized, *loaded.value());

  const double characterize_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double load_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();
  // The acceptance floor: a disk hit must beat serial characterization by
  // >=10x (measured in-run, so host speed cancels out). In practice it is
  // 2-3 orders of magnitude.
  EXPECT_GE(characterize_ms / load_ms, 10.0)
      << "characterize " << characterize_ms << " ms vs load " << load_ms
      << " ms";
}

// --- Flow::save / Flow::resume ----------------------------------------------

std::string gds_bytes(const api::Flow& flow) {
  std::stringstream out;
  gds::write(flow.exported()->gds, out);
  return out.str();
}

std::string metrics_dump(const api::Flow& flow) {
  return json::dump(api::to_json(flow.metrics()));
}

api::Flow make_cell_flow(layout::Tech tech) {
  api::FlowOptions options;
  options.tech = tech;
  return api::Flow::from_cell("NAND3", options).value();
}

void roundtrip_every_checkpoint(layout::Tech tech, const std::string& label) {
  auto reference = make_cell_flow(tech);
  ASSERT_TRUE(reference.run().ok());
  const std::string want_gds = gds_bytes(reference);
  const std::string want_metrics = metrics_dump(reference);

  const api::Stage checkpoints[] = {
      api::Stage::kCreated,  api::Stage::kMapped,    api::Stage::kTimed,
      api::Stage::kOptimized, api::Stage::kPlaced,
      api::Stage::kSignedOff, api::Stage::kExported};
  for (const auto checkpoint : checkpoints) {
    SCOPED_TRACE(std::string(label) + " @ " + api::to_string(checkpoint));
    auto flow = make_cell_flow(tech);
    ASSERT_TRUE(flow.run(checkpoint).ok());
    const auto dir =
        temp_dir(label + "_" + api::to_string(checkpoint));
    const auto saved = flow.save(dir);
    ASSERT_TRUE(saved.ok()) << saved.error().message;

    auto resumed = api::Flow::resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    auto& r = resumed.value();
    // The checkpoint itself reconstructs bit-identically: same stage, same
    // diagnostics, same metrics snapshot.
    EXPECT_EQ(r.stage(), checkpoint);
    EXPECT_EQ(r.diagnostics().to_string(), flow.diagnostics().to_string());
    EXPECT_EQ(metrics_dump(r), metrics_dump(flow));
    // And continuing it lands on the uninterrupted run's exact bytes.
    ASSERT_TRUE(r.run().ok());
    EXPECT_EQ(gds_bytes(r), want_gds);
    EXPECT_EQ(metrics_dump(r), want_metrics);
  }
}

TEST(FlowSession, CnfetRunResumesByteIdenticalFromEveryStage) {
  roundtrip_every_checkpoint(layout::Tech::kCnfet65, "cnfet");
}

TEST(FlowSession, CmosBaselineResumesByteIdenticalFromEveryStage) {
  roundtrip_every_checkpoint(layout::Tech::kCmos65, "cmos");
}

TEST(FlowSession, OptimizedAdoptedNetlistResumesMidPipeline) {
  // The hardest session: an adopted (no-spec) netlist that the opt::
  // passes then mutate — the saved netlist is the optimized one, and the
  // resumed flow must place/export exactly what the uninterrupted run did.
  const auto library = cnfet_library();
  flow::FullAdderOptions weak;
  weak.nand_drive = 1.0;
  api::FlowOptions options;
  options.library = library;
  options.optimize = true;
  options.max_area_growth = 0.5;

  auto reference =
      api::Flow::from_netlist(flow::build_full_adder(*library, weak), options)
          .value();
  ASSERT_TRUE(reference.run().ok());

  auto flow =
      api::Flow::from_netlist(flow::build_full_adder(*library, weak), options)
          .value();
  ASSERT_TRUE(flow.run(api::Stage::kOptimized).ok());
  ASSERT_TRUE(flow.optimized()->enabled);
  ASSERT_GT(flow.optimized()->stats.edits(), 0);
  const auto dir = temp_dir("optimized_adder");
  ASSERT_TRUE(flow.save(dir).ok());

  auto resumed = api::Flow::resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed.value().stage(), api::Stage::kOptimized);
  ASSERT_TRUE(resumed.value().run().ok());
  EXPECT_EQ(gds_bytes(resumed.value()), gds_bytes(reference));
  EXPECT_EQ(metrics_dump(resumed.value()), metrics_dump(reference));
}

TEST(FlowSession, CustomLibrarySessionIsRefusedNotSilentlyRebound) {
  // A session built against a caller-supplied library (here: an INV-only
  // subset, standing in for any custom grid/style characterization) must
  // refuse to resume from the default cache — rebinding its gates by name
  // to different NLDM tables would silently break the bit-identical
  // continuation guarantee.
  const auto library = cnfet_library();
  std::vector<liberty::LibCell> cells;
  for (const auto& cell : library->cells()) {
    if (liberty::Library::base_name(cell.name) == "INV") {
      cells.push_back(cell);
    }
  }
  const auto custom =
      std::make_shared<const liberty::Library>(liberty::Library(cells));
  api::FlowOptions options;
  options.library = custom;
  auto flow = api::Flow::from_cell("INV", options).value();
  ASSERT_TRUE(flow.run(api::Stage::kTimed).ok());
  const auto dir = temp_dir("custom_library");
  ASSERT_TRUE(flow.save(dir).ok());
  const auto resumed = api::Flow::resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().message.find("library"), std::string::npos);
}

// A session binds to its library by the fnv1a64 of the library's compact
// dump, computed once per library. Every kind of handle carries that
// fingerprint, and a freed library's fingerprint never sticks to the
// library built after it.
TEST(FlowSession, SessionChecksumIsTheLibraryDumpForEveryKindOfHandle) {
  const auto session_checksum = [](const api::LibraryHandle& library) {
    api::FlowOptions options;
    options.library = library;
    const auto flow = api::Flow::from_cell("INV", options).value();
    const auto payload = flow.session_json();
    EXPECT_TRUE(payload.ok());
    return payload.value().get_string("library_checksum");
  };
  const auto dump_checksum = [](const api::LibraryHandle& library) {
    return json::fnv1a64_hex(json::dump(api::to_json(*library)));
  };
  const auto cached = cnfet_library();
  const auto path = temp_dir("checksum_handles") + "/library.json";
  ASSERT_TRUE(api::save_library(*cached, path).ok());
  const auto loaded = api::load_library(path).value();
  ASSERT_NE(loaded.get(), cached.get());
  EXPECT_EQ(session_checksum(cached), dump_checksum(cached));
  EXPECT_EQ(session_checksum(loaded), dump_checksum(loaded));
  EXPECT_EQ(session_checksum(loaded), session_checksum(cached));

  const auto subset = [&](std::initializer_list<const char*> bases) {
    std::vector<liberty::LibCell> cells;
    for (const auto& cell : cached->cells()) {
      for (const char* base : bases) {
        if (liberty::Library::base_name(cell.name) == base) {
          cells.push_back(cell);
        }
      }
    }
    return liberty::Library(cells);
  };
  // Free a hand-built library, then build a different one: the new session
  // carries the new library's fingerprint, also when the allocator hands
  // the new library the freed one's address (the loop ends once it has).
  auto previous = std::make_shared<const liberty::Library>(subset({"INV"}));
  std::string previous_checksum = session_checksum(previous);
  EXPECT_EQ(previous_checksum, dump_checksum(previous));
  bool address_reused = false;
  for (int round = 0; round < 8 && !address_reused; ++round) {
    liberty::Library next = round % 2 == 0 ? subset({"INV", "NAND2"})
                                           : subset({"INV"});
    const auto freed = reinterpret_cast<std::uintptr_t>(previous.get());
    previous.reset();  // free the block before the next one is allocated
    previous = std::make_shared<const liberty::Library>(std::move(next));
    address_reused = reinterpret_cast<std::uintptr_t>(previous.get()) == freed;
    const std::string checksum = session_checksum(previous);
    EXPECT_EQ(checksum, dump_checksum(previous)) << "round " << round;
    EXPECT_NE(checksum, previous_checksum) << "round " << round;
    previous_checksum = checksum;
  }
}

TEST(Serialize, MonteCarloResultRoundTripsExactly) {
  cnt::MonteCarloResult result;
  result.trials = 100000;
  result.failing_trials = 17;
  result.tubes_sampled = 2400000;
  result.stray_shorts = 12345;
  result.stray_chains = 67890;
  result.shorts_histogram.assign(cnt::MonteCarloResult::kHistogramBuckets, 0);
  result.chains_histogram.assign(cnt::MonteCarloResult::kHistogramBuckets, 0);
  result.shorts_histogram[0] = 99980;
  result.shorts_histogram[3] = 20;
  result.chains_histogram[1] = 50000;
  result.chains_histogram[31] = 50000;  // saturated last bucket

  const json::Value v = api::to_json(result);
  // Through text and back: the served monte_carlo response embeds this
  // object, and the CLI byte-compares served vs local dumps.
  const auto back =
      api::monte_carlo_result_from_json(json::parse(json::dump(v, 2)));
  EXPECT_EQ(back.trials, result.trials);
  EXPECT_EQ(back.failing_trials, result.failing_trials);
  EXPECT_EQ(back.tubes_sampled, result.tubes_sampled);
  EXPECT_EQ(back.stray_shorts, result.stray_shorts);
  EXPECT_EQ(back.stray_chains, result.stray_chains);
  EXPECT_EQ(back.shorts_histogram, result.shorts_histogram);
  EXPECT_EQ(back.chains_histogram, result.chains_histogram);
  EXPECT_DOUBLE_EQ(back.yield(), result.yield());
  EXPECT_EQ(json::dump(api::to_json(back), 2), json::dump(v, 2));
}

TEST(Serialize, GenSeedReaderAcceptsDigitsOnly) {
  json::Value v = api::to_json(gen::GenOptions{});
  v.set("seed", "18446744073709551615");
  EXPECT_EQ(api::gen_options_from_json(v).seed, 18446744073709551615ULL);
  // The writer emits bare digits, so nothing else may be read back: a
  // sign or a space would not round-trip, and 2^64 overflows.
  for (const char* bad : {"-1", " 7", "+3", "7 ", "", "0x10",
                          "18446744073709551616"}) {
    v.set("seed", bad);
    try {
      (void)api::gen_options_from_json(v);
      ADD_FAILURE() << "accepted seed \"" << bad << "\"";
    } catch (const util::Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("gen options: seed is not a uint64: \"") + bad +
                    "\"");
    }
  }
}

// --- the wire format, pinned ---------------------------------------------
// Literal dumps of values that do not depend on characterization, and key
// skeletons of the large artifacts: any change to a key, its order or a
// value's JSON type fails here before it can reach a saved session.

TEST(WireFormat, FlowOptionsWithADeckDumpsLiterally) {
  api::FlowOptions options;
  options.tech = layout::Tech::kCmos65;
  options.drive = 2.0;
  options.output_drive = 4.5;
  options.verify = false;
  options.map_cost = flow::MapCost::kDelay;
  options.optimize = true;
  options.target_delay = 17e-12;
  options.max_area_growth = 0.375;
  options.sta.input_slew = 11e-12;
  options.sta.wire_cap_per_fanout = 0.25e-15;
  options.sta.output_load = 3e-15;
  options.place.scheme = layout::CellScheme::kScheme2;
  options.place.aspect_rows = 1.5;
  options.place.cell_spacing_lambda = 3.0;
  options.place.row_spacing_lambda = 5.0;
  options.drc.allow_vertical_gating = true;
  options.drc.deck = layout::DesignRules::cmos65();
  options.route = true;
  options.route_opts.window_halo_cells = 5;
  options.top_name = "T";
  EXPECT_EQ(json::dump(api::to_json(options)),
            R"({"tech":"CMOS65","drive":2,"output_drive":4.5,"verify":false,)"
            R"("map_cost":"delay","optimize":true,)"
            R"("target_delay":1.6999999999999999e-11,"max_area_growth":0.375,)"
            R"("sta":{"input_slew":1.1000000000000001e-11,)"
            R"("wire_cap_per_fanout":2.5000000000000002e-16,)"
            R"("output_load":2.9999999999999998e-15},)"
            R"("place":{"scheme":"scheme2","aspect_rows":1.5,)"
            R"("cell_spacing_lambda":3,"row_spacing_lambda":5},)"
            R"("drc":{"allow_vertical_gating":true,"deck":{"gate_len":2,)"
            R"("contact_len":3,"gate_contact_space":1,"gate_gate_space":2,)"
            R"("etch_len":2,"contact_contact_space":2,"via_size":3,)"
            R"("gate_overhang":2,"cnt_margin":1,"pin_width":6,)"
            R"("pun_pdn_gap":10,"strip_lane":4,"cell_margin":2,)"
            R"("wire_width":2,"wire_spacing":2,"route_pitch":4,)"
            R"("wire_sheet_res":0.14999999999999999,)"
            R"("wire_cap_per_lambda":6.5000000000000001e-18,"via_res":1.5,)"
            R"("tech":"CMOS65"}},"route":true,)"
            R"("route_opts":{"window_halo_cells":5},"top_name":"T"})");
}

TEST(WireFormat, GenOptionsDumpLiterally) {
  gen::GenOptions options;
  options.family = gen::Family::kRandomDag;
  options.width = 12;
  options.target_gates = 345;
  options.num_inputs = 9;
  options.seed = 18446744073709551615ULL;
  options.drive = 2.0;
  EXPECT_EQ(json::dump(api::to_json(options)),
            R"({"family":"rand","width":12,"target_gates":345,"num_inputs":9,)"
            R"("seed":"18446744073709551615","drive":2})");
}

TEST(WireFormat, FlowJobDumpsLiterally) {
  api::FlowJob job;
  job.name = "maj";
  job.inputs = {"A", "B", "C"};
  job.outputs.push_back(
      {"f",
       logic::Expr::make_or(
           {logic::Expr::make_and({logic::Expr::var(2), logic::Expr::var(0)}),
            logic::Expr::make_not(logic::Expr::var(1))}),
       true});
  job.target = api::Stage::kTimed;
  EXPECT_EQ(json::dump(api::to_json(job)),
            R"({"name":"maj","cell":"","outputs":[{"name":"f",)"
            R"("expr":{"or":[{"and":[{"var":2},{"var":0}]},)"
            R"({"not":{"var":1}}]},"inverted":true}],"inputs":["A","B","C"],)"
            R"("options":{"tech":"CNFET65","drive":1,"output_drive":0,)"
            R"("verify":true,"map_cost":"gate_count","optimize":false,)"
            R"("target_delay":0,"max_area_growth":0.25,)"
            R"("sta":{"input_slew":1.9999999999999999e-11,)"
            R"("wire_cap_per_fanout":9.9999999999999998e-17,)"
            R"("output_load":2.0000000000000002e-15},)"
            R"("place":{"scheme":"scheme1","aspect_rows":1,)"
            R"("cell_spacing_lambda":2,"row_spacing_lambda":4},)"
            R"("drc":{"allow_vertical_gating":false},"route":false,)"
            R"("route_opts":{"window_halo_cells":8},"top_name":"TOP"},)"
            R"("target":"timed"})");
}

TEST(WireFormat, MonteCarloResultDumpsLiterally) {
  cnt::MonteCarloResult result;
  result.trials = 1000;
  result.failing_trials = 3;
  result.tubes_sampled = 24000;
  result.stray_shorts = 5;
  result.stray_chains = 7;
  result.shorts_histogram = {997, 2, 1};
  result.chains_histogram = {993, 0, 7};
  EXPECT_EQ(json::dump(api::to_json(result)),
            R"({"trials":1000,"failing_trials":3,"tubes_sampled":24000,)"
            R"("stray_shorts":5,"stray_chains":7,"shorts_histogram":[997,2,)"
            R"(1],"chains_histogram":[993,0,7]})");
}

TEST(WireFormat, DiagnosticsDumpLiterally) {
  util::Diagnostics diags;
  diags.info("map", "fine");
  diags.warning("drc", "narrow\nmultiline");
  diags.error("sta", "bad \"quote\"");
  EXPECT_EQ(json::dump(api::to_json(diags)),
            R"([{"severity":"info","stage":"map","message":"fine"},)"
            R"({"severity":"warning","stage":"drc",)"
            R"("message":"narrow\nmultiline"},{"severity":"error",)"
            R"("stage":"sta","message":"bad \"quote\""}])");
}

TEST(WireFormat, FlowMetricsWithEveryFieldDumpLiterally) {
  api::FlowMetrics m;
  m.name = "rca8";
  m.tech = layout::Tech::kCmos65;
  m.stage = api::Stage::kExported;
  m.gates = 72;
  m.nand2 = 60;
  m.nor2 = 4;
  m.inv = 8;
  m.verified = true;
  m.worst_arrival_s = 2.93e-11;
  m.energy_per_cycle_j = 1.5e-15;
  m.edp_js = 4.395e-26;
  m.optimized = true;
  m.pre_opt_worst_arrival_s = 3.1e-11;
  m.gates_resized = 6;
  m.buffers_inserted = 2;
  m.gates_removed = 1;
  m.opt_area_growth = 0.125;
  m.placed_area_lambda2 = 12345.5;
  m.utilization = 0.8125;
  m.hpwl_lambda = 678.25;
  m.cells_signed_off = 5;
  m.drc_violations = 0;
  m.all_immune = true;
  m.routed = true;
  m.total_wirelength = 910.5;
  m.wire_cap_ff = 1.75;
  m.wire_delay_ps = 0.5;
  m.routed_worst_arrival_s = 2.98e-11;
  m.wire_drc_violations = 0;
  m.gds_structures = 7;
  EXPECT_EQ(json::dump(api::to_json(m)),
            R"({"name":"rca8","tech":"CMOS65","stage":"exported","gates":72,)"
            R"("nand2":60,"nor2":4,"inv":8,"verified":true,)"
            R"("worst_arrival_s":2.9299999999999998e-11,)"
            R"("energy_per_cycle_j":1.4999999999999999e-15,)"
            R"("edp_js":4.3950000000000002e-26,"optimized":true,)"
            R"("pre_opt_worst_arrival_s":3.1000000000000003e-11,)"
            R"("gates_resized":6,"buffers_inserted":2,"gates_removed":1,)"
            R"("opt_area_growth":0.125,"placed_area_lambda2":12345.5,)"
            R"("utilization":0.8125,"hpwl_lambda":678.25,)"
            R"("cells_signed_off":5,"drc_violations":0,"all_immune":true,)"
            R"("routed":true,"total_wirelength":910.5,"wire_cap_ff":1.75,)"
            R"("wire_delay_ps":0.5,)"
            R"("routed_worst_arrival_s":2.9800000000000003e-11,)"
            R"("wire_drc_violations":0,"gds_structures":7})");
}

// The shape of a JSON value with every number, string and array length
// elided: object keys in order with each value's type; an array lists
// each distinct element shape once, in first-seen order.
std::string skeleton(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNull:
      return "null";
    case json::Value::Kind::kBool:
      return "bool";
    case json::Value::Kind::kNumber:
      return "num";
    case json::Value::Kind::kString:
      return "str";
    case json::Value::Kind::kArray: {
      std::vector<std::string> shapes;
      for (const auto& item : v.items()) {
        std::string shape = skeleton(item);
        if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
          shapes.push_back(std::move(shape));
        }
      }
      std::string out = "[";
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        out += (i ? "|" : "") + shapes[i];
      }
      return out + "]";
    }
    case json::Value::Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : v.members()) {
        out += (out.size() > 1 ? "," : "") + key + ":" + skeleton(member);
      }
      return out + "}";
    }
  }
  return "?";
}

void expect_skeleton(const json::Value& v, const std::string& digest) {
  const std::string shape = skeleton(v);
  EXPECT_EQ(json::fnv1a64_hex(shape), digest) << shape;
}

TEST(WireFormat, RoutedNand3SessionSkeletonIsPinned) {
  api::FlowOptions options;
  options.route = true;
  auto flow = api::Flow::from_cell("NAND3", options).value();
  ASSERT_TRUE(flow.run().ok());
  ASSERT_EQ(flow.stage(), api::Stage::kExported);
  expect_skeleton(flow.session_json().value(), "9e1c03039c0413f9");
}

TEST(WireFormat, OptimizedGenSessionSkeletonIsPinned) {
  const auto library = cnfet_library();
  gen::GenOptions gopt;
  gopt.family = gen::Family::kRippleCarryAdder;
  gopt.width = 8;
  api::FlowOptions options;
  options.library = library;
  options.optimize = true;
  auto design = gen::generate(*library, gopt);
  auto flow =
      api::Flow::from_netlist(std::move(design.netlist), options).value();
  ASSERT_TRUE(flow.run().ok());
  expect_skeleton(flow.session_json().value(), "d1373b5ec2ec7977");
}

TEST(WireFormat, TwoJobReportSkeletonIsPinned) {
  std::vector<api::FlowJob> jobs;
  for (const char* cell : {"INV", "NAND2"}) {
    api::FlowJob job;
    job.name = cell;
    job.cell = cell;
    job.target = api::Stage::kTimed;
    jobs.push_back(std::move(job));
  }
  expect_skeleton(api::to_json(api::run_batch(jobs, {})), "15a69bafeb97ec25");
}

TEST(WireFormat, Cnfet65LibrarySkeletonIsPinned) {
  expect_skeleton(api::to_json(*cnfet_library()), "36064a0581feb9d9");
}

TEST(FlowSession, ResumeRefusesMissingAndCorruptSessions) {
  EXPECT_FALSE(api::Flow::resume(temp_dir("empty_session")).ok());

  auto flow = make_cell_flow(layout::Tech::kCnfet65);
  ASSERT_TRUE(flow.run(api::Stage::kTimed).ok());
  const auto dir = temp_dir("corrupt_session");
  ASSERT_TRUE(flow.save(dir).ok());
  const auto path = dir + "/flow.json";
  const std::string text = slurp(path);
  spit(path, text.substr(0, text.size() - text.size() / 3));
  const auto truncated = api::Flow::resume(dir);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().severity, util::Severity::kError);

  // A stage/artifact mismatch (hand-edited file) is refused, not crashed:
  // claim kPlaced while carrying no placed artifact.
  json::Value envelope = json::parse(text);
  json::Value payload = envelope.at("payload");
  payload.set("stage", "placed");
  envelope.set("payload", payload);
  envelope.set("checksum", json::fnv1a64_hex(json::dump(payload)));
  spit(path, json::dump(envelope, 2));
  const auto mismatched = api::Flow::resume(dir);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.error().message.find("artifact"), std::string::npos);
}

}  // namespace
}  // namespace cnfet
