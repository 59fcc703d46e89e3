// The cnfetd compile server: wire framing, untrusted-input hardening,
// request dispatch, the request engine (serve::execute) answering the
// same bytes served and in-process, and the graceful-shutdown guarantees.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/serialize.hpp"
#include "cnt/analyzer.hpp"
#include "gds/gds.hpp"
#include "layout/cells.hpp"
#include "serve/client.hpp"
#include "serve/execute.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace cnfet {
namespace {

namespace json = util::json;

// --- util::json hardening (the second line of defense behind WireLimits) ---

TEST(JsonParseLimits, RejectsNestingBeyondTheLimit) {
  json::ParseLimits limits;
  limits.max_depth = 8;
  const std::string ok_doc = "[[[[[[[1]]]]]]]";       // depth 7
  const std::string deep_doc = "[[[[[[[[[1]]]]]]]]]"; // depth 9
  EXPECT_NO_THROW(json::parse(ok_doc, limits));
  try {
    (void)json::parse(deep_doc, limits);
    FAIL() << "depth 9 parsed under max_depth 8";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParseLimits, RejectsOversizedDocumentsWithTheLimitInTheMessage) {
  json::ParseLimits limits;
  limits.max_bytes = 16;
  EXPECT_NO_THROW(json::parse("{\"a\":1}", limits));
  try {
    (void)json::parse("{\"key\":\"a long enough value\"}", limits);
    FAIL() << "oversized document parsed under max_bytes 16";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("16-byte limit"), std::string::npos) << what;
  }
}

TEST(JsonParseLimits, DefaultsStillParseRealPayloads) {
  // The defaults must not break artifact-sized documents.
  std::string doc = "[";
  for (int i = 0; i < 1000; ++i) doc += (i ? ",1" : "1");
  doc += "]";
  EXPECT_NO_THROW(json::parse(doc));
}

// --- protocol framing ------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughTheWireFormat) {
  json::Value request = serve::make_request(serve::RequestKind::kCompile, "r1");
  request.set("extra", 42);
  const std::string line = json::dump(request);
  // The writer never emits a raw newline, so '\n' framing is sound.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = serve::parse_request(line, serve::WireLimits{});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kind, serve::RequestKind::kCompile);
  EXPECT_EQ(parsed.value().id, "r1");
  EXPECT_EQ(parsed.value().payload.get_int("extra"), 42);
}

TEST(ServeProtocol, ResponsesCarryTheEnvelopeAndDiagnostics) {
  serve::Request request;
  request.kind = serve::RequestKind::kSta;
  request.id = "q7";
  util::Diagnostics diags;
  diags.warning("time", "something to know");
  json::Value ok = serve::ok_response(request, json::Value::object(), diags);
  auto parsed = serve::parse_response(json::dump(ok));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().get_bool("ok"));
  EXPECT_EQ(parsed.value().get_string("kind"), "sta");
  EXPECT_EQ(parsed.value().get_string("id"), "q7");
  const auto round = serve::response_diagnostics(parsed.value());
  ASSERT_EQ(round.items().size(), 1u);
  EXPECT_EQ(round.items()[0].severity, util::Severity::kWarning);
  EXPECT_EQ(round.items()[0].stage, "time");
  EXPECT_EQ(round.items()[0].message, "something to know");

  json::Value err = serve::error_response("compile", "x", "serve", "boom");
  EXPECT_FALSE(err.get_bool("ok"));
  const auto err_diags = serve::response_diagnostics(err);
  ASSERT_EQ(err_diags.items().size(), 1u);
  EXPECT_TRUE(err_diags.has_errors());
}

TEST(ServeProtocol, MalformedResponseDiagnosticsAreOneNamedError) {
  json::Value response = serve::error_response("sta", "q8", "time", "late");
  auto diags = json::Value::array();
  json::Value bogus = json::Value::object();
  bogus.set("severity", "bogus");
  bogus.set("stage", "time");
  bogus.set("message", "late");
  diags.push_back(std::move(bogus));
  response.set("diagnostics", std::move(diags));
  const auto read = serve::response_diagnostics(response);
  ASSERT_EQ(read.items().size(), 1u);
  EXPECT_EQ(read.items()[0].severity, util::Severity::kError);
  EXPECT_EQ(read.items()[0].stage, "serve");
  EXPECT_NE(read.items()[0].message.find("unknown severity: \"bogus\""),
            std::string::npos)
      << read.items()[0].message;

  response.set("diagnostics", "not an array");
  EXPECT_TRUE(serve::response_diagnostics(response).has_errors());
  EXPECT_TRUE(
      serve::response_diagnostics(serve::error_response("sta", "q9", {}))
          .empty());
}

TEST(ServeProtocol, MalformedEnvelopesAreStructuredFailures) {
  const serve::WireLimits limits;
  EXPECT_FALSE(serve::parse_request("this is not json", limits).ok());
  EXPECT_FALSE(serve::parse_request("[1,2,3]", limits).ok());
  EXPECT_FALSE(serve::parse_request("{\"kind\":\"ping\"}", limits).ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":99,\"kind\":\"ping\"}", limits)
          .ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":1,\"kind\":\"dance\"}", limits)
          .ok());
  EXPECT_FALSE(
      serve::parse_request("{\"proto_version\":1,\"kind\":17}", limits).ok());
}

TEST(ServeProtocol, HexCodecRoundTripsBinary) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  const std::string hex = serve::to_hex(bytes);
  EXPECT_EQ(hex.size(), 512u);
  auto back = serve::from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), bytes);
  EXPECT_FALSE(serve::from_hex("abc").ok());   // odd length
  EXPECT_FALSE(serve::from_hex("zz").ok());    // bad digit
}

// --- the live server -------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  /// Starts a server on an ephemeral loopback port. No warm list: tests
  /// share the process-global LibraryCache, which the first flow warms.
  int start(serve::ServerOptions options = {}) {
    server_ = std::make_unique<serve::Server>(std::move(options));
    auto port = server_->start();
    EXPECT_TRUE(port.ok()) << (port.ok() ? "" : port.error().to_string());
    return port.value();
  }

  serve::Client client(int port) {
    auto connected = serve::Client::connect("127.0.0.1:" + std::to_string(port));
    EXPECT_TRUE(connected.ok());
    return std::move(connected).value();
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeTest, PingStatsAndShutdownAnswerInline) {
  const int port = start();
  auto c = client(port);
  EXPECT_TRUE(c.ping());

  auto stats = c.call(serve::make_request(serve::RequestKind::kStats));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().get_bool("ok"));
  const json::Value& result = stats.value().at("result");
  EXPECT_GE(result.get_int("requests_total"), 1);
  EXPECT_EQ(result.get_int("connections_open"), 1);
  EXPECT_GE(result.get_int("pool_threads"), 1);

  auto bye = c.call(serve::make_request(serve::RequestKind::kShutdown));
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye.value().get_bool("ok"));
  EXPECT_TRUE(server_->stop_requested());
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeTest, GarbageRequestsGetStructuredErrorsAndTheConnectionLives) {
  const int port = start();
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  const auto& socket = connected.value();
  util::net::LineReader reader(socket, 1 << 20);
  for (const char* garbage :
       {"not json at all", "{\"proto_version\":1,\"kind\":\"nope\"}",
        "{\"unclosed\":", "[]", "{}"}) {
    ASSERT_TRUE(util::net::send_all(socket, std::string(garbage) + "\n").ok());
    auto line = reader.read_line(10000);
    ASSERT_TRUE(line.ok()) << garbage;
    ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine) << garbage;
    // Transport survives; the server answers ok=false with diagnostics.
    auto response = serve::parse_response(line.value().line);
    ASSERT_TRUE(response.ok()) << garbage;
    EXPECT_FALSE(response.value().get_bool("ok")) << garbage;
    EXPECT_TRUE(serve::response_diagnostics(response.value()).has_errors())
        << garbage;
  }
  // Same connection, still usable.
  const std::string ping =
      json::dump(serve::make_request(serve::RequestKind::kPing)) + "\n";
  ASSERT_TRUE(util::net::send_all(socket, ping).ok());
  auto pong = reader.read_line(10000);
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(pong.value().status, util::net::ReadStatus::kLine);
  auto pong_response = serve::parse_response(pong.value().line);
  ASSERT_TRUE(pong_response.ok());
  EXPECT_TRUE(pong_response.value().get_bool("ok"));
}

TEST_F(ServeTest, OversizedRequestsAreRejectedWithoutDroppingTheConnection) {
  serve::ServerOptions options;
  options.limits.max_request_bytes = 1024;
  const int port = start(std::move(options));
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  const auto& socket = connected.value();
  std::string huge(4096, 'x');
  huge += "\n";
  ASSERT_TRUE(util::net::send_all(socket, huge).ok());
  util::net::LineReader reader(socket, 1 << 20);
  auto line = reader.read_line(10000);
  ASSERT_TRUE(line.ok());
  ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine);
  auto response = serve::parse_response(line.value().line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  const auto diags = serve::response_diagnostics(response.value());
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags.items()[0].message.find("1024-byte limit"),
            std::string::npos)
      << diags.to_string();
  // The reader resynchronized on the frame boundary: a well-formed request
  // on the same connection still answers.
  const std::string ping =
      json::dump(serve::make_request(serve::RequestKind::kPing)) + "\n";
  ASSERT_TRUE(util::net::send_all(socket, ping).ok());
  auto pong = reader.read_line(10000);
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(pong.value().status, util::net::ReadStatus::kLine);
  auto pong_response = serve::parse_response(pong.value().line);
  ASSERT_TRUE(pong_response.ok());
  EXPECT_TRUE(pong_response.value().get_bool("ok"));
}

TEST_F(ServeTest, TruncatedRequestsAnswerAnErrorInsteadOfCrashing) {
  const int port = start();
  auto connected =
      util::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_TRUE(connected.ok());
  auto& socket = connected.value();
  // Half a frame, then half-close: the server must report the truncation,
  // not hang or die.
  ASSERT_TRUE(util::net::send_all(socket, "{\"proto_version\":1,").ok());
  socket.shutdown_write();
  util::net::LineReader reader(socket, 1 << 20);
  auto line = reader.read_line(10000);
  ASSERT_TRUE(line.ok());
  ASSERT_EQ(line.value().status, util::net::ReadStatus::kLine);
  auto response = serve::parse_response(line.value().line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  EXPECT_NE(serve::response_diagnostics(response.value())
                .to_string()
                .find("truncated"),
            std::string::npos);
}

TEST_F(ServeTest, OverloadedServerRejectsFlowsButStillAnswersPing) {
  serve::ServerOptions options;
  options.max_pending = 0;  // every flow request is one-over-the-limit
  const int port = start(std::move(options));
  auto c = client(port);
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  api::FlowJob job;
  job.cell = "INV";
  request.set("job", api::to_json(job));
  auto response = c.call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().get_bool("ok"));
  EXPECT_NE(serve::response_diagnostics(response.value())
                .to_string()
                .find("overloaded"),
            std::string::npos);
  EXPECT_TRUE(c.ping());  // admission-exempt
  EXPECT_EQ(server_->stats().rejected_overload, 1);
}

// --- one engine, two transports --------------------------------------------

/// GDS bytes the way a hand-run api::Flow writes them: through
/// Flow::write_gds to a file. The engine must reproduce these exactly.
std::string direct_gds_bytes(const std::string& cell, layout::Tech tech,
                             bool route = false) {
  api::FlowOptions options;
  options.tech = tech;
  options.route = route;
  auto flow = api::Flow::from_cell(cell, options);
  EXPECT_TRUE(flow.ok());
  EXPECT_TRUE(flow.value().run(api::Stage::kExported).ok());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("serve_identity_" + cell + std::to_string(int(tech)) +
                    (route ? "_routed" : ""));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "design.gds").string();
  EXPECT_TRUE(flow.value().write_gds(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove_all(dir);
  return bytes.str();
}

json::Value compile_request(const std::string& cell, layout::Tech tech,
                            bool route = false,
                            api::Stage target = api::Stage::kExported) {
  api::FlowJob job;
  job.cell = cell;
  job.options.tech = tech;
  job.options.route = route;
  job.target = target;
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  return request;
}

/// Runs an envelope through serve::execute the way `cnfetc` does without
/// --server: in-process, no dump or parse of the request.
json::Value execute_locally(const json::Value& envelope) {
  const auto kind = serve::request_kind_from_string(envelope.get_string("kind"));
  EXPECT_TRUE(kind.ok());
  const json::Value* id = envelope.find("id");
  return serve::execute(
      {kind.value(), id != nullptr ? id->as_string() : "", envelope});
}

std::string gds_of(const json::Value& response) {
  auto bytes = serve::from_hex(response.at("result").get_string("gds_hex"));
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::string();
}

std::string diagnostics_of(const json::Value& response) {
  return serve::response_diagnostics(response).to_string();
}

/// The name of the one GDS structure that instantiates the others.
std::string gds_top_name(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  const gds::Library library = gds::read(in);
  std::string top;
  for (const auto& structure : library.structures) {
    if (structure.srefs.empty()) continue;
    EXPECT_TRUE(top.empty()) << "two top structures";
    top = structure.name;
  }
  return top;
}

/// A flow request and what its (local == served) response must show.
struct FlowCase {
  std::string name;
  json::Value request;
  std::function<void(const json::Value& response)> check;
};

std::vector<FlowCase> flow_cases() {
  std::vector<FlowCase> cases;
  for (const layout::Tech tech :
       {layout::Tech::kCnfet65, layout::Tech::kCmos65}) {
    for (const bool route : {false, true}) {
      cases.push_back(
          {std::string("compile NAND3@") + layout::to_string(tech) +
               (route ? " routed" : ""),
           compile_request("NAND3", tech, route),
           [tech, route](const json::Value& response) {
             ASSERT_TRUE(response.get_bool("ok")) << diagnostics_of(response);
             const json::Value& result = response.at("result");
             EXPECT_EQ(result.get_string("reached"), "exported");
             // The anchor: the engine's GDS is a hand-run Flow::write_gds.
             EXPECT_EQ(gds_of(response), direct_gds_bytes("NAND3", tech, route));
             api::FlowOptions options;
             options.tech = tech;
             options.route = route;
             auto flow = api::Flow::from_cell("NAND3", options);
             ASSERT_TRUE(flow.ok());
             ASSERT_TRUE(flow.value().run(api::Stage::kExported).ok());
             EXPECT_EQ(json::dump(result.at("metrics")),
                       json::dump(api::to_json(flow.value().metrics())));
             EXPECT_EQ(result.at("metrics").get_bool("routed"), route);
           }});
    }
  }

  // A session compiled to Timed, then resumed to Exported over a request.
  const json::Value timed = execute_locally(compile_request(
      "AOI21", layout::Tech::kCnfet65, false, api::Stage::kTimed));
  cases.push_back({"compile AOI21 to timed", compile_request(
                       "AOI21", layout::Tech::kCnfet65, false,
                       api::Stage::kTimed),
                   [](const json::Value& response) {
                     ASSERT_TRUE(response.get_bool("ok"));
                     const json::Value& result = response.at("result");
                     EXPECT_EQ(result.get_string("reached"), "timed");
                     EXPECT_NE(result.find("session"), nullptr);
                     // Nothing exported yet, so no GDS stream.
                     EXPECT_EQ(result.find("gds_hex"), nullptr);
                   }});
  json::Value resume = serve::make_request(serve::RequestKind::kResume);
  resume.set("session", timed.at("result").at("session"));
  resume.set("target", "exported");
  cases.push_back({"resume AOI21 from timed", std::move(resume),
                   [](const json::Value& response) {
                     ASSERT_TRUE(response.get_bool("ok"))
                         << diagnostics_of(response);
                     EXPECT_EQ(response.at("result").get_string("reached"),
                               "exported");
                     EXPECT_EQ(gds_of(response),
                               direct_gds_bytes("AOI21",
                                                layout::Tech::kCnfet65));
                   }});

  gen::GenOptions gopt;
  gopt.family = gen::Family::kRandomDag;
  gopt.target_gates = 200;
  gopt.num_inputs = 16;
  gopt.seed = 123;
  json::Value gen_request = serve::make_request(serve::RequestKind::kGen);
  gen_request.set("gen", api::to_json(gopt));
  gen_request.set("target", "placed");
  cases.push_back(
      {"gen rand200 to placed", std::move(gen_request),
       [gopt](const json::Value& response) {
         ASSERT_TRUE(response.get_bool("ok")) << diagnostics_of(response);
         const json::Value& result = response.at("result");
         EXPECT_EQ(result.get_string("reached"), "placed");
         // The same flow a hand-run generate + from_netlist produces.
         auto library = api::LibraryCache::global().get(layout::Tech::kCnfet65);
         ASSERT_TRUE(library.ok());
         auto design = gen::generate(*library.value(), gopt);
         api::FlowOptions options;
         options.library = library.value();
         options.top_name = design.name;
         auto local = api::Flow::from_netlist(std::move(design.netlist), options);
         ASSERT_TRUE(local.ok());
         ASSERT_TRUE(local.value().run(api::Stage::kPlaced).ok());
         EXPECT_EQ(json::dump(result.at("metrics")),
                   json::dump(api::to_json(local.value().metrics())));
         auto session = local.value().session_json();
         ASSERT_TRUE(session.ok());
         EXPECT_EQ(json::dump(result.at("session")),
                   json::dump(session.value()));
       }});
  json::Value bad_gen = serve::make_request(serve::RequestKind::kGen);
  json::Value fft = api::to_json(gopt);
  fft.set("family", "fft");
  bad_gen.set("gen", std::move(fft));
  cases.push_back({"gen unknown family", std::move(bad_gen),
                   [](const json::Value& response) {
                     EXPECT_FALSE(response.get_bool("ok"));
                     EXPECT_NE(diagnostics_of(response).find("fft"),
                               std::string::npos);
                   }});

  json::Value sta = serve::make_request(serve::RequestKind::kSta, "sta-1");
  sta.set("job", compile_request("NAND3", layout::Tech::kCnfet65).at("job"));
  cases.push_back({"sta NAND3", std::move(sta), [](const json::Value& response) {
                     ASSERT_TRUE(response.get_bool("ok"));
                     EXPECT_EQ(response.get_string("id"), "sta-1");
                     auto flow = api::Flow::from_cell("NAND3");
                     ASSERT_TRUE(flow.ok());
                     ASSERT_TRUE(flow.value().run(api::Stage::kTimed).ok());
                     EXPECT_EQ(
                         json::dump(response.at("result").at("sta")),
                         json::dump(api::to_json(flow.value().timed()->timing)));
                   }});

  json::Value mc = serve::make_request(serve::RequestKind::kMonteCarlo);
  mc.set("cell", "NAND3");
  mc.set("trials", 2000);
  mc.set("seed", 3);
  mc.set("threads", 2);
  cases.push_back(
      {"monte_carlo NAND3", std::move(mc), [](const json::Value& response) {
         ASSERT_TRUE(response.get_bool("ok"));
         const auto served =
             api::monte_carlo_result_from_json(response.at("result").at("mc"));
         EXPECT_EQ(served.trials, 2000);
         EXPECT_FALSE(served.shorts_histogram.empty());
         EXPECT_FALSE(served.chains_histogram.empty());
         const auto built = layout::build_cell(layout::find_cell_spec("NAND3"));
         const auto direct =
             cnt::monte_carlo(built.layout, built.netlist, built.function,
                              cnt::TubeModel{}, 2000, 3, 1);
         EXPECT_EQ(json::dump(response.at("result").at("mc")),
                   json::dump(api::to_json(direct)));
       }});

  json::Value batch = serve::make_request(serve::RequestKind::kBatch);
  json::Value jobs = json::Value::array();
  for (const char* cell : {"INV", "NOR2"}) {
    jobs.push_back(compile_request(cell, layout::Tech::kCnfet65).at("job"));
  }
  batch.set("jobs", std::move(jobs));
  batch.set("num_threads", 2);
  cases.push_back({"batch INV+NOR2", std::move(batch),
                   [](const json::Value& response) {
                     ASSERT_TRUE(response.get_bool("ok"));
                     EXPECT_EQ(response.at("result").get_int("num_ok"), 2);
                     EXPECT_EQ(response.at("result").get_int("num_failed"), 0);
                   }});
  return cases;
}

TEST_F(ServeTest, EveryFlowKindAnswersTheSameServedAndInProcess) {
  const int port = start();
  auto c = client(port);
  for (const FlowCase& flow_case : flow_cases()) {
    SCOPED_TRACE(flow_case.name);
    const json::Value local = execute_locally(flow_case.request);
    auto served = c.call(flow_case.request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(json::dump(served.value()), json::dump(local));
    flow_case.check(local);
  }
}

TEST(ServeExecute, MonteCarloSeedsAboveTwoTo53TravelAsDecimalStrings) {
  // 2^53 + 1 and 2^53 are one JSON double; as decimal strings they stay
  // two seeds, each the seed cnt::monte_carlo is called with directly.
  const auto built = layout::build_cell(layout::find_cell_spec("NAND3"));
  std::vector<std::string> results;
  for (const std::uint64_t seed : {9007199254740993ULL, 9007199254740992ULL}) {
    json::Value request = serve::make_request(serve::RequestKind::kMonteCarlo);
    request.set("cell", "NAND3");
    request.set("trials", 500);
    request.set("seed", std::to_string(seed));
    const json::Value response = execute_locally(request);
    ASSERT_TRUE(response.get_bool("ok")) << diagnostics_of(response);
    const auto direct = cnt::monte_carlo(built.layout, built.netlist,
                                         built.function, cnt::TubeModel{},
                                         500, seed, 1);
    results.push_back(json::dump(response.at("result").at("mc")));
    EXPECT_EQ(results.back(), json::dump(api::to_json(direct)));
  }
  EXPECT_NE(results[0], results[1]);
  // The string form is digits only; a number seed still works (above).
  for (const char* bad : {"-1", "+3", " 7", "18446744073709551616", ""}) {
    json::Value request = serve::make_request(serve::RequestKind::kMonteCarlo);
    request.set("cell", "NAND3");
    request.set("trials", 10);
    request.set("seed", bad);
    const json::Value response = execute_locally(request);
    EXPECT_FALSE(response.get_bool("ok")) << bad;
    EXPECT_NE(diagnostics_of(response).find("seed is not a uint64"),
              std::string::npos)
        << diagnostics_of(response);
  }
}

TEST(ServeExecute, BatchJobCountIsCappedBeforeAnyJobIsBuilt) {
  const auto batch_of = [](std::size_t count, const json::Value& job) {
    json::Value jobs = json::Value::array();
    for (std::size_t i = 0; i < count; ++i) jobs.push_back(job);
    json::Value request = serve::make_request(serve::RequestKind::kBatch);
    request.set("jobs", std::move(jobs));
    return request;
  };
  // One job past the ceiling: refused, naming it, and no job runs (the
  // response carries no report).
  api::FlowJob trivial;
  trivial.cell = "INV";
  trivial.target = api::Stage::kCreated;
  const auto limit =
      static_cast<std::size_t>(serve::RequestLimits::kMaxBatchJobs);
  const json::Value refused =
      execute_locally(batch_of(limit + 1, api::to_json(trivial)));
  EXPECT_FALSE(refused.get_bool("ok"));
  EXPECT_NE(diagnostics_of(refused).find(
                "batch of 1025 jobs exceeds the limit of " +
                std::to_string(limit)),
            std::string::npos)
      << diagnostics_of(refused);
  const json::Value* result = refused.find("result");
  EXPECT_TRUE(result == nullptr || result->find("report") == nullptr);
  // At the ceiling the count is admitted: malformed jobs then fail to
  // parse, so the check passes without running 1,024 flows.
  const json::Value at_limit =
      execute_locally(batch_of(limit, json::Value::object()));
  EXPECT_FALSE(at_limit.get_bool("ok"));
  EXPECT_EQ(diagnostics_of(at_limit).find("exceeds the limit"),
            std::string::npos)
      << diagnostics_of(at_limit);
}

TEST_F(ServeTest, GenNamesTheTopAfterTheDesignUnlessTopNamesAnother) {
  const int port = start();
  auto c = client(port);
  gen::GenOptions gopt;
  gopt.width = 8;  // rca8
  // No options at all, the default name "TOP", and an explicit name.
  for (const auto& [top, expected] :
       {std::pair<std::string, std::string>{"", "rca8"},
        {"TOP", "rca8"},
        {"FOO", "FOO"}}) {
    SCOPED_TRACE("top \"" + top + "\"");
    json::Value request = serve::make_request(serve::RequestKind::kGen);
    request.set("gen", api::to_json(gopt));
    if (!top.empty()) {
      api::FlowOptions options;
      options.top_name = top;
      request.set("options", api::to_json(options));
    }
    const json::Value local = execute_locally(request);
    ASSERT_TRUE(local.get_bool("ok")) << diagnostics_of(local);
    auto served = c.call(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(json::dump(served.value()), json::dump(local));
    EXPECT_EQ(gds_top_name(gds_of(local)), expected);
    EXPECT_EQ(local.at("result").at("metrics").get_string("name"), expected);
  }
}

// The ceilings admit every tier the repository runs.
static_assert(serve::RequestLimits::kMaxAdderWidth >= 1112);
static_assert(serve::RequestLimits::kMaxRandomGates >= 10000);

TEST_F(ServeTest, OversizedRequestsAreRefusedBeforeTheEngineAllocates) {
  const int port = start();
  auto c = client(port);
  const auto gen_request = [](gen::Family family, int width, int gates,
                              int inputs) {
    gen::GenOptions gopt;
    gopt.family = family;
    gopt.width = width;
    gopt.target_gates = gates;
    gopt.num_inputs = inputs;
    json::Value request = serve::make_request(serve::RequestKind::kGen);
    request.set("gen", api::to_json(gopt));
    return request;
  };
  json::Value trials = serve::make_request(serve::RequestKind::kMonteCarlo);
  trials.set("cell", "NAND3");
  trials.set("trials", 20'000'000);
  const std::vector<std::pair<json::Value, int>> refused = {
      {gen_request(gen::Family::kRippleCarryAdder, 2'000'000'000, 1, 1),
       serve::RequestLimits::kMaxAdderWidth},
      {gen_request(gen::Family::kCarryLookaheadAdder, 5000, 1, 1),
       serve::RequestLimits::kMaxAdderWidth},
      {gen_request(gen::Family::kArrayMultiplier, 65, 1, 1),
       serve::RequestLimits::kMaxMultiplierWidth},
      {gen_request(gen::Family::kRandomDag, 8, 1'000'000, 16),
       serve::RequestLimits::kMaxRandomGates},
      {gen_request(gen::Family::kRandomDag, 8, 100, 100'000),
       serve::RequestLimits::kMaxRandomInputs},
      {trials, serve::RequestLimits::kMaxTrials},
  };
  for (const auto& [request, limit] : refused) {
    SCOPED_TRACE(json::dump(request));
    const json::Value local = execute_locally(request);
    EXPECT_FALSE(local.get_bool("ok"));
    EXPECT_NE(diagnostics_of(local).find(std::to_string(limit)),
              std::string::npos)
        << diagnostics_of(local);
    auto served = c.call(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(json::dump(served.value()), json::dump(local));
  }
  EXPECT_TRUE(c.ping());
}

/// `array` with element `index` replaced by `item`.
json::Value with_item(const json::Value& array, std::size_t index,
                      json::Value item) {
  json::Value out = json::Value::array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    out.push_back(i == index ? item : array.at(i));
  }
  return out;
}

/// A routed NAND3 session at Exported with its stored routing passed
/// through `edit` and, when given, its stored placement through
/// `edit_placement`.
json::Value routed_session_with(
    const std::function<void(json::Value& routing)>& edit,
    const std::function<void(json::Value& placement)>& edit_placement = {}) {
  api::FlowOptions options;
  options.route = true;
  auto flow = api::Flow::from_cell("NAND3", options).value();
  EXPECT_TRUE(flow.run().ok());
  json::Value session = flow.session_json().value();
  json::Value routed = session.at("routed");
  json::Value routing = routed.at("routing");
  edit(routing);
  routed.set("routing", std::move(routing));
  session.set("routed", std::move(routed));
  if (edit_placement) {
    json::Value placed = session.at("placed");
    json::Value placement = placed.at("placement");
    edit_placement(placement);
    placed.set("placement", std::move(placement));
    session.set("placed", std::move(placed));
  }
  return session;
}

TEST_F(ServeTest, HostileStoredRoutingIsRefusedNotCrashedOn) {
  // A zero pitch divided route::extract by zero; a wire stretched by 2^40
  // DBU had it allocate a node per pitch step until bad_alloc.
  const json::Value zero_pitch = routed_session_with(
      [](json::Value& routing) { routing.set("pitch", 0); });
  int stretched_net = -1;
  const json::Value stretched =
      routed_session_with([&](json::Value& routing) {
        const json::Value& nets = routing.at("nets");
        for (std::size_t n = 0; n < nets.size(); ++n) {
          const json::Value& wires = nets.at(n).at("wires");
          if (wires.size() == 0) continue;
          const json::Value& wire = wires.at(std::size_t{0});
          // [layer, ax, ay, bx, by, width]: lengthen along the wire's axis.
          const std::size_t end =
              wire.at(std::size_t{2}).as_int64() ==
                      wire.at(std::size_t{4}).as_int64()
                  ? 3
                  : 4;
          json::Value net = nets.at(n);
          net.set("wires",
                  with_item(wires, 0,
                            with_item(wire, end,
                                      wire.at(end).as_int64() +
                                          (std::int64_t{1} << 40))));
          routing.set("nets", with_item(nets, n, std::move(net)));
          stretched_net = nets.at(n).get_int("net");
          return;
        }
      });
  ASSERT_GE(stretched_net, 0);

  const int port = start();
  auto c = client(port);
  const std::vector<std::pair<const json::Value*, std::string>> hostile = {
      {&zero_pitch, "routing pitch 0 is not positive"},
      {&stretched,
       "routed net " + std::to_string(stretched_net) + ": wire leaves"},
  };
  for (const auto& [session, message] : hostile) {
    SCOPED_TRACE(message);
    const auto resumed = api::Flow::resume_json(*session, "<test>");
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.error().message.find(message), std::string::npos)
        << resumed.error().message;

    json::Value request = serve::make_request(serve::RequestKind::kResume);
    request.set("session", *session);
    const json::Value local = execute_locally(request);
    EXPECT_FALSE(local.get_bool("ok"));
    EXPECT_NE(diagnostics_of(local).find(message), std::string::npos)
        << diagnostics_of(local);
    auto served = c.call(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(json::dump(served.value()), json::dump(local));
    EXPECT_TRUE(c.ping());
  }
}

TEST_F(ServeTest, HostileStoredGridIsRefusedWithinASecond) {
  // route::extract walks every wire in pitch steps. A 1 DBU pitch and a
  // wire across a 10^7 DBU grid cost 8-10 s of node insertions before the
  // stored pitch and grid were bounded by the router's own sizing rule.
  // That bound scales with the stored placement: widened with it to
  // 4*10^10 DBU at the rules' pitch, the session was accepted after 7.3 s
  // until resume re-ran the placer and compared.
  const auto hostile = [](std::int64_t span, bool fine_pitch,
                          bool wide_placement) {
    return routed_session_with(
        [=](json::Value& routing) {
          json::Value grid = routing.at("grid_bbox");
          const std::int64_t lo_x = grid.at("lo_x").as_int64();
          const std::int64_t y = grid.at("lo_y").as_int64();
          grid.set("hi_x", lo_x + span);
          routing.set("grid_bbox", std::move(grid));
          if (fine_pitch) routing.set("pitch", 1);
          const json::Value& nets = routing.at("nets");
          json::Value wire = json::Value::array();
          for (const std::int64_t v : {std::int64_t{0}, lo_x, y, lo_x + span,
                                       y, std::int64_t{1}}) {
            wire.push_back(v);
          }
          for (std::size_t n = 0; n < nets.size(); ++n) {
            if (nets.at(n).at("wires").size() == 0) continue;
            json::Value net = nets.at(n);
            net.set("wires", with_item(net.at("wires"), 0, std::move(wire)));
            routing.set("nets", with_item(nets, n, std::move(net)));
            return;
          }
        },
        [=](json::Value& placement) {
          if (!wide_placement) return;
          json::Value bbox = placement.at("bbox");
          bbox.set("hi_x", bbox.at("hi_x").as_int64() + span);
          placement.set("bbox", std::move(bbox));
        });
  };
  const json::Value fine_pitch = hostile(10'000'000, true, false);
  const json::Value wide_grid = hostile(10'000'000, false, false);
  const json::Value wide_placement = hostile(40'000'000'000, false, true);
  json::Value moved_instance = routed_session_with(
      [](json::Value&) {},
      [](json::Value& placement) {
        const json::Value& instances = placement.at("instances");
        json::Value instance = instances.at(std::size_t{1});
        instance.set("x", instance.at("x").as_int64() + 4'000);
        placement.set("instances",
                      with_item(instances, 1, std::move(instance)));
      });

  const int port = start();
  auto c = client(port);
  const std::vector<std::pair<const json::Value*, std::string>> refused = {
      {&fine_pitch, "routing pitch 1 is not the rules' route pitch"},
      {&wide_grid, "routing grid is larger than the router builds"},
      {&wide_placement, "stored placement bbox differs from the placer's"},
      {&moved_instance, "stored placement instance 1 (gate "},
  };
  for (const auto& [session, message] : refused) {
    SCOPED_TRACE(message);
    auto start_time = std::chrono::steady_clock::now();
    const auto resumed = api::Flow::resume_json(*session, "<test>");
    EXPECT_LT(std::chrono::steady_clock::now() - start_time,
              std::chrono::seconds(1));
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.error().message.find(message), std::string::npos)
        << resumed.error().message;

    json::Value request = serve::make_request(serve::RequestKind::kResume);
    request.set("session", *session);
    start_time = std::chrono::steady_clock::now();
    auto served = c.call(request);
    EXPECT_LT(std::chrono::steady_clock::now() - start_time,
              std::chrono::seconds(1));
    ASSERT_TRUE(served.ok());
    EXPECT_FALSE(served.value().get_bool("ok"));
    EXPECT_NE(diagnostics_of(served.value()).find(message),
              std::string::npos);
    EXPECT_TRUE(c.ping());
  }
}

TEST_F(ServeTest, OutOfRangeTrialsAndThreadsAreRefusedWithTheirRange) {
  const int port = start();
  auto c = client(port);
  const auto mc_request = [](int trials, int threads) {
    json::Value request = serve::make_request(serve::RequestKind::kMonteCarlo);
    request.set("cell", "NAND3");
    request.set("trials", trials);
    request.set("threads", threads);
    return request;
  };
  const auto batch_request = [](int num_threads) {
    json::Value request = serve::make_request(serve::RequestKind::kBatch);
    request.set("jobs", json::Value::array());
    request.set("num_threads", num_threads);
    return request;
  };
  const std::string max_threads =
      std::to_string(serve::RequestLimits::kMaxThreads);
  // (request, the range its Diagnostic must name)
  const std::vector<std::pair<json::Value, std::string>> refused = {
      {mc_request(0, 1),
       "trials must be in [1, " +
           std::to_string(serve::RequestLimits::kMaxTrials) + "], got 0"},
      {mc_request(-5, 1), "trials must be in [1, "},
      {mc_request(10, 10'000'000),
       "threads must be in [0, " + max_threads + "], got 10000000"},
      {mc_request(10, -1), "threads must be in [0, " + max_threads + "]"},
      {batch_request(2'000'000'000),
       "num_threads must be in [0, " + max_threads + "]"},
      {batch_request(-3), "num_threads must be in [0, " + max_threads + "]"},
  };
  for (const auto& [request, range] : refused) {
    SCOPED_TRACE(json::dump(request));
    const json::Value local = execute_locally(request);
    EXPECT_FALSE(local.get_bool("ok"));
    EXPECT_NE(diagnostics_of(local).find(range), std::string::npos)
        << diagnostics_of(local);
    auto served = c.call(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(json::dump(served.value()), json::dump(local));
    EXPECT_TRUE(c.ping());
  }
  // The ends of the ranges are admitted.
  for (const auto& request : {mc_request(1, 0), mc_request(1, 1)}) {
    auto served = c.call(request);
    ASSERT_TRUE(served.ok());
    EXPECT_TRUE(served.value().get_bool("ok"))
        << diagnostics_of(served.value());
  }
}

TEST_F(ServeTest, ConcurrentClientsAllGetIdenticalCorrectResults) {
  const int port = start();
  const std::vector<std::string> cells = {"INV", "NAND2", "NOR2", "NAND3"};
  std::vector<std::string> served(cells.size());
  std::vector<std::string> errors(cells.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    threads.emplace_back([&, i] {
      auto connected =
          serve::Client::connect("127.0.0.1:" + std::to_string(port));
      if (!connected.ok()) {
        errors[i] = connected.error().to_string();
        return;
      }
      auto response = connected.value().call(
          compile_request(cells[i], layout::Tech::kCnfet65));
      if (!response.ok()) {
        errors[i] = response.error().to_string();
        return;
      }
      if (!response.value().get_bool("ok")) {
        errors[i] =
            serve::response_diagnostics(response.value()).to_string();
        return;
      }
      auto bytes = serve::from_hex(
          response.value().at("result").get_string("gds_hex"));
      if (bytes.ok()) served[i] = std::move(bytes).value();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << cells[i] << ": " << errors[i];
    EXPECT_EQ(served[i], direct_gds_bytes(cells[i], layout::Tech::kCnfet65))
        << cells[i];
  }
}

TEST_F(ServeTest, ShutdownUnderLoadDrainsEveryAcceptedRequest) {
  serve::ServerOptions options;
  options.num_threads = 2;
  const int port = start(std::move(options));
  constexpr int kClients = 6;
  std::atomic<int> answered{0};
  std::atomic<int> transport_failed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto connected =
          serve::Client::connect("127.0.0.1:" + std::to_string(port));
      if (!connected.ok()) {
        ++transport_failed;
        return;
      }
      const char* cell = (i % 2 == 0) ? "NAND3" : "AOI21";
      auto response = connected.value().call(
          compile_request(cell, layout::Tech::kCnfet65));
      // Every outcome must be orderly: a response (ok or structured
      // error), or a clean transport failure if stop() won the race
      // before the request was read. Crashes/hangs fail the test.
      if (response.ok()) {
        ++answered;
      } else {
        ++transport_failed;
      }
    });
  }
  // Let some requests land, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(answered.load() + transport_failed.load(), kClients);
  EXPECT_FALSE(server_->running());
  // Accepted-and-read requests were answered, not dropped: the counters
  // must balance (no request vanished between total and ok+error).
  const auto stats = server_->stats();
  EXPECT_EQ(stats.requests_total, stats.requests_ok + stats.requests_error);
  EXPECT_EQ(stats.in_flight, 0);
}

}  // namespace
}  // namespace cnfet
