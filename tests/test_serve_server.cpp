#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/cli.h"
#include "cost/cost_cache.h"
#include "serve/client.h"
#include "tech/technology.h"
#include "test_support.h"
#include "util/json.h"
#include "util/socket.h"

namespace sega {
namespace {

/// Replace the wall-clock DSE timing in explore output ("..., 0.01s DSE)")
/// with a placeholder — the one load-dependent token in otherwise
/// deterministic output (same scrub as test_compiler_cli.cpp).
std::string scrub_timing(std::string s) {
  std::size_t pos = 0;
  while ((pos = s.find("s DSE)", pos)) != std::string::npos) {
    std::size_t start = pos;
    while (start > 0 &&
           (std::isdigit(static_cast<unsigned char>(s[start - 1])) ||
            s[start - 1] == '.')) {
      --start;
    }
    s.replace(start, pos - start, "#");
    pos = start + 7;
  }
  return s;
}

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun in_process(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

CliRun via_daemon(const std::string& socket, const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const auto code = run_via_daemon(socket, args, out, err);
  EXPECT_TRUE(code.has_value()) << "daemon unreachable";
  return {code.value_or(-1), out.str(), err.str()};
}

/// A raw protocol connection for the attack-surface tests.
struct RawClient {
  Fd fd;
  std::unique_ptr<LineReader> reader;

  explicit RawClient(const std::string& path) : fd(unix_connect(path)) {
    EXPECT_TRUE(fd.valid());
    reader = std::make_unique<LineReader>(fd.get(), std::size_t{1} << 20);
  }
  bool send(const std::string& bytes) { return send_all(fd.get(), bytes); }
  std::optional<Json> next() {
    std::string line;
    if (reader->read_line(&line) != LineReader::Status::kOk) {
      return std::nullopt;
    }
    return Json::parse(line);
  }
};

/// A small, fast, deterministic explore everybody in this suite reuses.
const std::vector<std::string> kExploreArgv = {
    "explore",       "--wstore", "64", "--precision",    "int8",
    "--generations", "3",        "--population", "16",
    "--seed",        "5",        "--threads",    "2"};

class ServeServerTest : public ::testing::Test {
 protected:
  std::string socket() const { return dir_.file("serve.sock"); }

  std::unique_ptr<ServeServer> start_server(ServeOptions opts = {}) {
    if (opts.socket_path.empty()) opts.socket_path = socket();
    auto server =
        std::make_unique<ServeServer>(Technology::tsmc28(), std::move(opts));
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server;
  }

  test::ScopedTempDir dir_{"sega_serve_test"};
};

TEST_F(ServeServerTest, PingStatusLifecycle) {
  auto server = start_server();
  int pid = 0;
  EXPECT_TRUE(daemon_ping(socket(), &pid));
  EXPECT_EQ(pid, static_cast<int>(::getpid()));

  const auto status = daemon_status(socket());
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->at("pid").as_int(), static_cast<int>(::getpid()));
  EXPECT_EQ(status->at("socket").as_string(), socket());
  EXPECT_TRUE(status->contains("broker"));

  server->stop();
  EXPECT_FALSE(std::filesystem::exists(socket()));
  EXPECT_FALSE(daemon_ping(socket()));
  // stop() is idempotent (the destructor calls it again).
  server->stop();
}

TEST_F(ServeServerTest, SecondServerOnALiveSocketRefusesToStart) {
  auto server = start_server();
  ServeOptions opts;
  opts.socket_path = socket();
  ServeServer second(Technology::tsmc28(), opts);
  std::string error;
  EXPECT_FALSE(second.start(&error));
  EXPECT_FALSE(error.empty());
  // The loser must not have unlinked the winner's socket.
  EXPECT_TRUE(daemon_ping(socket()));
}

TEST_F(ServeServerTest, ExploreByteIdenticalToInProcessRun) {
  auto server = start_server();
  const CliRun daemon = via_daemon(socket(), kExploreArgv);
  const CliRun local = in_process(kExploreArgv);

  EXPECT_EQ(daemon.code, local.code);
  EXPECT_EQ(scrub_timing(daemon.out), scrub_timing(local.out));
  EXPECT_EQ(daemon.err, local.err);

  // A repeat is a response-cache replay: byte-identical including timing.
  const CliRun again = via_daemon(socket(), kExploreArgv);
  EXPECT_EQ(again.out, daemon.out);
  EXPECT_EQ(again.err, daemon.err);
  EXPECT_GE(server->broker().response_hits(), 1u);
  EXPECT_EQ(server->broker().executions(), 1u);
}

TEST_F(ServeServerTest, ConcurrentIdenticalRequestsEvaluateExactlyOnce) {
  // The acceptance contract: N clients issue the identical explore
  // concurrently; all receive byte-identical responses and the backend ran
  // the work exactly once (request broker + response cache dedup).
  auto server = start_server();
  constexpr int kClients = 6;
  std::vector<CliRun> runs(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { runs[i] = via_daemon(socket(), kExploreArgv); });
  }
  for (auto& t : clients) t.join();

  for (const CliRun& r : runs) {
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, runs[0].out);
    EXPECT_EQ(r.err, runs[0].err);
  }
  EXPECT_FALSE(runs[0].out.empty());
  EXPECT_EQ(server->broker().executions(), 1u);
  EXPECT_EQ(server->broker().requests(),
            static_cast<std::uint64_t>(kClients));

  // The status report exposes the same counters a test of `serve --status`
  // would read.
  const Json status = server->status_json();
  EXPECT_EQ(status.at("broker").at("executions").as_int(), 1);
  // One config, one stack: a CostCache over the model, reporting its own
  // identity and counters and nothing layered beneath it.
  ASSERT_EQ(status.at("caches").size(), 1u);
  std::vector<std::string> keys;
  for (const auto& [key, value] : status.at("caches").at(0).items()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "activity", "backend", "base_loaded", "entries", "hits",
                      "input_sparsity", "misses", "supply_v"}));
}

TEST_F(ServeServerTest, SweepViaDaemonMatchesInProcessOutputAndFiles) {
  auto server = start_server();
  const std::vector<std::string> base = {
      "sweep",         "--wstores", "16,32", "--precisions", "int8",
      "--generations", "2",         "--population", "8",
      "--seed",        "3",         "--threads",    "2"};

  auto with_out = [&](const std::string& out_dir) {
    std::vector<std::string> argv = base;
    argv.push_back("--out");
    argv.push_back(out_dir);
    return argv;
  };

  const std::string daemon_dir = dir_.file("sweep_daemon");
  const std::string local_dir = dir_.file("sweep_local");
  const CliRun daemon = via_daemon(socket(), with_out(daemon_dir));
  const CliRun local = in_process(with_out(local_dir));

  // Output embeds the --out path (which necessarily differs); normalize it
  // before comparing.
  const auto normalized = [](std::string s, const std::string& out_dir) {
    for (std::size_t pos; (pos = s.find(out_dir)) != std::string::npos;) {
      s.replace(pos, out_dir.size(), "<out>");
    }
    return s;
  };
  EXPECT_EQ(daemon.code, local.code);
  EXPECT_EQ(normalized(daemon.out, daemon_dir),
            normalized(local.out, local_dir));
  EXPECT_EQ(normalized(daemon.err, daemon_dir),
            normalized(local.err, local_dir));

  // Every file the sweep writes must be byte-identical across the two
  // execution paths.
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(local_dir)) {
    names.push_back(entry.path().filename().string());
  }
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_EQ(test::read_file(daemon_dir + "/" + name),
              test::read_file(local_dir + "/" + name))
        << name << " differs between daemon and in-process sweep";
  }
}

TEST_F(ServeServerTest, SweepStreamsChecksummedProgressRecords) {
  auto server = start_server();
  RawClient client(socket());
  ASSERT_TRUE(client.send(
      R"({"id":7,"cmd":"run","argv":["sweep","--wstores","16,32",)"
      R"("--precisions","int8","--generations","2","--population","8",)"
      R"("--seed","3","--threads","2"]})"
      "\n"));

  int progress_count = 0;
  std::optional<Json> result;
  for (;;) {
    auto response = client.next();
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->contains("type"));
    const std::string type = response->at("type").as_string();
    if (type == "progress") {
      ++progress_count;
      // Progress records reuse the sweep checkpoint schema, checksum
      // included — a client can verify integrity line by line.
      EXPECT_TRUE(check_line_checksum(response->at("record")));
      EXPECT_EQ(response->at("id").as_int(), 7);
      continue;
    }
    ASSERT_EQ(type, "result");
    result = response;
    break;
  }
  EXPECT_EQ(progress_count, 2);  // one per sweep cell
  EXPECT_EQ(result->at("exit").as_int(), 0);
}

TEST_F(ServeServerTest, RejectsDaemonUnsafeCommandsAndFlags) {
  auto server = start_server();
  const std::vector<std::vector<std::string>> rejected = {
      {"orchestrate", "--workers", "2", "--checkpoint", "x"},
      {"sweep-merge", "--checkpoint", "x", "--shards", "2"},
      {"memo-compact", "--cache-file", "x"},
      {"serve"},
      {"explore", "--wstore", "64", "--precision", "int8", "--tech", "t"},
      {"sweep", "--wstores", "16", "--cache-file", "m"},
      {"sweep", "--wstores", "16", "--shard", "0/2"},
  };
  for (const auto& argv : rejected) {
    std::ostringstream out, err;
    const auto code = run_via_daemon(socket(), argv, out, err);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, 3) << argv[0];
    EXPECT_NE(err.str().find("--no-daemon"), std::string::npos) << argv[0];
  }
  // Nothing executed; the daemon stayed healthy.
  EXPECT_EQ(server->broker().executions(), 0u);
  EXPECT_TRUE(daemon_ping(socket()));
}

TEST_F(ServeServerTest, MalformedCompileSpecIsADiagnosticNotACrash) {
  // A spec value of the wrong type or out of range used to abort inside
  // the request — taking the daemon down and leaving its socket behind.
  // It must be a parse diagnostic (exit 2), byte-identical to a local run,
  // and the daemon must keep serving.
  auto server = start_server();
  const std::string spec = dir_.file("bad_spec.json");
  test::write_file(spec, R"({"layout": 1})");
  const std::vector<std::string> argv = {"compile", "--spec", spec, "--out",
                                         dir_.file("out")};
  const CliRun local = in_process(argv);
  EXPECT_EQ(local.code, 2);
  EXPECT_EQ(local.err, "layout must be a boolean\n");
  const CliRun daemon = via_daemon(socket(), argv);
  EXPECT_EQ(daemon.code, local.code);
  EXPECT_EQ(daemon.err, local.err);
  EXPECT_TRUE(daemon_ping(socket()));
  EXPECT_TRUE(std::filesystem::exists(socket()));
}

TEST_F(ServeServerTest, NonFiniteNumericFlagIsADiagnosticNotACrash) {
  // `--sparsity nan` and `--supply inf` used to reach the cost model's
  // preconditions inside the request, abort the daemon and leave its socket
  // behind.  They are flag diagnostics (exit 2), byte-identical to a local
  // run, and the daemon keeps serving.
  auto server = start_server();
  const std::pair<const char*, const char*> cases[] = {
      {"--sparsity", "nan"}, {"--supply", "inf"}, {"--supply", "nan"}};
  for (const auto& [flag, value] : cases) {
    std::vector<std::string> argv = kExploreArgv;
    argv.push_back(flag);
    argv.push_back(value);
    const CliRun local = in_process(argv);
    EXPECT_EQ(local.code, 2);
    EXPECT_NE(local.err.find("bad numeric option value"), std::string::npos)
        << local.err;
    const CliRun daemon = via_daemon(socket(), argv);
    EXPECT_EQ(daemon.code, local.code);
    EXPECT_EQ(daemon.err, local.err);
    EXPECT_TRUE(daemon_ping(socket())) << flag << " " << value;
  }
  EXPECT_TRUE(std::filesystem::exists(socket()));
}

TEST_F(ServeServerTest, MalformedRequestsGetCleanErrorsAndConnectionSurvives) {
  auto server = start_server();
  RawClient client(socket());

  const std::string bad_lines[] = {
      "this is not json\n",
      "[1,2,3]\n",
      R"({"cmd":"reboot"})" "\n",
      R"({"cmd":"run","argv":[]})" "\n",
      std::string("\xFF\xFE\x80garbage\n"),
  };
  for (const std::string& line : bad_lines) {
    ASSERT_TRUE(client.send(line));
    const auto response = client.next();
    ASSERT_TRUE(response.has_value()) << "connection died on: " << line;
    EXPECT_EQ(response->at("type").as_string(), "error");
    EXPECT_TRUE(response->contains("error"));
  }

  // After all that abuse the same connection still serves real requests.
  ASSERT_TRUE(client.send(R"({"id":1,"cmd":"ping"})" "\n"));
  const auto pong = client.next();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->at("type").as_string(), "pong");
}

TEST_F(ServeServerTest, OversizedRequestIsRejectedAndReaderResyncs) {
  ServeOptions opts;
  opts.max_request_bytes = 4096;  // small cap keeps the hostile payload cheap
  auto server = start_server(std::move(opts));
  RawClient client(socket());

  // A single line far over the cap: one clean error, not a dead daemon.
  std::string huge = R"({"cmd":"run","argv":[")";
  huge.append(64 * 1024, 'a');
  huge += "\"]}\n";
  ASSERT_TRUE(client.send(huge));
  const auto error = client.next();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("type").as_string(), "error");
  EXPECT_NE(error->at("error").as_string().find("exceeds"),
            std::string::npos);

  // The reader resynced past the oversized line: the next request works.
  ASSERT_TRUE(client.send(R"({"cmd":"ping"})" "\n"));
  const auto pong = client.next();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->at("type").as_string(), "pong");
}

TEST_F(ServeServerTest, ShutdownRequestDrainsAndRemovesSocket) {
  auto server = start_server();
  EXPECT_FALSE(server->shutdown_requested());
  std::string error;
  EXPECT_TRUE(daemon_shutdown(socket(), &error)) << error;
  // wait() returns promptly once a client requested shutdown.
  server->wait([] { return false; });
  EXPECT_TRUE(server->shutdown_requested());
  server->stop();
  EXPECT_FALSE(std::filesystem::exists(socket()));
}

TEST_F(ServeServerTest, MemoDeltasFlushOnStopAndCompactBackIntoTheBase) {
  // Build a base memo with an in-process explore...
  const std::string base_memo = dir_.file("memo.jsonl");
  std::vector<std::string> seeded = kExploreArgv;
  seeded.push_back("--cache-file");
  seeded.push_back(base_memo);
  ASSERT_EQ(in_process(seeded).code, 0);
  ASSERT_TRUE(std::filesystem::exists(base_memo));

  // ...then serve a *different* explore from a daemon seeded with it.
  {
    ServeOptions opts;
    opts.cache_file = base_memo;
    auto server = start_server(std::move(opts));
    std::vector<std::string> other = kExploreArgv;
    other[2] = "128";  // --wstore 128: new design points, new memo entries
    EXPECT_EQ(via_daemon(socket(), other).code, 0);

    const Json status = server->status_json();
    ASSERT_GE(status.at("caches").size(), 1u);
    EXPECT_TRUE(status.at("caches").at(0).at("base_loaded").as_bool());
    server->stop();
  }

  // The daemon flushed only its delta, leaving the base untouched.
  std::vector<std::string> deltas;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("memo.jsonl.serve-", 0) == 0) {
      deltas.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(deltas.size(), 1u);

  // memo-compact --extra folds the delta back into a merged memo that loads
  // cleanly and holds strictly more entries than the base.
  const std::string merged = dir_.file("merged.jsonl");
  const CliRun compact = in_process({"memo-compact", "--cache-file", base_memo,
                                     "--extra", deltas[0], "--out", merged});
  ASSERT_EQ(compact.code, 0) << compact.err;

  // A named Technology: the caches' models hold a reference to it.
  const Technology tech = Technology::tsmc28();
  CostCache base_cache(tech, {});
  CostCache merged_cache(tech, {});
  std::string load_error;
  ASSERT_TRUE(base_cache.load(base_memo, &load_error)) << load_error;
  ASSERT_TRUE(merged_cache.load(merged, &load_error)) << load_error;
  EXPECT_GT(merged_cache.size(), base_cache.size());
}

TEST_F(ServeServerTest, MemoDeltaFlushesPeriodicallyWhileServing) {
  // Regression: the memo delta used to be written only by the graceful
  // drain, so a SIGKILLed daemon lost its entire session.  The accept loop
  // now flushes grown deltas when the daemon goes idle (and every
  // kFlushEveryRuns requests) — the delta must land on disk while the
  // daemon is still running.
  const std::string base_memo = dir_.file("memo.jsonl");
  ServeOptions opts;
  opts.cache_file = base_memo;
  auto server = start_server(std::move(opts));
  EXPECT_EQ(via_daemon(socket(), kExploreArgv).code, 0);

  std::string delta;
  for (int i = 0; i < 100 && delta.empty(); ++i) {
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("memo.jsonl.serve-", 0) == 0) {
        delta = entry.path().string();
      }
    }
    if (delta.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  ASSERT_FALSE(delta.empty()) << "no periodic delta flush before shutdown";
  const std::string periodic_bytes = test::read_file(delta);
  EXPECT_FALSE(periodic_bytes.empty());

  // The forced shutdown flush rewrites the same entry set; the final file
  // is byte-identical to the periodic flush (flushing early never changes
  // what ends up on disk).
  server->stop();
  EXPECT_EQ(test::read_file(delta), periodic_bytes);
}

TEST_F(ServeServerTest, LayoutTogglePartitionsDaemonCachesAndDeltas) {
  const std::string base_memo = dir_.file("memo.jsonl");
  ServeOptions opts;
  opts.cache_file = base_memo;
  auto server = start_server(std::move(opts));

  // A --layout request forwards to the daemon and stays byte-identical to
  // the in-process run.
  std::vector<std::string> layout_argv = kExploreArgv;
  layout_argv.push_back("--layout");
  EXPECT_TRUE(daemon_eligible(layout_argv));
  const CliRun daemon_run = via_daemon(socket(), layout_argv);
  const CliRun local_run = in_process(layout_argv);
  EXPECT_EQ(daemon_run.code, 0) << daemon_run.err;
  EXPECT_EQ(scrub_timing(daemon_run.out), scrub_timing(local_run.out));

  // The same explore without --layout builds a *separate* stack: layout-on
  // and layout-off memos must never alias.
  EXPECT_EQ(via_daemon(socket(), kExploreArgv).code, 0);
  const Json status = server->status_json();
  ASSERT_EQ(status.at("caches").size(), 2u);
  int layout_stacks = 0;
  for (std::size_t i = 0; i < status.at("caches").size(); ++i) {
    const Json& c = status.at("caches").at(i);
    if (c.contains("layout")) {
      ++layout_stacks;
      EXPECT_TRUE(c.at("layout").as_bool());
    }
  }
  EXPECT_EQ(layout_stacks, 1);
  server->stop();

  // Each stack flushed its own delta file (distinct config hashes).
  std::size_t deltas = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_.path())) {
    if (entry.path().filename().string().rfind("memo.jsonl.serve-", 0) == 0) {
      ++deltas;
    }
  }
  EXPECT_EQ(deltas, 2u);
}

TEST_F(ServeServerTest, ClientHelpersClassifyEligibilityAndPaths) {
  EXPECT_TRUE(daemon_eligible({"explore", "--wstore", "64"}));
  EXPECT_TRUE(daemon_eligible({"compile", "--spec", "s.json", "--out", "d"}));
  EXPECT_TRUE(daemon_eligible({"sweep", "--wstores", "16"}));
  EXPECT_TRUE(daemon_eligible({"validate"}));
  EXPECT_FALSE(daemon_eligible({}));
  EXPECT_FALSE(daemon_eligible({"orchestrate"}));
  EXPECT_FALSE(daemon_eligible({"serve"}));
  EXPECT_FALSE(daemon_eligible({"memo-compact"}));
  EXPECT_FALSE(daemon_eligible({"explore", "--tech", "t.techlib"}));
  EXPECT_FALSE(daemon_eligible({"explore", "--cache-file", "m"}));
  EXPECT_FALSE(daemon_eligible({"validate", "--rtl-cache-file", "m"}));
  EXPECT_FALSE(daemon_eligible({"sweep", "--shard", "0/2"}));
  EXPECT_FALSE(daemon_eligible({"sweep", "--resume-summary"}));

  const auto abs =
      absolutize_for_daemon({"sweep", "--spec", "rel.json", "--out", "d",
                             "--checkpoint", "c.jsonl", "--seed", "3"});
  EXPECT_TRUE(std::filesystem::path(abs[2]).is_absolute());
  EXPECT_TRUE(std::filesystem::path(abs[4]).is_absolute());
  EXPECT_TRUE(std::filesystem::path(abs[6]).is_absolute());
  EXPECT_EQ(abs[8], "3");  // non-path values pass through

  ::setenv("SEGA_SERVE_SOCKET", "/tmp/custom.sock", 1);
  EXPECT_EQ(default_socket_path(), "/tmp/custom.sock");
  ::unsetenv("SEGA_SERVE_SOCKET");
  EXPECT_NE(default_socket_path().find("sega-serve-"), std::string::npos);
}

TEST_F(ServeServerTest, NoDaemonMeansSilentInProcessFallback) {
  // No server on this socket: run_via_daemon declines and the caller falls
  // back — the behavior the sega_dcim binary relies on.
  std::ostringstream out, err;
  const auto code = run_via_daemon(socket(), kExploreArgv, out, err);
  EXPECT_FALSE(code.has_value());
  EXPECT_TRUE(out.str().empty());
  EXPECT_TRUE(err.str().empty());
}

}  // namespace
}  // namespace sega
