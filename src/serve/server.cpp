#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "compiler/cli.h"
#include "cost/calibrate.h"
#include "serve/client.h"
#include "tech/techlib_parser.h"
#include "util/strings.h"

namespace sega {

namespace {

/// Commands with process-level or multi-process semantics that make no
/// sense inside a resident daemon; the thin client runs them in-process.
bool command_rejected(const std::string& command) {
  return command == "orchestrate" || command == "sweep-merge" ||
         command == "memo-compact" || command == "serve";
}

/// Flags that would give one request a private environment (its own
/// technology or memo files) or a slice of a multi-process sweep — both
/// incompatible with shared resident state.  The client never forwards
/// them; rejecting them here too keeps hand-written clients honest.
const char* const kRejectedFlags[] = {"--tech", "--cache-file",
                                      "--rtl-cache-file", "--shard"};

bool run_request_allowed(const std::vector<std::string>& argv,
                         std::string* reject) {
  if (command_rejected(argv[0])) {
    *reject = strfmt("command '%s' is not available via the daemon (run "
                     "with --no-daemon)",
                     argv[0].c_str());
    return false;
  }
  for (const std::string& arg : argv) {
    for (const char* flag : kRejectedFlags) {
      if (arg == flag) {
        *reject = strfmt("%s is not available via the daemon (run with "
                         "--no-daemon)",
                         flag);
        return false;
      }
    }
  }
  return true;
}

/// Side-effect-free requests — nothing written to the filesystem — may be
/// served from the finished-response cache.  Anything with --out or
/// --checkpoint must re-execute so its files (re)appear, and compile
/// always writes artifacts.  Calibration requests are never cached either:
/// --calibrate writes the artifact file, and a --calibration response
/// depends on the artifact's *content*, which can change between two
/// byte-identical argv lines.
bool run_request_cacheable(const std::vector<std::string>& argv) {
  if (argv[0] == "compile") return false;
  for (const std::string& arg : argv) {
    if (arg == "--out" || arg == "--checkpoint" || arg == "--calibrate" ||
        arg == "--calibration") {
      return false;
    }
  }
  return true;
}

}  // namespace

ServeServer::ServeServer(Technology tech, ServeOptions opts)
    : tech_(std::move(tech)),
      opts_(std::move(opts)),
      broker_(
          [this](const std::vector<std::string>& argv, std::ostream& out,
                 std::ostream& err,
                 const std::function<void(const Json&)>& progress) {
            return execute(argv, out, err, progress);
          },
          opts_.response_cache_entries) {}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start(std::string* error) {
  listener_ = unix_listen(opts_.socket_path, error);
  if (!listener_.valid()) return false;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

void ServeServer::stop() {
  if (!started_) return;
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    // Unlink before draining: from this moment new clients fail to connect
    // and silently fall back in-process instead of queueing behind a dying
    // daemon.
    listener_.reset();
    ::unlink(opts_.socket_path.c_str());
    // Wake idle connections with EOF; in-flight requests keep running and
    // still deliver their results (only the read side is shut).
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [id, session] : sessions_) {
        (void)id;
        if (!session->done.load()) ::shutdown(session->fd, SHUT_RD);
      }
    }
    std::map<int, std::shared_ptr<Session>> drained;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      drained.swap(sessions_);
    }
    for (auto& [id, session] : drained) {
      (void)id;
      if (session->thread.joinable()) session->thread.join();
      ::close(session->fd);
    }
    flush_memos(/*force=*/true);
  });
  started_ = false;
}

bool ServeServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  return shutdown_requested_;
}

void ServeServer::wait(const std::function<bool()>& interrupted) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  while (!shutdown_requested_ && !(interrupted && interrupted())) {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

void ServeServer::accept_loop() {
  // Completed-runs watermark of the last periodic delta flush.  Local to
  // the accept thread — the only periodic flusher; the forced shutdown
  // flush in stop() runs after this thread is joined.
  std::uint64_t flushed_runs = 0;
  while (!stopping_.load()) {
    bool fatal = false;
    Fd conn = unix_accept(listener_.get(), /*timeout_ms=*/200, &fatal);
    reap_finished();
    const std::uint64_t done_runs = completed_runs_.load();
    if (done_runs > flushed_runs) {
      bool idle = true;
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        for (const auto& [id, session] : sessions_) {
          (void)id;
          if (!session->done.load()) {
            idle = false;
            break;
          }
        }
      }
      // Flush every kFlushEveryRuns completed requests, or as soon as the
      // daemon goes idle — so a quiet daemon never sits on unflushed work.
      if (idle || done_runs - flushed_runs >= kFlushEveryRuns) {
        flush_memos(/*force=*/false);
        flushed_runs = done_runs;
      }
    }
    if (!conn.valid()) {
      if (fatal) break;
      continue;
    }
    auto session = std::make_shared<Session>();
    session->fd = conn.release();
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const int id = next_session_++;
    session->thread = std::thread([this, session] {
      handle_connection(*session);
      session->done.store(true);
    });
    sessions_.emplace(id, session);
  }
}

void ServeServer::reap_finished() {
  std::vector<std::shared_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->done.load()) {
        finished.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
    ::close(session->fd);
  }
}

void ServeServer::handle_connection(Session& session) {
  LineReader reader(session.fd, kMaxRequestBytes);
  std::string line;
  for (;;) {
    const LineReader::Status status = reader.read_line(&line);
    if (status == LineReader::Status::kEof ||
        status == LineReader::Status::kError) {
      return;
    }
    if (status == LineReader::Status::kTooLong) {
      if (!send_all(session.fd,
                    error_line(Json(), strfmt("request exceeds %zu bytes",
                                              kMaxRequestBytes)))) {
        return;
      }
      continue;
    }
    if (trim(line).empty()) continue;
    ServeRequest req;
    std::string parse_error;
    if (!parse_request(line, &req, &parse_error)) {
      if (!send_all(session.fd, error_line(Json(), parse_error))) return;
      continue;
    }
    switch (req.cmd) {
      case ServeRequest::Cmd::kPing:
        if (!send_all(session.fd,
                      pong_line(req.id, static_cast<int>(::getpid())))) {
          return;
        }
        break;
      case ServeRequest::Cmd::kStatus:
        if (!send_all(session.fd, status_line(req.id, status_json()))) {
          return;
        }
        break;
      case ServeRequest::Cmd::kShutdown: {
        send_all(session.fd,
                 result_line(req.id, 0,
                             strfmt("daemon %d shutting down\n",
                                    static_cast<int>(::getpid())),
                             ""));
        {
          std::lock_guard<std::mutex> lock(shutdown_mu_);
          shutdown_requested_ = true;
        }
        shutdown_cv_.notify_all();
        break;
      }
      case ServeRequest::Cmd::kRun: {
        std::string reject;
        if (!run_request_allowed(req.argv, &reject)) {
          if (!send_all(session.fd, error_line(req.id, reject))) return;
          break;
        }
        // All writes to this connection happen on this thread (the broker
        // invokes the sink on the subscriber's own thread), so progress
        // lines can never interleave with the result line.
        const Json id = req.id;
        const int fd = session.fd;
        const auto sink = [fd, &id](const Json& record) {
          send_all(fd, progress_line(id, record));
        };
        const RunOutcome outcome =
            broker_.run(req.argv, run_request_cacheable(req.argv), sink);
        completed_runs_.fetch_add(1);
        if (!send_all(session.fd, result_line(req.id, outcome.exit,
                                              outcome.out, outcome.err))) {
          return;
        }
        break;
      }
    }
  }
}

int ServeServer::execute(const std::vector<std::string>& argv,
                         std::ostream& out, std::ostream& err,
                         const std::function<void(const Json&)>& progress) {
  CliHooks hooks;
  hooks.tech = &tech_;
  hooks.cache_for = [this](const EvalConfig& eval) { return cache_for(eval); };
  hooks.sweep_progress = progress;
  return run_cli_hooked(argv, out, err, hooks);
}

CostCache* ServeServer::cache_for(const EvalConfig& eval) {
  // Resolution failures return null: the request then resolves again
  // in-process and surfaces the resolver's diagnostic — the daemon must not
  // invent a different error path.  Resolving per request re-reads a named
  // artifact, so an edited artifact is keyed by its new digest.
  std::unique_ptr<CostModel> model = eval.make_model(tech_, nullptr);
  if (!model) return nullptr;
  const std::string identity = eval.identity(model->calibration().get());
  std::lock_guard<std::mutex> lock(caches_mu_);
  const auto it = caches_.find(identity);
  if (it != caches_.end()) return it->second.cache.get();

  CacheStack stack;
  stack.cache = std::make_unique<CostCache>(std::move(model));
  if (!opts_.cache_file.empty()) {
    // Delta files are persisted under this name: identity() keeps its
    // byte format (test_eval_identity pins the names).
    stack.delta_path = strfmt("%s.serve-%08x", opts_.cache_file.c_str(),
                              fnv1a32(identity));
    // The base memo carries ONE fingerprint; a mismatch just means it
    // belongs to a different configuration — skipped, never fatal.  Base
    // entries are marked imported so the shutdown flush writes only this
    // daemon's delta.
    std::error_code ec;
    std::string load_error;
    if (std::filesystem::exists(opts_.cache_file, ec)) {
      stack.base_loaded =
          stack.cache->load(opts_.cache_file, &load_error,
                            /*mark_imported=*/true);
    }
    if (std::filesystem::exists(stack.delta_path, ec)) {
      (void)stack.cache->load(stack.delta_path, &load_error,
                              /*mark_imported=*/false);
    }
  }
  // Entries present at seed time need no periodic re-flush; the first
  // forced (shutdown) flush still writes the delta unconditionally.
  stack.flushed_size = stack.cache->size();
  CostCache* raw = stack.cache.get();
  caches_.emplace(identity, std::move(stack));
  return raw;
}

void ServeServer::flush_memos(bool force) {
  std::lock_guard<std::mutex> lock(caches_mu_);
  for (auto& [key, stack] : caches_) {
    (void)key;
    if (stack.delta_path.empty()) continue;
    // A periodic flush skips stacks that have not grown since their last
    // flush; save_delta always writes the full delta atomically, so a
    // grown stack's file is byte-identical to what a shutdown-only flush
    // would have written at the same entry set.
    if (!force && stack.cache->size() == stack.flushed_size) continue;
    std::string save_error;
    if (!stack.cache->save_delta(stack.delta_path, &save_error)) {
      std::fprintf(stderr, "[sega] warning: %s (serve memo flush)\n",
                   save_error.c_str());
      continue;
    }
    stack.flushed_size = stack.cache->size();
  }
}

Json ServeServer::status_json() const {
  Json s = Json::object();
  s["pid"] = static_cast<std::int64_t>(::getpid());
  s["socket"] = opts_.socket_path;
  if (!opts_.cache_file.empty()) s["memo_file"] = opts_.cache_file;

  Json b = Json::object();
  b["requests"] = broker_.requests();
  b["executions"] = broker_.executions();
  b["coalesced"] = broker_.coalesced();
  b["response_hits"] = broker_.response_hits();
  b["response_entries"] =
      static_cast<std::uint64_t>(broker_.response_entries());
  s["broker"] = b;

  Json caches = Json::array();
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    for (const auto& [key, stack] : caches_) {
      (void)key;
      const CostCache& cache = *stack.cache;
      Json c = Json::object();
      c["backend"] = cache.model_name();
      c["supply_v"] = cache.conditions().supply_v;
      c["input_sparsity"] = cache.conditions().input_sparsity;
      c["activity"] = cache.conditions().activity;
      if (const auto cal = cache.calibration()) {
        c["calibration"] = cal->digest();
      }
      if (cache.layout_enabled()) c["layout"] = true;
      c["entries"] = static_cast<std::uint64_t>(stack.cache->size());
      c["hits"] = stack.cache->hits();
      c["misses"] = stack.cache->misses();
      c["base_loaded"] = stack.base_loaded;
      if (!stack.delta_path.empty()) c["delta_file"] = stack.delta_path;
      caches.push_back(std::move(c));
    }
  }
  s["caches"] = caches;

  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      (void)id;
      if (!session->done.load()) ++live;
    }
  }
  s["connections"] = static_cast<std::uint64_t>(live);
  return s;
}

// --- the `serve` subcommand -------------------------------------------------

namespace {

volatile std::sig_atomic_t g_serve_signal = 0;

extern "C" void serve_signal_handler(int) { g_serve_signal = 1; }

}  // namespace

int run_serve_cli(const std::map<std::string, std::string>& flags,
                  std::ostream& out, std::ostream& err) {
  const std::string socket_path =
      flags.count("socket") ? flags.at("socket") : default_socket_path();
  if (flags.count("status") && flags.count("stop")) {
    err << "--status and --stop are mutually exclusive\n";
    return 2;
  }
  if (flags.count("status")) {
    std::string client_error;
    const auto status = daemon_status(socket_path, &client_error);
    if (!status) {
      err << client_error << "\n";
      return 1;
    }
    out << status->dump(2) << "\n";
    return 0;
  }
  if (flags.count("stop")) {
    std::string client_error;
    if (!daemon_shutdown(socket_path, &client_error)) {
      err << client_error << "\n";
      return 1;
    }
    out << "daemon at '" << socket_path << "' shutting down\n";
    return 0;
  }

  // Foreground daemon.
  Technology tech = Technology::tsmc28();
  if (flags.count("tech")) {
    std::ifstream in(flags.at("tech"));
    if (!in) {
      err << "cannot open techlib '" << flags.at("tech") << "'\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string parse_error;
    const auto parsed = parse_techlib(buf.str(), &parse_error);
    if (!parsed) {
      err << parse_error << "\n";
      return 2;
    }
    tech = *parsed;
  }
  ServeOptions opts;
  opts.socket_path = socket_path;
  if (flags.count("cache-file")) opts.cache_file = flags.at("cache-file");
  if (flags.count("calibration")) {
    // Fail-fast verification, not a default: a damaged artifact or one
    // fitted for a different model/technology aborts the daemon at startup
    // instead of failing every calibrated request at run time.  Conditions
    // vary per request, so the artifact is checked against its *own*
    // conditions; requests re-match theirs at cache_for time.
    opts.calibration_file = flags.at("calibration");
    std::string cal_error;
    const auto artifact = load_calibration(opts.calibration_file, &cal_error);
    if (!artifact ||
        !load_calibration_for(opts.calibration_file, tech,
                              artifact->conditions, &cal_error)) {
      err << cal_error << "\n";
      return 2;
    }
    err << strfmt("sega_dcim serve: calibration artifact '%s' verified "
                  "(digest %s)\n",
                  opts.calibration_file.c_str(),
                  artifact->digest().c_str());
  }
  if (const auto it = flags.find("response-cache"); it != flags.end()) {
    std::int64_t entries = 0;
    if (!parse_number_strict(it->second, &entries)) {
      err << "bad numeric option value for --response-cache: '" << it->second
          << "'\n";
      return 2;
    }
    if (entries < 0) {
      err << "option value out of range\n";
      return 2;
    }
    opts.response_cache_entries = static_cast<std::size_t>(entries);
  }

  ServeServer server(std::move(tech), std::move(opts));
  std::string start_error;
  if (!server.start(&start_error)) {
    err << start_error << "\n";
    return 1;
  }

  g_serve_signal = 0;
  const auto old_int = std::signal(SIGINT, serve_signal_handler);
  const auto old_term = std::signal(SIGTERM, serve_signal_handler);
  err << strfmt("sega_dcim serve: listening on '%s' (pid %d)\n",
                server.socket_path().c_str(), static_cast<int>(::getpid()));
  server.wait([] { return g_serve_signal != 0; });
  err << "sega_dcim serve: draining\n";
  server.stop();
  std::signal(SIGINT, old_int);
  std::signal(SIGTERM, old_term);
  err << "sega_dcim serve: stopped\n";
  return 0;
}

}  // namespace sega
