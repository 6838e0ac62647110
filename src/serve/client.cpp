#include "serve/client.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "serve/protocol.h"
#include "util/socket.h"
#include "util/strings.h"

namespace sega {

namespace {

/// Responses can be large — a full sweep CSV rides inside one result line.
constexpr std::size_t kMaxResponseBytes = std::size_t{256} * 1024 * 1024;

/// Read the next well-formed response object; nullopt (with *error) on a
/// dead or misbehaving daemon.
std::optional<Json> read_response(LineReader& reader, std::string* error) {
  std::string line;
  for (;;) {
    switch (reader.read_line(&line)) {
      case LineReader::Status::kOk: {
        if (trim(line).empty()) continue;
        auto parsed = Json::parse(line);
        if (!parsed || !parsed->is_object() || !parsed->contains("type") ||
            !parsed->at("type").is_string()) {
          if (error) *error = "malformed response from daemon";
          return std::nullopt;
        }
        return parsed;
      }
      case LineReader::Status::kEof:
        if (error) *error = "daemon closed the connection";
        return std::nullopt;
      case LineReader::Status::kTooLong:
        if (error) *error = "oversized response from daemon";
        return std::nullopt;
      case LineReader::Status::kError:
        if (error) *error = "error reading from daemon";
        return std::nullopt;
    }
  }
}

/// Connect, send one command with no argv, return its single response.
std::optional<Json> simple_request(const std::string& socket_path,
                                   const char* cmd, std::string* error) {
  std::string connect_error;
  Fd fd = unix_connect(socket_path, &connect_error);
  if (!fd.valid()) {
    if (error) {
      *error = strfmt("no daemon at '%s' (%s)", socket_path.c_str(),
                      connect_error.c_str());
    }
    return std::nullopt;
  }
  Json req = Json::object();
  req["id"] = 0;
  req["cmd"] = cmd;
  if (!send_all(fd.get(), req.dump() + "\n")) {
    if (error) *error = "cannot write to daemon";
    return std::nullopt;
  }
  LineReader reader(fd.get(), kMaxResponseBytes);
  return read_response(reader, error);
}

}  // namespace

std::string default_socket_path() {
  if (const char* env = std::getenv("SEGA_SERVE_SOCKET"); env && *env) {
    return env;
  }
  return strfmt("/tmp/sega-serve-%d.sock", static_cast<int>(::getuid()));
}

bool daemon_eligible(const std::vector<std::string>& argv) {
  if (argv.empty()) return false;
  const std::string& command = argv[0];
  if (command != "compile" && command != "explore" && command != "sweep" &&
      command != "validate") {
    return false;
  }
  static const char* const kLocalOnly[] = {"--tech", "--cache-file",
                                           "--rtl-cache-file", "--shard",
                                           "--resume-summary"};
  for (const std::string& arg : argv) {
    for (const char* flag : kLocalOnly) {
      if (arg == flag) return false;
    }
  }
  return true;
}

std::vector<std::string> absolutize_for_daemon(
    const std::vector<std::string>& argv) {
  std::vector<std::string> result = argv;
  for (std::size_t i = 0; i + 1 < result.size(); ++i) {
    if (result[i] == "--spec" || result[i] == "--out" ||
        result[i] == "--checkpoint" || result[i] == "--calibration" ||
        result[i] == "--calibrate") {
      std::error_code ec;
      const auto absolute = std::filesystem::absolute(result[i + 1], ec);
      if (!ec) result[i + 1] = absolute.string();
      ++i;
    }
  }
  return result;
}

std::optional<int> run_via_daemon(const std::string& socket_path,
                                  const std::vector<std::string>& argv,
                                  std::ostream& out, std::ostream& err) {
  if (argv.empty()) return std::nullopt;
  Fd fd = unix_connect(socket_path);
  if (!fd.valid()) return std::nullopt;  // no daemon — run in-process

  Json req = Json::object();
  req["id"] = 1;
  req["cmd"] = "run";
  Json arr = Json::array();
  for (const std::string& arg : argv) arr.push_back(arg);
  req["argv"] = std::move(arr);
  if (!send_all(fd.get(), req.dump() + "\n")) {
    // The line never completed, so the daemon cannot have executed it —
    // in-process fallback is still side-effect-safe.
    return std::nullopt;
  }

  // From here the request is live: failures are reported, never silently
  // retried in-process (the daemon may already have written files).
  LineReader reader(fd.get(), kMaxResponseBytes);
  for (;;) {
    std::string read_error;
    const auto response = read_response(reader, &read_error);
    if (!response) {
      err << "sega_dcim: daemon request failed: " << read_error << "\n";
      return 3;
    }
    const std::string& type = response->at("type").as_string();
    if (type == "progress") continue;  // liveness only; bytes come in result
    if (type == "error") {
      const std::string detail =
          response->contains("error") && response->at("error").is_string()
              ? response->at("error").as_string()
              : "unknown error";
      err << "sega_dcim: daemon rejected request: " << detail << "\n";
      return 3;
    }
    if (type == "result" && response->contains("exit") &&
        response->at("exit").is_number() && response->contains("out") &&
        response->at("out").is_string() && response->contains("err") &&
        response->at("err").is_string()) {
      out << response->at("out").as_string();
      err << response->at("err").as_string();
      return static_cast<int>(response->at("exit").as_int());
    }
    err << "sega_dcim: daemon request failed: malformed response from "
           "daemon\n";
    return 3;
  }
}

bool daemon_ping(const std::string& socket_path, int* pid) {
  std::string error;
  const auto response = simple_request(socket_path, "ping", &error);
  if (!response || !response->contains("type") ||
      response->at("type").as_string() != "pong") {
    return false;
  }
  if (pid != nullptr && response->contains("pid") &&
      response->at("pid").is_number()) {
    *pid = static_cast<int>(response->at("pid").as_int());
  }
  return true;
}

std::optional<Json> daemon_status(const std::string& socket_path,
                                  std::string* error) {
  const auto response = simple_request(socket_path, "status", error);
  if (!response) return std::nullopt;
  if (response->at("type").as_string() != "status" ||
      !response->contains("status")) {
    if (error) *error = "malformed response from daemon";
    return std::nullopt;
  }
  return response->at("status");
}

bool daemon_shutdown(const std::string& socket_path, std::string* error) {
  const auto response = simple_request(socket_path, "shutdown", error);
  if (!response) return false;
  if (response->at("type").as_string() != "result") {
    if (error) *error = "malformed response from daemon";
    return false;
  }
  return true;
}

}  // namespace sega
