// Thin client of the `sega_dcim serve` daemon (serve/server.h).
//
// The sega_dcim binary routes eligible commands through a running daemon
// transparently: if connecting to the socket fails — no daemon — the caller
// runs the command in-process, byte-identical by construction.  The
// fallback decision happens strictly *before* the request is sent; once a
// request is on the wire a lost daemon is an error, never a silent re-run
// (the request may have had side effects).
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.h"

namespace sega {

/// The daemon rendezvous path: $SEGA_SERVE_SOCKET when set, else
/// `/tmp/sega-serve-<uid>.sock` (per-user, so parallel users never collide).
std::string default_socket_path();

/// True when @p argv may be served by a daemon: one of compile / explore /
/// sweep / validate, without the flags the daemon rejects (--tech,
/// --cache-file, --rtl-cache-file, --shard) and without
/// --resume-summary (a local file inspection; nothing to warm).
bool daemon_eligible(const std::vector<std::string>& argv);

/// Copy of @p argv with the path-valued flags the daemon resolves on *its*
/// side of the socket (--spec, --out, --checkpoint) made absolute against
/// this process's cwd — the daemon's cwd is unrelated.
std::vector<std::string> absolutize_for_daemon(
    const std::vector<std::string>& argv);

/// Run @p argv via the daemon at @p socket_path.  Returns the exit code on
/// a completed round trip (the daemon's out/err bytes are replayed onto the
/// given streams; progress lines are consumed silently).  Returns nullopt
/// when no daemon is reachable — the caller falls back in-process.  A
/// connection lost after the request was sent is exit 3 with a diagnostic,
/// never nullopt.
std::optional<int> run_via_daemon(const std::string& socket_path,
                                  const std::vector<std::string>& argv,
                                  std::ostream& out, std::ostream& err);

/// Health check: true when a daemon answers a ping at @p socket_path;
/// *pid (when given) receives the daemon's pid.
bool daemon_ping(const std::string& socket_path, int* pid = nullptr);

/// The daemon's status payload, or nullopt (with *error) when unreachable.
std::optional<Json> daemon_status(const std::string& socket_path,
                                  std::string* error = nullptr);

/// Ask the daemon to shut down gracefully (drain, flush memo, remove its
/// socket).  True once the daemon acknowledged.
bool daemon_shutdown(const std::string& socket_path,
                     std::string* error = nullptr);

}  // namespace sega
