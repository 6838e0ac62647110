// Unix-domain stream sockets with newline framing — the transport of the
// `sega_dcim serve` daemon (serve/server.h) and its thin clients
// (serve/client.h).
//
// Scope is deliberately local-host only: an AF_UNIX socket gives the
// evaluation service OS-enforced filesystem permissions, zero network attack
// surface, and lower per-request latency than loopback TCP — the right
// transport for "CLI invocations multiplexed onto one warm process".  The
// framing is one message per '\n'-terminated line (the same convention as
// every persisted JSONL format in the system), so a message can be produced
// and consumed with nothing but a line reader.
#pragma once

#include <cstddef>
#include <string>

namespace sega {

/// A close-on-destruction file descriptor.  Move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  bool valid() const { return fd_ >= 0; }
  int get() const { return fd_; }
  /// Close now (idempotent).
  void reset();
  /// Release ownership without closing.
  int release();

 private:
  int fd_ = -1;
};

/// Bind and listen on @p path.  A stale socket file (left by a crashed
/// daemon nobody is listening on) is unlinked and rebound; a *live* one — a
/// peer accepts connections — is an error ("daemon already running").
/// Returns an invalid Fd and sets *error on failure (path too long for
/// sun_path, permission, a non-socket file in the way, ...).
Fd unix_listen(const std::string& path, std::string* error = nullptr);

/// Connect to the listener at @p path.  Returns an invalid Fd on failure
/// (no daemon, permission, ...); *error gets the reason when given.
Fd unix_connect(const std::string& path, std::string* error = nullptr);

/// Accept one connection, waiting at most @p timeout_ms (-1 = forever).
/// Returns an invalid Fd on timeout or on a non-fatal accept error (the
/// caller's loop just retries); *fatal is set when the listener itself is
/// dead and the loop must stop.
Fd unix_accept(int listen_fd, int timeout_ms, bool* fatal = nullptr);

/// Write all of @p data, retrying on short writes and EINTR.  SIGPIPE is
/// suppressed (MSG_NOSIGNAL) — a vanished peer is a false return, never a
/// process-killing signal.
bool send_all(int fd, const std::string& data);

/// Buffered newline-framed reader over one socket.
class LineReader {
 public:
  enum class Status {
    kOk,       ///< *line holds one message (terminator stripped)
    kEof,      ///< orderly shutdown, no partial message lost
    kTooLong,  ///< message exceeds max_bytes; stream resynced past its '\n'
    kError,    ///< read error (peer reset, bad fd)
  };

  /// @p max_bytes bounds one message (and with it the reader's buffer) —
  /// the daemon's defense against a client streaming an unbounded line.
  explicit LineReader(int fd, std::size_t max_bytes);

  /// Read the next message.  kTooLong discards input up to and including
  /// the offending terminator, so the next call reads the following
  /// message — one oversized request costs one error response, not the
  /// connection.
  Status read_line(std::string* line);

 private:
  int fd_;
  std::size_t max_bytes_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< leading bytes of buffer_ known to hold no '\n'
  bool eof_ = false;
};

}  // namespace sega
