#include "util/socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.h"

namespace sega {

namespace {

/// Fill a sockaddr_un for @p path; false when the path does not fit the
/// (notoriously small) sun_path field.
bool make_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

void set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

Fd unix_listen(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!make_addr(path, &addr)) {
    set_error(error, strfmt("socket path '%s' is empty or too long (max %zu "
                            "bytes)",
                            path.c_str(), sizeof(addr.sun_path) - 1));
    return Fd();
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    set_error(error, strfmt("socket(): %s", std::strerror(errno)));
    return Fd();
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) {
      set_error(error, strfmt("bind '%s': %s", path.c_str(),
                              std::strerror(errno)));
      return Fd();
    }
    // The path exists.  Probe it: a live daemon accepts the connection (a
    // second daemon must never steal its socket); a stale file from a
    // crashed daemon refuses, and is safe to unlink and rebind.
    if (unix_connect(path).valid()) {
      set_error(error, strfmt("a daemon is already listening on '%s'",
                              path.c_str()));
      return Fd();
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      set_error(error, strfmt("cannot remove stale socket '%s': %s",
                              path.c_str(), std::strerror(errno)));
      return Fd();
    }
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      set_error(error, strfmt("bind '%s': %s", path.c_str(),
                              std::strerror(errno)));
      return Fd();
    }
  }
  if (::listen(fd.get(), 64) != 0) {
    set_error(error, strfmt("listen '%s': %s", path.c_str(),
                            std::strerror(errno)));
    ::unlink(path.c_str());
    return Fd();
  }
  return fd;
}

Fd unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!make_addr(path, &addr)) {
    set_error(error, strfmt("socket path '%s' is empty or too long (max %zu "
                            "bytes)",
                            path.c_str(), sizeof(addr.sun_path) - 1));
    return Fd();
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    set_error(error, strfmt("socket(): %s", std::strerror(errno)));
    return Fd();
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    set_error(error, strfmt("connect '%s': %s", path.c_str(),
                            std::strerror(errno)));
    return Fd();
  }
  return fd;
}

Fd unix_accept(int listen_fd, int timeout_ms, bool* fatal) {
  if (fatal) *fatal = false;
  pollfd pfd{};
  pfd.fd = listen_fd;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno != EINTR && fatal) *fatal = true;
    return Fd();
  }
  if (ready == 0) return Fd();  // timeout — caller polls its stop flag
  if (pfd.revents & (POLLERR | POLLNVAL)) {
    if (fatal) *fatal = true;
    return Fd();
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    // Transient per-connection failures (the peer vanished between poll and
    // accept, fd exhaustion) are retryable; a dead listener is not.
    if ((errno == EBADF || errno == EINVAL) && fatal) *fatal = true;
    return Fd();
  }
  return Fd(fd);
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

LineReader::LineReader(int fd, std::size_t max_bytes)
    : fd_(fd), max_bytes_(max_bytes) {}

LineReader::Status LineReader::read_line(std::string* line) {
  line->clear();
  bool discarding = false;
  for (;;) {
    // Serve from the buffer first, searching only the bytes not yet
    // searched: rescanning the whole buffer after every recv would make one
    // n-byte line cost O(n^2 / chunk).
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      scanned_ = 0;
      if (discarding) {
        buffer_.erase(0, nl + 1);
        return Status::kTooLong;
      }
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return Status::kOk;
    }
    scanned_ = buffer_.size();
    if (!discarding && buffer_.size() > max_bytes_) {
      // The message already exceeds the cap with no terminator in sight:
      // stop accumulating and skip to the next '\n' so the connection can
      // continue with the following message.
      buffer_.clear();
      scanned_ = 0;
      discarding = true;
    }
    if (eof_) {
      // A partial trailing message (no terminator) is a peer that died
      // mid-send; there is nothing valid to return.
      return discarding || !buffer_.empty() ? Status::kError : Status::kEof;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return Status::kError;
    if (n == 0) {
      eof_ = true;
      continue;
    }
    if (discarding) {
      // Keep only the tail after a terminator, if one arrived.
      const char* pos = static_cast<const char*>(
          std::memchr(chunk, '\n', static_cast<std::size_t>(n)));
      if (pos != nullptr) {
        buffer_.assign(pos + 1, static_cast<const char*>(chunk) + n);
        scanned_ = 0;
        return Status::kTooLong;
      }
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace sega
