#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/line_client.h"
#include "spans.h"

namespace perfbench {

Mux::~Mux() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

vblock::Result<size_t> Mux::Connect(uint16_t port) {
  vblock::Result<int> fd = vblock::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  ::fcntl(*fd, F_SETFL, ::fcntl(*fd, F_GETFL) | O_NONBLOCK);
  conns_.push_back(Conn{*fd, {}});
  return conns_.size() - 1;
}

bool Mux::WriteAll(Conn& c, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(c.fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd p{c.fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    error_ = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool Mux::Send(size_t conn, const std::string& line) {
  Conn& c = conns_[conn];
  if (c.fd < 0) return false;
  return WriteAll(c, line + "\n");
}

std::optional<Reply> Mux::Next(int64_t deadline_ns) {
  std::vector<pollfd> fds(conns_.size());
  while (ready_.empty()) {
    const int64_t left_ns = deadline_ns - NowNs();
    if (left_ns <= 0) return std::nullopt;
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = pollfd{conns_[i].fd, POLLIN, 0};
    }
    const int timeout_ms = static_cast<int>(std::min<int64_t>(
        (left_ns + 999'999) / 1'000'000, 1000));
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      error_ = std::string("poll: ") + std::strerror(errno);
      return std::nullopt;
    }
    const int64_t now = NowNs();
    for (size_t i = 0; i < conns_.size() && rc > 0; ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[i];
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        error_ = "connection " + std::to_string(i) + " dropped";
        ::close(c.fd);
        c.fd = -1;
        return std::nullopt;
      }
      if (n < 0) continue;
      c.in.append(buf, static_cast<size_t>(n));
      size_t nl;
      while ((nl = c.in.find('\n')) != std::string::npos) {
        ready_.push_back(Reply{i, c.in.substr(0, nl), now});
        c.in.erase(0, nl + 1);
      }
    }
  }
  Reply r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::optional<std::string> Mux::Roundtrip(size_t conn, const std::string& line,
                                          double timeout_seconds) {
  if (!Send(conn, line)) return std::nullopt;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(timeout_seconds * 1e9);
  std::optional<Reply> r = Next(deadline);
  if (!r) return std::nullopt;
  if (r->conn != conn) {
    error_ = "reply on an idle connection";
    return std::nullopt;
  }
  return std::move(r->line);
}

}  // namespace perfbench
