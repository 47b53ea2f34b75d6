// Line-protocol client driving several TCP connections from one thread.
// The load generator is a single thread; each connection has at most one
// request outstanding for a closed-loop client, and may pipeline for the
// open-loop writer (the server answers one connection in order).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Reply {
  size_t conn = 0;
  std::string line;
  int64_t received_ns = 0;
};

class Mux {
 public:
  Mux() = default;
  ~Mux();
  Mux(const Mux&) = delete;
  Mux& operator=(const Mux&) = delete;

  // Connects one more client; returns its index.
  vblock::Result<size_t> Connect(uint16_t port);

  // Sends one command line. False when the connection is gone.
  bool Send(size_t conn, const std::string& line);

  // Next reply on any connection, or nullopt once `deadline_ns` passes or a
  // connection fails (then `error()` says why).
  std::optional<Reply> Next(int64_t deadline_ns);

  // Sends `line` on `conn` and waits for its reply (other connections must
  // be idle). nullopt on timeout or a dropped connection.
  std::optional<std::string> Roundtrip(size_t conn, const std::string& line,
                                       double timeout_seconds = 60);

  const std::string& error() const { return error_; }
  size_t size() const { return conns_.size(); }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
  };
  bool WriteAll(Conn& c, const std::string& data);

  std::vector<Conn> conns_;
  std::deque<Reply> ready_;
  std::string error_;
};

}  // namespace perfbench
