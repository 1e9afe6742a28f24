// Thin, error-returning wrappers over the POSIX socket calls the reactor
// needs: non-blocking SO_REUSEPORT listeners (one per shard, so the
// kernel load-balances accepts across epoll loops by 4-tuple hash) and
// fd mode twiddling. Nothing here blocks.
#pragma once

#include <cstdint>
#include <string>

#include "pdcu/support/expected.hpp"

namespace pdcu::net {

/// Puts `fd` into non-blocking mode. Returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Opens a non-blocking listening socket on host:port with SO_REUSEADDR
/// and (when `reuse_port`) SO_REUSEPORT, so N shards can each own a
/// listener on the same address. Returns the fd.
Expected<int> open_listener(const std::string& host, std::uint16_t port,
                            bool reuse_port, int backlog);

/// Fails (net.bind) when host:port is already bound by a socket in any
/// state but TIME_WAIT: a plain bind, released at once. Used before
/// SO_REUSEPORT listeners claim a fixed port, since those would share it
/// with another server already listening there instead of failing.
Status check_port_free(const std::string& host, std::uint16_t port);

/// The locally-bound port of a listening socket (resolves port 0).
std::uint16_t bound_port(int fd);

}  // namespace pdcu::net
