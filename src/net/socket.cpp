#include "pdcu/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pdcu::net {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Expected<int> open_listener(const std::string& host, std::uint16_t port,
                            bool reuse_port, int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Error::make("net.socket", std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  if (reuse_port &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof enable) !=
          0) {
    const Error error = Error::make("net.reuseport", std::strerror(errno));
    ::close(fd);
    return error;
  }

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Error::make("net.host", "not an IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    const Error error = Error::make("net.bind", std::strerror(errno));
    ::close(fd);
    return error;
  }
  if (::listen(fd, backlog) != 0) {
    const Error error = Error::make("net.listen", std::strerror(errno));
    ::close(fd);
    return error;
  }
  return fd;
}

Status check_port_free(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::make("net.socket", std::strerror(errno));
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  Status status = Status::ok();
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    status = Error::make("net.host", "not an IPv4 address: " + host);
  } else if (::bind(fd, reinterpret_cast<sockaddr*>(&address),
                    sizeof address) != 0) {
    status = Error::make("net.bind", std::strerror(errno));
  }
  ::close(fd);
  return status;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in bound{};
  socklen_t length = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &length) != 0) {
    return 0;
  }
  return ntohs(bound.sin_port);
}

}  // namespace pdcu::net
