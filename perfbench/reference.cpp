// Reference probes: fixed work of the benchmark's own, timed between the
// measured chunks of a run on the same CPU, whose speed says how fast the
// host runs anything at that moment. See host_slowdown in bench.hpp.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// One-byte round trips between two threads over loopback TCP: the
/// syscalls, the loopback path and the wakeups a request crosses, without
/// the program. 8 us each is a quiet host's speed.
constexpr int kRoundTrips = 1000;
constexpr double kNominalRoundTripNs = 8000.0;

/// Dependent multiply-add steps, no memory: the core's own speed. 1.5 ns a
/// step is a quiet host's speed.
constexpr std::uint64_t kSpinSteps = 2'000'000;
constexpr double kNominalSpinStepNs = 1.5;

/// Streaming reads of a buffer four times a 2 MiB L2, like the stencil
/// grids: the speed of the cache path beyond L2. 0.1 ns a byte is the
/// nominal speed the figures are scaled to (measured: 0.12-0.14).
constexpr std::size_t kStreamWords = (8u << 20) / sizeof(std::uint64_t);
constexpr int kStreamPasses = 4;
constexpr double kNominalStreamNsPerByte = 0.1;

/// Owns a socket and closes it with a reset, so probes leave no TIME_WAIT.
struct Socket {
  int fd = -1;
  explicit Socket(int descriptor) : fd(descriptor) {
    if (fd < 0) throw std::runtime_error("loopback probe: no socket");
  }
  ~Socket() {
    const linger reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(fd);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
};

double loopback_slowdown() {
  const Socket listener(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener.fd, 1) != 0 ||
      ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    throw std::runtime_error("loopback probe: no listener");
  }
  const Socket client(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (::connect(client.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw std::runtime_error("loopback probe: connect failed");
  }
  const Socket server(::accept(listener.fd, nullptr, nullptr));
  const int one = 1;
  ::setsockopt(client.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(server.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::thread echo([&server] {
    char byte = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (::recv(server.fd, &byte, 1, 0) != 1 ||
          ::send(server.fd, &byte, 1, MSG_NOSIGNAL) != 1) {
        break;
      }
    }
  });
  char byte = 'x';
  int done = 0;
  const std::uint64_t start = now_ns();
  for (; done < kRoundTrips; ++done) {
    if (::send(client.fd, &byte, 1, MSG_NOSIGNAL) != 1 ||
        ::recv(client.fd, &byte, 1, 0) != 1) {
      break;
    }
  }
  const std::uint64_t elapsed = now_ns() - start;
  echo.join();
  if (done != kRoundTrips) throw std::runtime_error("loopback probe failed");
  return static_cast<double>(elapsed) / (kRoundTrips * kNominalRoundTripNs);
}

double spin_slowdown() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; i < kSpinSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  const std::uint64_t elapsed = now_ns() - start;
  return static_cast<double>(elapsed) /
         (static_cast<double>(kSpinSteps) * kNominalSpinStepNs);
}

double stream_slowdown() {
  static const std::vector<std::uint64_t> buffer(kStreamWords, 1);
  std::uint64_t sum = 0;
  const std::uint64_t start = now_ns();
  for (int pass = 0; pass < kStreamPasses; ++pass) {
    for (const std::uint64_t word : buffer) sum += word;
    asm volatile("" : "+r"(sum));
  }
  const std::uint64_t elapsed = now_ns() - start;
  return static_cast<double>(elapsed) /
         (static_cast<double>(kStreamPasses * kStreamWords *
                              sizeof(std::uint64_t)) *
          kNominalStreamNsPerByte);
}

}  // namespace

double host_slowdown(Probe probe) {
  switch (probe) {
    case Probe::kLoopback: return loopback_slowdown();
    case Probe::kSpin: return spin_slowdown();
    case Probe::kStream: return stream_slowdown();
  }
  return 1.0;
}

}  // namespace perfbench
