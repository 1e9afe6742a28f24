#include "pdcu/net/connection.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>

namespace pdcu::net {
namespace {

/// Per-event read ceiling, so one fire-hosing connection cannot starve
/// the rest of its shard: after this much the loop yields back to epoll
/// (level-triggered, so leftover socket data re-triggers immediately).
constexpr std::size_t kReadBudget = 64 * 1024;
constexpr std::size_t kReadChunk = 16 * 1024;

}  // namespace

Connection::Connection(int fd, Handler& handler, NetMetrics* metrics,
                       ConnectionLimits limits)
    : fd_(fd), handler_(handler), metrics_(metrics), limits_(limits) {}

Connection::Flush Connection::flush() {
  while (written_ < pending_response_.wire_bytes()) {
    // Rebuild the iovec from the remaining tail of each segment; writev
    // moves the offset, partial writes just re-enter with a shorter view.
    std::array<iovec, 3> vecs{};
    int count = 0;
    std::size_t skip = written_;
    for (std::string_view segment :
         {pending_response_.head, pending_response_.tail,
          pending_response_.body}) {
      if (skip >= segment.size()) {
        skip -= segment.size();
        continue;
      }
      segment.remove_prefix(skip);
      skip = 0;
      vecs[static_cast<std::size_t>(count)].iov_base =
          const_cast<char*>(segment.data());
      vecs[static_cast<std::size_t>(count)].iov_len = segment.size();
      ++count;
    }
    if (count == 0) break;
    const ssize_t n = ::writev(fd_, vecs.data(), count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (metrics_ != nullptr) metrics_->record_writev(/*partial=*/true);
        return Flush::kAgain;
      }
      if (metrics_ != nullptr) {
        metrics_->record_writev(/*partial=*/true);
        metrics_->record_write_error();
      }
      handler_.on_write_error();
      return Flush::kError;
    }
    written_ += static_cast<std::size_t>(n);
    if (metrics_ != nullptr) {
      metrics_->record_writev(written_ < pending_response_.wire_bytes());
    }
  }
  return Flush::kDone;
}

Connection::Event Connection::process(bool draining) {
  while (true) {
    if (pending_) {
      switch (flush()) {
        case Flush::kAgain:
          return Event::kKeep;  // want_write() now true; reactor flips to OUT
        case Flush::kError:
          return Event::kClose;
        case Flush::kDone:
          break;
      }
      pending_ = false;
      written_ = 0;
      ++responses_done_;
      if (metrics_ != nullptr) metrics_->record_requests(1);
      const bool close_now = close_after_write_;
      pending_response_ = WireResponse{};  // releases the guard
      close_after_write_ = false;
      if (close_now) return Event::kClose;
    }
    if (buffer_.empty()) return Event::kKeep;

    // The response to the last allowed request (or any request served
    // while draining or after the peer half-closed) is framed close.
    const bool force_close =
        draining || peer_eof_ ||
        (limits_.max_requests != 0 && served_ + 1 >= limits_.max_requests);
    // The handler writes into the response's final resting place: its
    // views may point into the owned_* strings, and moving a short
    // (SSO) std::string relocates its bytes, so a fill-then-move here
    // would leave head/body dangling.
    pending_response_ = WireResponse{};
    const Step step =
        handler_.on_data(buffer_, force_close, pending_response_);
    if (step.status == StepStatus::kNeedMore) {
      if (buffer_.size() > limits_.max_buffer_bytes) return Event::kClose;
      return Event::kKeep;
    }
    buffer_.erase(0, std::min(step.consumed, buffer_.size()));
    ++served_;
    pending_ = true;
    written_ = 0;
    close_after_write_ = pending_response_.close || force_close;
  }
}

Connection::Event Connection::on_readable(bool draining) {
  std::size_t taken = 0;
  while (taken < kReadBudget) {
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + kReadChunk);
    const ssize_t n = ::recv(fd_, buffer_.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      buffer_.resize(old_size + static_cast<std::size_t>(n));
      taken += static_cast<std::size_t>(n);
      continue;
    }
    buffer_.resize(old_size);
    if (n == 0) {
      // Peer half-closed its write side; it may still be reading. Serve
      // any complete buffered request (close-framed), then hang up.
      peer_eof_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Event::kClose;
  }
  const Event event = process(draining);
  if (event == Event::kClose) return event;
  if (peer_eof_) {
    // Nothing more will arrive: an incomplete buffer is abandoned, and a
    // response still draining finishes (close_after_write_ is set via
    // force_close) before the fd closes.
    if (!pending_) return Event::kClose;
  }
  return event;
}

Connection::Event Connection::on_writable(bool draining) {
  const Event event = process(draining);
  if (event == Event::kClose) return event;
  if (peer_eof_ && !pending_) return Event::kClose;
  return event;
}

Connection::Event Connection::on_timeout() {
  if (pending_) {
    // Deadline hit while a response was still draining to a slow reader:
    // nothing sensible to say, just stop.
    if (metrics_ != nullptr) metrics_->record_read_timeout();
    return Event::kClose;
  }
  if (buffer_.empty()) {
    // Keep-alive connection that simply went quiet between requests.
    if (metrics_ != nullptr) metrics_->record_idle_close();
    return Event::kClose;
  }
  // The peer started a request and stalled: answer with the protocol's
  // canned timeout (best effort — the wire is about to close anyway).
  const std::string wire = handler_.timeout_response();
  if (!wire.empty()) {
    const ssize_t n = ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(wire.size())) {
      handler_.on_connection_error(408, wire.size());
    }
  }
  if (metrics_ != nullptr) metrics_->record_read_timeout();
  return Event::kClose;
}

}  // namespace pdcu::net
