#ifndef TARPIT_NET_CLIENT_H_
#define TARPIT_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace tarpit {
namespace net {

/// Blocking single-connection client for tests and tools. One request
/// in flight at a time; kProgress keep-alives received while waiting
/// are counted and swallowed (they are liveness, not payload).
class FrameClient {
 public:
  FrameClient() : decoder_(64 << 20) {}

  Status Connect(const std::string& host, uint16_t port,
                 const std::string& source_ip = "");
  void Close() { fd_.Reset(); }
  bool connected() const { return fd_.valid(); }
  /// The raw fd; tests use it to hang up abruptly mid-stall.
  int fd() const { return fd_.get(); }

  /// Sends kHello and waits for kHelloAck (which may itself be delayed
  /// server-side: delay-before-serve). `ipv4` is carried on the wire
  /// but ignored: the server always takes the principal's /24 from the
  /// peer address it observes.
  Status Hello(uint64_t identity, uint32_t ipv4 = 0,
               double timeout_seconds = 60.0);

  /// Sends kQuery / kGetKey and waits for the kResponse / kError.
  Result<WireResponse> Query(std::string_view sql,
                             double timeout_seconds = 60.0);
  Result<WireResponse> GetByKey(int64_t key, double timeout_seconds = 60.0);

  /// Writes raw bytes on the socket -- malformed-frame fuzzing.
  Status SendRaw(std::string_view bytes);
  /// Sends a well-formed frame of arbitrary type/payload.
  Status SendFrame(FrameType type, std::string_view payload);

  /// Receives the next frame (blocking up to the timeout), NOT
  /// swallowing kProgress -- tests that assert on keep-alives use
  /// this. Returns DeadlineExceeded on timeout, Unavailable on EOF.
  Result<Frame> RecvFrame(double timeout_seconds);

  /// kProgress frames swallowed while waiting for responses.
  uint64_t progress_frames() const { return progress_frames_; }

 private:
  /// Waits for a non-progress frame.
  Result<Frame> AwaitResponse(double timeout_seconds);
  Result<WireResponse> AwaitWireResponse(double timeout_seconds);

  UniqueFd fd_;
  FrameDecoder decoder_;
  uint64_t progress_frames_ = 0;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_CLIENT_H_
