#ifndef TARPIT_NET_FRAME_H_
#define TARPIT_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tarpit {
namespace net {

/// Wire format: every message is one frame
///
///   [u32 little-endian payload length][u8 type][payload bytes]
///
/// The length counts the payload only (not the 5 header bytes). A
/// length above the decoder's max_frame_bytes is rejected BEFORE any
/// payload allocation happens -- an attacker-controlled length prefix
/// must never size a buffer (the allocation-bomb rule exercised by the
/// framing robustness suite).
enum class FrameType : uint8_t {
  // Client -> server.
  kHello = 0x01,   // [u64 identity][u32 ipv4, ignored]: principal.
  kQuery = 0x02,   // [sql text]
  kGetKey = 0x03,  // [i64 key]: the point-read fast path.
  // Server -> client.
  kHelloAck = 0x81,  // empty (sent after any delay-before-serve park).
  kResponse = 0x82,  // [u8 status][u64 delay_micros][u32 rows][text]
  kError = 0x83,     // [u8 status][message]
  kProgress = 0x84,  // 1 byte: mopher-style keep-alive during a stall.
};

/// Header bytes preceding every payload.
inline constexpr size_t kFrameHeaderBytes = 5;

struct Frame {
  FrameType type = FrameType::kQuery;
  std::string payload;
};

// -- Little-endian primitive helpers (shared by server, clients,
// tests, and the bench load generator). ------------------------------
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
uint32_t ReadU32(const char* p);
uint64_t ReadU64(const char* p);

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, FrameType type,
                 std::string_view payload);

// -- Typed payload builders/parsers. ---------------------------------
std::string HelloPayload(uint64_t identity, uint32_t ipv4);
bool ParseHello(std::string_view payload, uint64_t* identity,
                uint32_t* ipv4);
std::string GetKeyPayload(int64_t key);
bool ParseGetKey(std::string_view payload, int64_t* key);

/// A decoded kResponse / kError.
struct WireResponse {
  uint8_t status_code = 0;  // tarpit::StatusCode numeric value.
  uint64_t delay_micros = 0;
  uint32_t row_count = 0;
  std::string text;  // Rows ('\n'-joined) or the error message.
};
std::string ResponsePayload(uint8_t status_code, uint64_t delay_micros,
                            uint32_t row_count, std::string_view text);
bool ParseResponse(std::string_view payload, WireResponse* out);
std::string ErrorPayload(uint8_t status_code, std::string_view message);
bool ParseError(std::string_view payload, WireResponse* out);

/// Incremental frame decoder over a raw byte stream. Feed() appends
/// received bytes; Pop() yields complete frames. Once a frame declares
/// a length past the cap the decoder poisons itself (kError forever):
/// the stream is unsynchronized and the connection must die.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, size_t n);

  enum class Next {
    kFrame,     // *out filled with one complete frame.
    kNeedMore,  // No complete frame buffered yet.
    kError,     // Protocol violation (oversized length); poisoned.
  };
  Next Pop(Frame* out, std::string* error = nullptr);

  /// Bytes sitting in the buffer (complete or partial frames).
  size_t buffered() const { return buf_.size() - pos_; }
  /// True when a frame has started arriving but is not complete -- the
  /// condition the slow-loris read timeout watches.
  bool has_partial() const { return buffered() > 0 && !poisoned_; }
  bool poisoned() const { return poisoned_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // Consumed prefix; compacted when it grows.
  bool poisoned_ = false;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_FRAME_H_
