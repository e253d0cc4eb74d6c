#include "common/checksum.h"

#include <array>

namespace tarpit {
namespace {

using Table = std::array<uint32_t, 256>;

/// Slicing-by-16 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so one
/// step can fold 16 input bytes with 16 independent lookups.
constexpr std::array<Table, 16> BuildTables() {
  std::array<Table, 16> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 16; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 16> kTables = BuildTables();

/// Little-endian 32-bit load from any alignment; compilers turn the
/// byte assembly into one load on little-endian hosts.
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 16; n -= 16, p += 16) {
    const uint32_t a = LoadLE32(p) ^ c;
    const uint32_t b = LoadLE32(p + 4);
    const uint32_t d = LoadLE32(p + 8);
    const uint32_t e = LoadLE32(p + 12);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
        t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
        t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
        t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
        t[7][d & 0xFFu] ^ t[6][(d >> 8) & 0xFFu] ^
        t[5][(d >> 16) & 0xFFu] ^ t[4][d >> 24] ^
        t[3][e & 0xFFu] ^ t[2][(e >> 8) & 0xFFu] ^
        t[1][(e >> 16) & 0xFFu] ^ t[0][e >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace tarpit
