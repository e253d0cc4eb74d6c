#ifndef TARPIT_COMMON_CHECKSUM_H_
#define TARPIT_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tarpit {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven with
/// slicing-by-16: 16 bytes per step through 16 constant 256-entry
/// tables (16 KiB), then one byte per step for the tail. Input bytes
/// are read as little-endian words from any alignment, so the value is
/// the same on every host and matches the classic bytewise CRC-32.
/// Used for WAL record framing and page trailers: unlike the
/// FNV-1a hash it replaces, CRC32 detects all burst errors up to 32
/// bits, which is the failure shape of torn sector writes.
///
/// `seed` lets callers chain partial buffers:
///   Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b), na + nb).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace tarpit

#endif  // TARPIT_COMMON_CHECKSUM_H_
