#ifndef EALGAP_COMMON_CHECKSUM_H_
#define EALGAP_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ealgap {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over `data`.
/// `seed` is a previous Crc32 result, allowing incremental accumulation:
///   crc = Crc32(a); crc = Crc32(b, crc);  ==  Crc32(a + b)
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

/// Fixed-width lowercase hex rendering of a CRC ("0009abcd").
std::string Crc32Hex(uint32_t crc);

/// Parses a CRC written by Crc32Hex. Returns false on malformed input.
bool ParseCrc32Hex(const std::string& text, uint32_t* crc);

}  // namespace ealgap

#endif  // EALGAP_COMMON_CHECKSUM_H_
