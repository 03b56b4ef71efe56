#ifndef EALGAP_COMMON_FLOAT_BITS_H_
#define EALGAP_COMMON_FLOAT_BITS_H_

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

namespace ealgap {

/// Exact text round-trip for the doubles in the experiment journal (the
/// one line-oriented persisted format; state files hold raw bits, see
/// common/state_file.h): the value's raw bit pattern in hex. Decimal
/// formatting can silently lose the last ulp, and the clean-vs-resumed
/// journal diff requires bit equality — including for NaN payloads and
/// signed zeros.

inline std::string DoubleBitsHex(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  std::ostringstream os;
  os << std::hex << bits;
  return os.str();
}

inline bool ParseDoubleBitsHex(const std::string& text, double* out) {
  std::istringstream is(text);
  uint64_t bits = 0;
  if (!(is >> std::hex >> bits) || !is.eof()) return false;
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

}  // namespace ealgap

#endif  // EALGAP_COMMON_FLOAT_BITS_H_
