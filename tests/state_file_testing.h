#ifndef EALGAP_TESTS_STATE_FILE_TESTING_H_
#define EALGAP_TESTS_STATE_FILE_TESTING_H_

// Helpers for tests that corrupt state files (common/state_file.h): edit a
// section and re-seal every CRC through StateFileWriter, so the loader's
// range checks — not the CRC — see the bad value, or flip a byte in place,
// so the CRC must catch it.

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/state_file.h"

namespace ealgap {
namespace testing {

/// Parses the state file at `path`; fails the test (and returns an empty
/// reader) when it does not load.
inline StateFileReader ReadStateFile(const std::string& path,
                                     const StateFormat& format) {
  auto in = StateFileReader::Open(path, format);
  if (!in.ok()) {
    ADD_FAILURE() << in.status().ToString();
    return StateFileReader();
  }
  return std::move(in).value();
}

/// The directory entry of section `name`.
inline StateFileReader::Entry SectionEntry(const StateFileReader& in,
                                           std::string_view name) {
  for (const auto& e : in.sections()) {
    if (e.name == name) return e;
  }
  ADD_FAILURE() << "no section '" << name << "' in " << in.path();
  return {};
}

/// Re-emits the file at `path` through StateFileWriter with `edit` applied
/// to section `name`'s payload, every CRC freshly sealed.
inline void RewriteSection(const std::string& path, const StateFormat& format,
                           std::string_view name,
                           const std::function<void(std::string*)>& edit) {
  const StateFileReader in = ReadStateFile(path, format);
  StateFileWriter out(format);
  bool found = false;
  for (const auto& e : in.sections()) {
    if (e.name == "end") continue;
    std::string payload = in.bytes().substr(e.offset, e.size);
    if (e.name == name) {
      edit(&payload);
      found = true;
    }
    out.Section(e.name);
    out.Bytes(payload);
  }
  ASSERT_TRUE(found) << "no section '" << name << "' in " << path;
  ASSERT_TRUE(WriteFileAtomic(path, out.Finish()).ok());
}

/// Overwrites the value at byte `offset` of a payload.
template <typename T>
void Poke(std::string* payload, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), payload->size());
  std::memcpy(payload->data() + offset, &value, sizeof(T));
}

template <typename T>
T Peek(const std::string& payload, size_t offset) {
  T value{};
  EXPECT_LE(offset + sizeof(T), payload.size());
  if (offset + sizeof(T) <= payload.size()) {
    std::memcpy(&value, payload.data() + offset, sizeof(T));
  }
  return value;
}

/// A length-prefixed string as StateFileWriter::Str encodes it.
inline std::string EncodeStr(std::string_view s) {
  std::string out(sizeof(int64_t), '\0');
  const int64_t n = static_cast<int64_t>(s.size());
  std::memcpy(out.data(), &n, sizeof(n));
  return out.append(s);
}

/// Flips the bits of the byte at `offset` within section `name`'s payload
/// (or, for an empty payload, of its CRC), leaving the stored CRC stale.
inline void FlipSectionByte(const std::string& path, const StateFormat& format,
                            std::string_view name, size_t offset = 0) {
  const StateFileReader in = ReadStateFile(path, format);
  const StateFileReader::Entry e = SectionEntry(in, name);
  std::string bytes = in.bytes();
  ASSERT_LT(e.offset + offset, bytes.size());
  bytes[e.offset + offset] = static_cast<char>(~bytes[e.offset + offset]);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
}

}  // namespace testing
}  // namespace ealgap

#endif  // EALGAP_TESTS_STATE_FILE_TESTING_H_
