#ifndef EALGAP_COMMON_STATE_FILE_H_
#define EALGAP_COMMON_STATE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ealgap {

/// The one on-disk container for persisted state: model checkpoints, train
/// states, serve states and adapt states.
///
///   <magic> <version>\n                       text, so `head -1` names it
///   section*                                  in write order
///   section "end" with an empty payload       required end marker
///
/// A section is
///
///   i64 name_len | name | i64 payload_len | payload | u32 crc
///
/// with every integer little-endian and `crc` the CRC32 of everything
/// before it in the section, so a changed byte anywhere — name, length or
/// payload — fails that section's check. Payloads hold raw little-endian
/// int64 / float / double bits: a save -> load -> save round trip is byte
/// identical and restores every value bit for bit.
struct StateFormat {
  const char* magic;    ///< first header token, e.g. "ealgap-checkpoint"
  int version;          ///< the only version this build reads and writes
  const char* kind;     ///< names the format in errors, e.g. "checkpoint"
};

/// Builds a state file section by section. Values are appended to the
/// section opened by the latest Section() call.
class StateFileWriter {
 public:
  explicit StateFileWriter(const StateFormat& format);

  /// Closes the open section (if any) and opens `name`.
  void Section(std::string_view name);

  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// Length-prefixed bytes.
  void Str(std::string_view s);
  void F32s(const float* p, size_t n) { Raw(p, n * sizeof(float)); }
  void F64s(const double* p, size_t n) { Raw(p, n * sizeof(double)); }
  /// Raw bytes, as a section payload read back from another file.
  void Bytes(std::string_view raw) { Raw(raw.data(), raw.size()); }

  /// Closes the open section, appends the end marker and returns the file.
  /// Call once; the writer is spent afterwards.
  std::string Finish();
  /// Finish() landed through WriteFileAtomic.
  Status Save(const std::string& path);

 private:
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  void Close();

  std::string out_;
  size_t open_ = std::string::npos;  ///< offset of the open section
  size_t length_at_ = 0;             ///< offset of its payload length
};

/// Sequential reads over one verified section payload. A read past the end
/// yields zeros and makes Check() fail, so a decoder reads its fixed fields
/// and checks once before range-checking them.
class StateDecoder {
 public:
  StateDecoder(std::string_view payload, std::string section,
               std::string path)
      : data_(payload), section_(std::move(section)), path_(std::move(path)) {}

  int64_t I64();
  float F32();
  double F64();
  std::string Str();
  /// Copies `n` values into `out`, or fails (leaving `out` untouched) when
  /// the payload holds fewer.
  void F32s(float* out, size_t n);
  void F64s(double* out, size_t n);

  /// Bytes left to read.
  size_t remaining() const { return data_.size() - pos_; }
  /// Fails unless the payload holds at least `count` more values of
  /// `width` bytes each — the check to make before sizing a buffer from a
  /// decoded count.
  Status Need(int64_t count, size_t width, const std::string& what) const;
  /// OK when every read so far fit.
  Status Check() const;
  /// Check(), and the payload is fully consumed.
  Status Done() const;
  /// ParseError naming this section and file.
  Status Error(const std::string& what) const;

 private:
  const char* Take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool overrun_ = false;
  std::string section_;
  std::string path_;
};

/// A state file whose header, section bounds, section CRCs and end marker
/// have all been verified.
class StateFileReader {
 public:
  /// Reads and verifies `path`. A wrong magic is a ParseError, another
  /// version an InvalidArgument naming both versions.
  static Result<StateFileReader> Open(const std::string& path,
                                      const StateFormat& format);
  /// Open() over bytes already in memory; `path` names them in errors.
  static Result<StateFileReader> Parse(std::string bytes,
                                       const std::string& path,
                                       const StateFormat& format);

  /// The `model` section's name, or a ParseError.
  Result<std::string> Model() const;
  /// Fails with InvalidArgument unless the `model` section names `expected`.
  Status ExpectModel(const std::string& expected) const;

  /// A decoder over section `name`, or a ParseError when it is missing.
  /// The decoder views this reader's bytes and must not outlive it.
  Result<StateDecoder> Section(std::string_view name) const;

  /// Where each section sits in bytes(), in file order, the end marker
  /// last.
  struct Entry {
    std::string name;
    size_t begin;   ///< first byte of the section (its name length)
    size_t offset;  ///< first payload byte
    size_t size;    ///< payload bytes; the CRC follows at offset + size
  };
  const std::vector<Entry>& sections() const { return sections_; }
  const std::string& bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string bytes_;
  std::string path_;
  std::string kind_;
  std::vector<Entry> sections_;
};

}  // namespace ealgap

#endif  // EALGAP_COMMON_STATE_FILE_H_
