#include "common/state_file.h"

#include <bit>
#include <charconv>
#include <cstring>

#include "common/checksum.h"
#include "common/file_util.h"

namespace ealgap {

static_assert(std::endian::native == std::endian::little,
              "state files hold raw little-endian bits");

namespace {

constexpr std::string_view kEndSection = "end";
/// Longest header line: "<magic> <version>".
constexpr size_t kMaxHeaderLength = 64;

}  // namespace

// --- writer -----------------------------------------------------------------

StateFileWriter::StateFileWriter(const StateFormat& format) {
  out_ = std::string(format.magic) + " " + std::to_string(format.version) +
         "\n";
}

void StateFileWriter::Str(std::string_view s) {
  I64(static_cast<int64_t>(s.size()));
  out_.append(s);
}

void StateFileWriter::Section(std::string_view name) {
  Close();
  open_ = out_.size();
  Str(name);
  length_at_ = out_.size();
  I64(0);  // patched by Close()
}

void StateFileWriter::Close() {
  if (open_ == std::string::npos) return;
  const int64_t payload =
      static_cast<int64_t>(out_.size() - length_at_ - sizeof(int64_t));
  std::memcpy(out_.data() + length_at_, &payload, sizeof(payload));
  const uint32_t crc = Crc32(out_.data() + open_, out_.size() - open_);
  Raw(&crc, sizeof(crc));
  open_ = std::string::npos;
}

std::string StateFileWriter::Finish() {
  Section(kEndSection);
  Close();
  return std::move(out_);
}

Status StateFileWriter::Save(const std::string& path) {
  return WriteFileAtomic(path, Finish());
}

// --- decoder ----------------------------------------------------------------

const char* StateDecoder::Take(size_t n) {
  if (overrun_ || n > remaining()) {
    overrun_ = true;
    return nullptr;
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

int64_t StateDecoder::I64() {
  int64_t v = 0;
  if (const char* p = Take(sizeof(v))) std::memcpy(&v, p, sizeof(v));
  return v;
}

float StateDecoder::F32() {
  float v = 0.f;
  if (const char* p = Take(sizeof(v))) std::memcpy(&v, p, sizeof(v));
  return v;
}

double StateDecoder::F64() {
  double v = 0.0;
  if (const char* p = Take(sizeof(v))) std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string StateDecoder::Str() {
  const int64_t n = I64();
  if (n < 0 || static_cast<uint64_t>(n) > remaining()) overrun_ = true;
  const char* p = Take(static_cast<size_t>(n));
  return p == nullptr ? std::string() : std::string(p, static_cast<size_t>(n));
}

void StateDecoder::F32s(float* out, size_t n) {
  if (n > remaining() / sizeof(float)) overrun_ = true;
  const char* p = Take(n * sizeof(float));
  if (p != nullptr && n > 0) std::memcpy(out, p, n * sizeof(float));
}

void StateDecoder::F64s(double* out, size_t n) {
  if (n > remaining() / sizeof(double)) overrun_ = true;
  const char* p = Take(n * sizeof(double));
  if (p != nullptr && n > 0) std::memcpy(out, p, n * sizeof(double));
}

Status StateDecoder::Need(int64_t count, size_t width,
                          const std::string& what) const {
  if (overrun_ || count < 0 ||
      static_cast<uint64_t>(count) > remaining() / width) {
    return Error(what + " count " + std::to_string(count) +
                 " exceeds the section's " + std::to_string(remaining()) +
                 " remaining bytes");
  }
  return Status::OK();
}

Status StateDecoder::Check() const {
  return overrun_ ? Error("ends early") : Status::OK();
}

Status StateDecoder::Done() const {
  EALGAP_RETURN_IF_ERROR(Check());
  if (remaining() != 0) {
    return Error("has " + std::to_string(remaining()) + " trailing bytes");
  }
  return Status::OK();
}

Status StateDecoder::Error(const std::string& what) const {
  return Status::ParseError("section '" + section_ + "' " + what + " in " +
                            path_);
}

// --- reader -----------------------------------------------------------------

Result<StateFileReader> StateFileReader::Open(const std::string& path,
                                              const StateFormat& format) {
  EALGAP_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return Parse(std::move(bytes), path, format);
}

Result<StateFileReader> StateFileReader::Parse(std::string bytes,
                                               const std::string& path,
                                               const StateFormat& format) {
  StateFileReader r;
  r.path_ = path;
  r.kind_ = format.kind;
  const std::string not_ours = path + " is not an ealgap " + r.kind_;
  const size_t nl = bytes.find('\n');
  if (nl == std::string::npos || nl > kMaxHeaderLength) {
    return Status::ParseError(not_ours);
  }
  const std::string_view header(bytes.data(), nl);
  const size_t space = header.find(' ');
  if (space == std::string_view::npos ||
      header.substr(0, space) != format.magic) {
    return Status::ParseError(not_ours);
  }
  int version = 0;
  const char* vbegin = header.data() + space + 1;
  const char* vend = header.data() + header.size();
  const auto [vp, ec] = std::from_chars(vbegin, vend, version);
  if (ec != std::errc() || vp != vend) return Status::ParseError(not_ours);
  if (version != format.version) {
    return Status::InvalidArgument(
        "unsupported " + r.kind_ + " version " +
        std::to_string(version) + " in " + path + " (maximum supported: " +
        std::to_string(format.version) + ")");
  }

  // Every length is checked against the bytes left before it is used, in
  // unsigned arithmetic, so an inflated length (up to 2^63) is an error,
  // never an overread or an allocation.
  size_t pos = nl + 1;
  while (true) {
    if (pos == bytes.size()) {
      return Status::ParseError("truncated " + r.kind_ +
                                " (missing end marker) in " + path);
    }
    const size_t begin = pos;
    StateDecoder header_fields(std::string_view(bytes).substr(pos),
                               "#" + std::to_string(r.sections_.size()), path);
    std::string name = header_fields.Str();
    const int64_t size = header_fields.I64();
    EALGAP_RETURN_IF_ERROR(header_fields.Check());
    const size_t left = header_fields.remaining();
    if (size < 0 || static_cast<uint64_t>(size) > left ||
        left - static_cast<size_t>(size) < sizeof(uint32_t)) {
      return Status::ParseError("section '" + name + "' length " +
                                std::to_string(size) +
                                " runs past the end of " + path);
    }
    const size_t offset = bytes.size() - left;
    pos = offset + static_cast<size_t>(size);
    uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + pos, sizeof(stored));
    const uint32_t computed = Crc32(bytes.data() + begin, pos - begin);
    pos += sizeof(stored);
    if (stored != computed) {
      return Status::ParseError("section '" + name + "' CRC mismatch in " +
                                path + ": stored " + Crc32Hex(stored) +
                                ", computed " + Crc32Hex(computed));
    }
    for (const Entry& e : r.sections_) {
      if (e.name == name) {
        return Status::ParseError("duplicate section '" + name + "' in " +
                                  path);
      }
    }
    const bool end = name == kEndSection;
    r.sections_.push_back(
        {std::move(name), begin, offset, static_cast<size_t>(size)});
    if (end) {
      if (size != 0 || pos != bytes.size()) {
        return Status::ParseError("bytes after the end marker in " + path);
      }
      break;
    }
  }
  r.bytes_ = std::move(bytes);
  return r;
}

Result<StateDecoder> StateFileReader::Section(std::string_view name) const {
  for (const Entry& e : sections_) {
    if (e.name == name) {
      return StateDecoder(std::string_view(bytes_).substr(e.offset, e.size),
                          e.name, path_);
    }
  }
  return Status::ParseError("missing section '" + std::string(name) + "' in " +
                            path_);
}

Result<std::string> StateFileReader::Model() const {
  EALGAP_ASSIGN_OR_RETURN(StateDecoder d, Section("model"));
  std::string model = d.Str();
  EALGAP_RETURN_IF_ERROR(d.Done());
  return model;
}

Status StateFileReader::ExpectModel(const std::string& expected) const {
  EALGAP_ASSIGN_OR_RETURN(std::string model, Model());
  if (model != expected) {
    return Status::InvalidArgument(kind_ + " " + path_ + " holds model " +
                                   model + " but this model is " + expected);
  }
  return Status::OK();
}

}  // namespace ealgap
