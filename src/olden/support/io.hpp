// Host I/O shared by the exporters and the command-line tools: a checked
// whole-file write and a strict unsigned parse.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace olden {

/// Write `body` to `path`, replacing it. A small document sits in stdio's
/// buffer until fclose, so a full disk often fails only there: both the
/// write and the close are checked, and either failure returns false with
/// the reason in *err.
inline bool write_file(const std::string& path, std::string_view body,
                       std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (wrote && closed) return true;
  if (err != nullptr) {
    *err = "cannot write " + path;
    *err += ": ";
    *err += std::strerror(errno);
  }
  return false;
}

/// Strict non-negative integer parse: every character must be a digit and
/// the value must fit in 64 bits. "abc", "-3", "1e6", "" all fail — a
/// malformed count or seed should be a loud error, not a silent zero.
inline bool parse_u64_strict(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace olden
