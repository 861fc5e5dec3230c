// Host I/O shared by the exporters, the readers and the command-line
// tools: checked whole-file reads and writes, the JSON emitters' escaping
// and key-value formatting, and command-line value parsing.
#pragma once

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace olden {

/// Read all of `path` into *out. Either failure returns false with the
/// reason, naming the file, in *err.
inline bool read_file(const std::string& path, std::string* out,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok && err != nullptr) *err = "read error on " + path;
  return read_ok;
}

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

/// Matches "--NAME=value" exactly (so "--trace" never swallows
/// "--trace-bin"). Returns the value through `out`.
inline bool flag_value(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

/// "a,b,,c" -> {"a", "b", "", "c"}; an empty string is one empty token.
inline std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Append `s` as the body of a JSON string: quotes, backslashes and
/// control characters escaped. Every JSON document the project writes
/// escapes through here, so none can diverge on it.
inline void append_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

/// Append `"key":v`, then a comma unless `comma` is false.
inline void append_kv(std::string& out, const char* key, std::uint64_t v,
                      bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

/// Signed variant: diff deltas go negative.
inline void append_kv_i64(std::string& out, const char* key, std::int64_t v,
                          bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRId64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

}  // namespace olden
