// FNV-1a over a run's binary trace, the trace bytes to hash, and their
// analysis. The equivalence suites pin these digests to recorded values,
// so a change that moves one cycle, one counter or one event anywhere in
// a run fails against the pinned value, not only against a second run of
// the same code.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/trace/observer.hpp"

namespace olden::test {

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A temp-file path no other test process shares: ctest -j runs cases
/// concurrently, each in its own process.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "olden_" + std::to_string(::getpid()) + "_" +
         name;
}

inline std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string body;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, got);
  std::fclose(f);
  return body;
}

inline void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// The bytes trace::write_binary_trace writes for `obs`, read back from
/// disk, so every pin hashes the production writer's output.
inline std::string trace_bytes(const trace::Observer& obs) {
  const std::string path = temp_path("trace_bytes.bin");
  std::string err;
  EXPECT_TRUE(trace::write_binary_trace(obs, path, &err)) << err;
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

/// `obs`'s runs as olden-analyze reads them: written by
/// write_binary_trace, then streamed through analyze_trace_file (which
/// also builds each run's DiffProfile when `profiles` is non-null).
inline void analyze_observer(
    const trace::Observer& obs, std::size_t top_n, analyze::TraceFile* file,
    std::vector<analyze::RunReport>* reports,
    std::vector<analyze::DiffProfile>* profiles = nullptr) {
  const std::string path = temp_path("analyze_observer.bin");
  std::string err;
  ASSERT_TRUE(trace::write_binary_trace(obs, path, &err)) << err;
  EXPECT_TRUE(analyze::analyze_trace_file(path, top_n, file, reports,
                                          profiles, &err))
      << err;
  std::remove(path.c_str());
}

}  // namespace olden::test
