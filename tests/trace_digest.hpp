// FNV-1a over a run's binary trace, the trace bytes to hash, and their
// analysis and Chrome rendering. The equivalence suites pin these digests to recorded values,
// so a change that moves one cycle, one counter or one event anywhere in
// a run fails against the pinned value, not only against a second run of
// the same code.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"

namespace olden::test {

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A temp-file path named after the running test case. ctest -j runs
/// each case in a process of its own, so no two running cases share a
/// path, and a file an aborted run left is overwritten by the next run
/// instead of piling up.
inline std::string temp_path(const std::string& name) {
  std::string path = ::testing::TempDir();
  path += "olden_";
  if (const ::testing::TestInfo* t =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    // Parameterized names read "Suite/Fixture.Test/Param".
    std::string test = t->test_suite_name();
    test += '.';
    test += t->name();
    std::replace(test.begin(), test.end(), '/', '_');
    path += test;
    path += '_';
  }
  path += name;
  return path;
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

/// An Observer with tracing on whose runs stream to a temp file it owns,
/// as their events fire: the path every bench binary's --trace-bin takes.
/// Each instance gets a file of its own, so a test may hold several.
class StreamedObserver : public trace::Observer {
 public:
  StreamedObserver()
      : path_(temp_path("streamed_" + std::to_string(++created_) + ".bin")),
        sink_(path_) {
    EXPECT_TRUE(sink_.ok()) << sink_.error();
    set_trace_enabled(true);
    set_sink(&sink_);
  }
  ~StreamedObserver() {
    sink_.finalize();
    std::remove(path_.c_str());
  }

  /// Finalize the file, if that is not done yet, and return its path. No
  /// run may start after the first call.
  const std::string& path() {
    std::string err;
    EXPECT_TRUE(sink_.finalize(&err)) << err;
    return path_;
  }

 private:
  static inline std::atomic<unsigned> created_{0};
  std::string path_;
  trace::StreamingTraceSink sink_;
};

/// The bytes `obs` streamed, read back from disk, so every pin hashes the
/// production writer's output.
inline std::string trace_bytes(StreamedObserver& obs) {
  return read_file(obs.path());
}

/// `obs`'s runs as olden-analyze reads them: streamed to disk, then read
/// through analyze_trace_file (which also builds each run's DiffProfile
/// when `profiles` is non-null).
inline void analyze_observer(
    StreamedObserver& obs, std::size_t top_n, analyze::TraceFile* file,
    std::vector<analyze::RunReport>* reports,
    std::vector<analyze::DiffProfile>* profiles = nullptr) {
  std::string err;
  EXPECT_TRUE(analyze::analyze_trace_file(obs.path(), top_n, file, reports,
                                          profiles, &err))
      << err;
}

/// Every event `obs` streamed, read back in file order.
inline std::vector<trace::TraceEvent> streamed_events(StreamedObserver& obs) {
  std::vector<trace::TraceEvent> events;
  std::vector<trace::TraceEvent> batch;
  analyze::TraceStream ts;
  analyze::TraceRun run;
  std::string err;
  EXPECT_TRUE(ts.open(obs.path(), &err)) << err;
  while (ts.next_run(&run, &err)) {
    while (ts.next_events(&batch, 4'096, &err)) {
      events.insert(events.end(), batch.begin(), batch.end());
    }
  }
  EXPECT_EQ(err, "");
  return events;
}

/// The Chrome trace_event document olden-analyze --chrome-out renders
/// from the file `obs` streamed.
inline std::string chrome_json(StreamedObserver& obs) {
  const std::string out = temp_path("chrome.json");
  std::string err;
  EXPECT_TRUE(analyze::render_chrome_trace(obs.path(), out, &err)) << err;
  std::string json = read_file(out);
  std::remove(out.c_str());
  return json;
}

}  // namespace olden::test
