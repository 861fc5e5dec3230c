// ThreadState: the runtime identity of one Olden thread.
//
// A thread is a chain of coroutine frames (the "stack"). Migration moves
// only the thread's execution point between processors — frames stay in
// host memory, exactly as only the current stack frame moved on the CM-5.
// A fresh thread comes into being in two ways: the program's root, and
// future stealing (an idle processor popping a saved continuation).
#pragma once

#include "olden/cache/coherence.hpp"
#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden {

struct ThreadState {
  ThreadId id = 0;
  /// Processor the thread is currently executing on (updated on migration
  /// arrival, including return-stub migrations).
  ProcId proc = 0;
  /// Processors whose memories this thread has written since it last
  /// returned home: the return-stub invalidation optimization of §3.2
  /// invalidates only cached lines homed on these.
  ProcSet written;
  /// Pages/lines written since the last migration — the compiler-inserted
  /// write tracking of Appendix A (eager-release and bilateral schemes).
  WriteLog write_log;
  /// Departure bookkeeping for trace latency attribution (observability
  /// only; written when an observer is installed, never read by the
  /// runtime's own logic).
  Cycles obs_depart_time = 0;
  ProcId obs_depart_proc = 0;
  /// Causal-chain bookkeeping (observability only, like the fields above):
  /// the chain this thread's events belong to, the id of the thread's most
  /// recent event (the default parent of its next one), an explicit
  /// one-shot parent override (set when something on another processor —
  /// a future resolution, a steal trigger — causes this thread's next
  /// event), and the id of the in-flight migration/return-stub departure.
  std::uint64_t obs_chain = trace::kNoChain;
  std::uint64_t obs_last_event = trace::kNoEvent;
  std::uint64_t obs_next_parent = trace::kNoEvent;
  std::uint64_t obs_depart_event = trace::kNoEvent;
};

}  // namespace olden
