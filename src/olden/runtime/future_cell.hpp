// FutureCell: the runtime side of Olden's futures (§2).
//
// futurecall saves the caller's continuation on the local work list and
// runs the body directly. Only if the body migrates away does the (now
// idle) processor pop a continuation and start executing it — "future
// stealing" — which is the only point where a new thread is created. If no
// migration occurs the body completes inline, the continuation is popped
// unexecuted, and no thread was ever made (lazy task creation).
//
// The work list is threaded through the cells themselves: a cell is on its
// home's list exactly while its continuation is untaken, and leaves it
// when a steal or the body's inline return takes it. A touch recycles the
// cell at once, and the next futurecall links it in afresh.
#pragma once

#include <coroutine>
#include <cstdint>

#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden {

struct ThreadState;

/// One outstanding future. Logically resides on the processor that
/// executed the futurecall (`home`). The body's coroutine frame is owned by
/// the cell so its promise (which holds the return value) survives until
/// the touch consumes it; the touch destroys the frame and frees the cell
/// for the next futurecall.
struct FutureCell {
  ProcId home = 0;
  bool resolved = false;
  /// The saved caller continuation was popped (stolen, or consumed by the
  /// body's inline return), so the cell is off its home's work list.
  bool taken = false;
  /// Set when the body completed on a processor other than `home`: the
  /// resolution message is then a release, and the touch that consumes the
  /// value performs the matching acquire (coherence event).
  bool resolved_remotely = false;
  /// Creation serial (1-based futurecall count): attributes trace events.
  std::uint64_t serial = 0;

  /// The future body's root coroutine; destroyed by the touch.
  std::coroutine_handle<> body;
  /// The caller continuation the work list offers for stealing.
  std::coroutine_handle<> cont;
  /// The older and newer neighbours on the home's work list while the
  /// continuation is untaken.
  FutureCell* prev = nullptr;
  FutureCell* next = nullptr;

  /// A thread blocked in touch, if any (null again once it is woken).
  std::coroutine_handle<> waiter;
  ThreadState* waiter_thread = nullptr;
  ProcId waiter_proc = 0;

  /// Processors the body's thread wrote — the acquire invalidates only
  /// lines homed there (the same precision as the return-stub
  /// optimization of §3.2). Written at resolution.
  ProcSet writer_written;

  /// Causal-chain bookkeeping (observability only): the ids of this cell's
  /// future_create and future_resolve events. A steal of the saved
  /// continuation parents on the create; a blocked toucher's wake parents
  /// on the resolve.
  std::uint64_t obs_create_event = trace::kNoEvent;
  std::uint64_t obs_resolve_event = trace::kNoEvent;
};

}  // namespace olden
