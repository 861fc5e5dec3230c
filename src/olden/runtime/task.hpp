// Task<T>: an Olden procedure.
//
// Every Olden procedure that can touch the heap is a coroutine returning
// Task<T>. Calling convention mirrors the paper's §3.1:
//
//  * `co_await some_procedure(...)` is a plain call — the callee starts
//    immediately on the caller's processor (symmetric transfer) and returns
//    control the same way, *unless* it migrated during execution, in which
//    case a return-stub migration carries control back to the caller's
//    processor (the frame does not come back).
//  * `co_await futurecall(some_procedure(...))` (see api.hpp) parks the
//    caller's continuation on the work list and runs the body inline; a
//    thread is created only if the body migrates away.
//
// Task frames live on the host heap (recycled through FramePool below);
// only the thread's execution point moves between virtual processors,
// matching "we send only the portion of the thread's state necessary for
// the current procedure".
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <new>
#include <utility>

#include "olden/runtime/machine.hpp"

#if OLDEN_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace olden {

namespace detail {

/// Recycled coroutine frames: one free list per 16-byte size class, per
/// host thread. Every procedure call and futurecall allocates a frame, a
/// run allocates millions in a few dozen sizes, and a pop from the class's
/// list replaces the malloc/free pair.
///
/// The pool caches only while a Machine is live on the thread. The
/// outermost Machine's teardown returns every cached frame to the
/// allocator, and a frame freed with no Machine live goes straight back,
/// so a host thread never exits holding frames and the heap a run leaves
/// behind is the allocator's own. Under ASan a cached frame is poisoned,
/// so a use after free of a recycled frame is still reported.
class FramePool {
 public:
  static constexpr std::size_t kGrain = 16;
  /// Larger frames bypass the pool. Every frame the ten benchmarks
  /// allocate fits; the largest is Health's, at 1,664 bytes.
  static constexpr std::size_t kMaxPooled = 2048;

  static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t c = size_class(n);
    Lists& l = lists_;
    FreeFrame* f = l.head[c];
    if (f == nullptr) return ::operator new(class_bytes(c));
    unpoison(f, class_bytes(c));
    l.head[c] = f->next;
    --l.cached;
    return f;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t c = size_class(n);
    Lists& l = lists_;
    if (l.machines == 0) {
      ::operator delete(p, class_bytes(c));
      return;
    }
    l.head[c] = new (p) FreeFrame{l.head[c]};
    ++l.cached;
    poison(p, class_bytes(c));
  }

  /// Called by Machine's constructor and destructor: the pool caches
  /// while at least one Machine is live on this thread, and empties when
  /// the outermost one goes.
  static void machine_opened() { ++lists_.machines; }
  static void machine_closed() {
    if (--lists_.machines > 0) return;
    Lists& l = lists_;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeFrame* f = l.head[c]) {
        unpoison(f, class_bytes(c));
        l.head[c] = f->next;
        ::operator delete(f, class_bytes(c));
      }
    }
    l.cached = 0;
  }

  /// Frames cached on this thread right now.
  [[nodiscard]] static std::size_t cached() { return lists_.cached; }

 private:
  struct FreeFrame {
    FreeFrame* next;
  };
  static constexpr std::size_t kClasses = kMaxPooled / kGrain;
  /// Trivially destructible and constant-initialized, so the hot path
  /// reads the thread_local directly, without a TLS init guard.
  struct Lists {
    std::array<FreeFrame*, kClasses> head{};
    std::size_t cached = 0;
    std::size_t machines = 0;
  };

  static std::size_t size_class(std::size_t n) {  // n >= 1
    return (n - 1) / kGrain;
  }
  static std::size_t class_bytes(std::size_t c) { return (c + 1) * kGrain; }
  static void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#if OLDEN_ASAN
    __asan_poison_memory_region(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] void* p,
                       [[maybe_unused]] std::size_t n) {
#if OLDEN_ASAN
    __asan_unpoison_memory_region(p, n);
#endif
  }

  static thread_local Lists lists_;
};

inline thread_local FramePool::Lists FramePool::lists_;

/// Holds the co_returned value; the void specialization swaps
/// return_value for return_void (a promise must declare exactly one).
template <class T>
struct PromiseStorage {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T take() { return std::move(value); }
};

template <>
struct PromiseStorage<void> {
  void return_void() {}
  void take() {}
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseStorage<T> {
    std::coroutine_handle<> cont;  ///< caller resumption (null for roots)
    ProcId call_proc = 0;          ///< caller's processor at invocation
    FutureCell* cell = nullptr;    ///< non-null for future bodies

    static void* operator new(std::size_t n) {
      return detail::FramePool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::deallocate(p, n);
    }

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        // Symmetric transfer into whatever continues (the local caller or
        // an inlined future continuation), or a noop handle to unwind to
        // the scheduler loop when control goes through the event queue.
        // Either way the host stack stays flat (see machine.hpp).
        promise_type& p = h.promise();
        return Machine::current().on_task_final(p.cont, p.call_proc, p.cell);
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { std::terminate(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  /// Plain procedure call: start the callee now, resume me when it
  /// returns (possibly via a return-stub migration).
  auto operator co_await() && {
    struct CallAwaiter {
      handle_type h;
      bool await_ready() { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
        Machine& m = Machine::current();
        promise_type& p = h.promise();
        p.cont = caller;
        p.call_proc = m.cur_proc();
        m.charge_call();
        return h;
      }
      T await_resume() { return h.promise().take(); }
    };
    return CallAwaiter{h_};
  }

  /// Transfer frame ownership (futurecall moves it into the cell; roots
  /// move it to the driver).
  handle_type release() { return std::exchange(h_, {}); }
  [[nodiscard]] handle_type handle() const { return h_; }

 private:
  handle_type h_;
};

/// Run `root` as thread 0 on processor 0 and drive the machine to
/// quiescence; returns the program's result.
template <class T>
T run_program(Machine& m, Task<T> root) {
  auto h = root.handle();  // Task keeps ownership; frame alive through drain
  m.post_root(h);
  m.drain();
  return h.promise().take();
}

}  // namespace olden
