// The annotated-C surface of Olden, as C++ awaitables.
//
// An Olden program is a set of Task coroutines that touch the distributed
// heap only through these operations:
//
//   T v  = co_await rd(p, &S::field, SITE);          // pointer dereference
//          co_await wr(p, &S::field, v, SITE);       // field assignment
//   T v  = co_await rd_elem(arr, i, SITE);           // array element read
//          co_await wr_elem(arr, i, v, SITE);        // array element write
//   auto f = co_await futurecall(Proc(args...));     // parallel call
//   T v  = co_await touch(f);                        // force the future
//
// SITE is the dereference-site identifier the mechanism-selection heuristic
// decided on (migrate vs. cache); the machine consults its decision table on
// every access, exactly as the compiler-inserted test code would.
#pragma once

#include "olden/mem/global_addr.hpp"
#include "olden/runtime/machine.hpp"
#include "olden/runtime/task.hpp"

namespace olden {

namespace detail {

template <class T>
struct ReadAwaiter {
  GlobalAddr addr;
  SiteId site;
  T value{};
  bool migrated = false;

  bool await_ready() {
    return Machine::current().access(addr, &value, sizeof(T), false, site);
  }
  void await_suspend(std::coroutine_handle<> h) {
    migrated = true;
    Machine::current().migrate_to(addr.proc(), h, site);
  }
  T await_resume() {
    if (migrated) {
      Machine::current().finish_access_local(addr, &value, sizeof(T), false);
    }
    return value;
  }
};

template <class T>
struct WriteAwaiter {
  GlobalAddr addr;
  SiteId site;
  T value;
  bool migrated = false;

  bool await_ready() {
    return Machine::current().access(addr, &value, sizeof(T), true, site);
  }
  void await_suspend(std::coroutine_handle<> h) {
    migrated = true;
    Machine::current().migrate_to(addr.proc(), h, site);
  }
  void await_resume() {
    if (migrated) {
      Machine::current().finish_access_local(addr, &value, sizeof(T), true);
    }
  }
};

}  // namespace detail

template <class S, class T>
detail::ReadAwaiter<T> rd(GPtr<S> p, T S::* field, SiteId site) {
  return {p.addr().plus(member_offset(field)), site};
}

template <class S, class T>
detail::WriteAwaiter<T> wr(GPtr<S> p, T S::* field, T v, SiteId site) {
  return {p.addr().plus(member_offset(field)), site, std::move(v)};
}

/// Element read/write on a heap array of T.
template <class T>
detail::ReadAwaiter<T> rd_elem(GPtr<T> arr, std::uint32_t i, SiteId site) {
  return {arr.at(i).addr(), site};
}

template <class T>
detail::WriteAwaiter<T> wr_elem(GPtr<T> arr, std::uint32_t i, T v,
                                SiteId site) {
  return {arr.at(i).addr(), site, std::move(v)};
}

/// Whole-structure read/write: one access moving sizeof(S) bytes (a block
/// transfer — structure assignment in the annotated C source).
template <class S>
detail::ReadAwaiter<S> rd_obj(GPtr<S> p, SiteId site) {
  return {p.addr(), site};
}

template <class S>
detail::WriteAwaiter<S> wr_obj(GPtr<S> p, S v, SiteId site) {
  return {p.addr(), site, std::move(v)};
}

// ---------------------------------------------------------------------------
// Futures
// ---------------------------------------------------------------------------

/// The programmer-visible future handle returned by futurecall. Must be
/// touched exactly once; the touch yields the body's return value.
template <class T>
class Future {
 public:
  Future() = default;
  explicit Future(FutureCell* c) : cell_(c) {}
  [[nodiscard]] FutureCell* cell() const { return cell_; }
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  FutureCell* cell_ = nullptr;
};

namespace detail {

template <class T>
struct FuturecallAwaiter {
  typename Task<T>::handle_type body;
  FutureCell* cell = nullptr;

  bool await_ready() { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
    Machine& m = Machine::current();
    cell = m.make_future_cell(caller, body);
    body.promise().cell = cell;
    // The body runs next, on this processor, as this thread — symmetric
    // transfer where the host supports it, so loops of futurecalls keep a
    // flat host stack.
    return m.transfer_to(body);
  }
  Future<T> await_resume() { return Future<T>(cell); }
};

template <class T>
struct TouchAwaiter {
  FutureCell* cell;

  bool await_ready() { return Machine::current().future_ready(cell); }
  void await_suspend(std::coroutine_handle<> h) {
    Machine::current().block_on_future(cell, h);
  }
  T await_resume() {
    Machine& m = Machine::current();
    m.on_touch_consume(cell);
    auto body = Task<T>::handle_type::from_address(cell->body.address());
    if constexpr (std::is_void_v<T>) {
      m.destroy_cell(cell);
    } else {
      T v = body.promise().take();
      m.destroy_cell(cell);
      return v;
    }
  }
};

}  // namespace detail

/// Annotate a call as safe to evaluate in parallel with its parent (§2).
template <class T>
detail::FuturecallAwaiter<T> futurecall(Task<T> body) {
  return {body.release()};
}

/// Force a future; must appear before the value is used (§2).
template <class T>
detail::TouchAwaiter<T> touch(Future<T> f) {
  OLDEN_REQUIRE(f.valid(), "touch of an empty future");
  return {f.cell()};
}

}  // namespace olden
