// Cooperative fibers, used to give every simulated thread its own C++
// call stack.
//
// A Fiber runs an arbitrary callable on a private mmap'd stack with a
// guard page.  Control transfers are explicit (resume / Fiber::yield);
// the engine resumes a fiber when its wake event fires, and the fiber
// yields back whenever the simulated thread blocks.  Exceptions thrown
// by the entry function are captured and rethrown in the resumer.
//
// Switch mechanism (x86-64): a dozen instructions of assembly save the
// callee-saved registers (rbx, rbp, r12-r15), MXCSR and the x87
// control word on the outgoing stack, store rsp, load the other
// context's rsp and pop the same set back.  Everything else is
// caller-saved under the SysV ABI, so the compiler already spilled it
// around the call.  No signal mask is touched, so a switch makes no
// system call (glibc swapcontext pays an rt_sigprocmask per switch).
// A fresh fiber's stack is pre-loaded with one such saved frame whose
// return address is an entry stub, so the first resume is an ordinary
// switch.  Every build, sanitizer builds included, uses this one path;
// other architectures fall back to ucontext at compile time.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <exception>
#include <functional>

namespace kop::sim {

class Fiber {
 public:
  using Entry = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit Fiber(Entry entry, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber.  Returns when the fiber yields or
  /// its entry function returns.  Rethrows any exception that escaped
  /// the entry function.  Must not be called on a finished fiber.
  void resume();

  /// Transfer control from the currently running fiber back to its
  /// resumer.  Must be called from inside a fiber.
  static void yield();

  /// The fiber currently executing on this host thread (nullptr if the
  /// host is running ordinary, non-fiber code).
  static Fiber* current();

  /// Stack mappings parked in this host thread's reuse pool.  Only
  /// stacks without live frames go back to the pool.
  static std::size_t pooled_stacks();

  bool finished() const { return finished_; }
  bool running() const { return running_; }

  /// mmap base of this fiber's stack mapping; the PROT_NONE guard page
  /// occupies [stack_base(), stack_base() + guard_bytes()) below the
  /// usable stack.  Exposed so sim::Checkpoint can assert the guard
  /// survived a fork() (COW must not quietly remap it writable).
  const void* stack_base() const { return stack_base_; }
  std::size_t guard_bytes() const;
  std::size_t map_bytes() const { return map_bytes_; }

 private:
  /// Body of a fiber's stack: runs entry_, then leaves for good.
  static void run(Fiber* self);
  /// Raw context switches: resumer -> fiber, and fiber -> resumer.
  void enter();
  void leave();

  Entry entry_;
  void* stack_base_ = nullptr;   // mmap base (guard page at the bottom)
  std::size_t map_bytes_ = 0;    // total mapped size incl. guard
#if defined(__x86_64__)
  void* sp_ = nullptr;           // fiber's saved rsp while suspended
  void* return_sp_ = nullptr;    // resumer's saved rsp while running
#else
  ucontext_t context_{};         // fiber's own context
  ucontext_t return_context_{};  // where to go on yield/finish
#endif
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  std::exception_ptr pending_exception_;
  // Sanitizer fiber state (always present so the layout does not
  // depend on the sanitizer config; unused when the sanitizer is off).
  const void* asan_resumer_bottom_ = nullptr;  // resumer's stack, for yield
  std::size_t asan_resumer_size_ = 0;
  void* tsan_fiber_ = nullptr;   // __tsan_create_fiber handle
  void* tsan_return_ = nullptr;  // resumer's TSan fiber, for yield
};

}  // namespace kop::sim
