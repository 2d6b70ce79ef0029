#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "sim/sanitizers.hpp"

// AddressSanitizer tracks one shadow stack per host thread, so every
// fiber switch must be announced with __sanitizer_*_switch_fiber.  The
// x86-64 switch below is not swapcontext, so no ASan interceptor sees
// it, and GCC and Clang builds both need the explicit annotations.  The
// ucontext fallback off x86-64 differs: GCC's ASan runtime intercepts
// swapcontext and manages the shadow itself (annotations on top of that
// interceptor corrupt the shadow state and cause false
// stack-buffer-overflow reports after exception unwinds), so there only
// Clang annotates.
#if defined(KOP_ASAN_BUILD) && (defined(__x86_64__) || defined(__clang__))
#define KOP_ASAN_FIBERS 1
#endif

#ifdef KOP_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* stack_bottom,
                                    size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** stack_bottom_old,
                                     size_t* stack_size_old);
void __asan_unpoison_memory_region(const volatile void* addr, size_t size);
}
#endif

// ThreadSanitizer models each host thread as one stack of execution;
// without annotations every fiber switch looks like wild cross-stack
// access.  The fiber API (GCC >= 10 / Clang libtsan) registers each
// fiber as its own TSan "thread"; flag 0 on switch establishes
// happens-before across the transfer, so the cooperative fibers of one
// engine never appear to race with each other while true cross-engine
// races (shared mutable state touched from two JobRunner workers) are
// still caught.
#ifdef KOP_TSAN_BUILD
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(__x86_64__)
// kop_fiber_switch(save, load): push the callee-saved registers, MXCSR
// and the x87 control word, store rsp to *save, load rsp from `load`,
// pop the same frame and return into the other context.  Saved frame,
// from the stored rsp upwards (64 bytes):
//   [0] MXCSR  [4] x87 CW  [8] r15  [16] r14  [24] r13  [32] r12
//   [40] rbx  [48] rbp  [56] return address
// kop_fiber_start is the return address of a fresh fiber's first
// frame: it calls rbx(r12), i.e. Fiber::run(self), and marks the end
// of the call chain for unwinders (run never returns).
extern "C" void kop_fiber_switch(void** save, void* load) noexcept;
extern "C" void kop_fiber_start() noexcept;
asm(R"(
  .text
  .p2align 4
  .globl kop_fiber_switch
  .hidden kop_fiber_switch
  .type kop_fiber_switch, @function
kop_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size kop_fiber_switch, .-kop_fiber_switch

  .p2align 4
  .globl kop_fiber_start
  .hidden kop_fiber_start
  .type kop_fiber_start, @function
kop_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size kop_fiber_start, .-kop_fiber_start
)");
#endif

namespace kop::sim {

namespace {

// The fiber whose stack the host thread is currently executing on.
thread_local Fiber* g_current_fiber = nullptr;

#ifdef KOP_ASAN_FIBERS
void asan_start_switch(void** fake_save, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
}
void asan_finish_switch(void* fake_save, const void** bottom, size_t* size) {
  __sanitizer_finish_switch_fiber(fake_save, bottom, size);
}
#else
void asan_start_switch(void**, const void*, size_t) {}
void asan_finish_switch(void*, const void**, size_t*) {}
#endif

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Freelist of retired stack mappings, keyed by total mapped size.  A
// sweep constructs thousands of short-lived engines whose threads each
// mmap/mprotect/munmap a stack; recycling the mapping (guard page and
// all) makes steady-state fiber creation syscall-free.  Thread-local:
// JobRunner workers each keep their own pool, so no locking, and the
// pool dies with its host thread.
struct StackPool {
  struct Entry {
    void* base;
    std::size_t map_bytes;
  };
  static constexpr std::size_t kMaxEntries = 128;
  std::vector<Entry> entries;

  void* take(std::size_t map_bytes) {
    for (std::size_t i = entries.size(); i-- > 0;) {
      if (entries[i].map_bytes == map_bytes) {
        void* base = entries[i].base;
        entries[i] = entries.back();
        entries.pop_back();
        return base;
      }
    }
    return nullptr;
  }

  bool put(void* base, std::size_t map_bytes) {
    if (entries.size() >= kMaxEntries) return false;
    entries.push_back(Entry{base, map_bytes});
    return true;
  }

  ~StackPool() {
    for (const Entry& e : entries) ::munmap(e.base, e.map_bytes);
  }
};

thread_local StackPool g_stack_pool;

}  // namespace

Fiber::Fiber(Entry entry, std::size_t stack_bytes) : entry_(std::move(entry)) {
  const std::size_t ps = page_size();
  const std::size_t usable = round_up(stack_bytes, ps);
  map_bytes_ = usable + ps;  // one guard page below the stack
  void* base = g_stack_pool.take(map_bytes_);
  if (base == nullptr) {
    base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    if (::mprotect(base, ps, PROT_NONE) != 0) {
      ::munmap(base, map_bytes_);
      throw std::runtime_error("fiber: mprotect guard page failed");
    }
  }
  stack_base_ = base;
#ifdef KOP_ASAN_FIBERS
  // The last fiber on a recycled stack never returned from run(), so
  // that frame's redzones are still poisoned.
  __asan_unpoison_memory_region(static_cast<char*>(base) + ps, usable);
#endif

#if defined(__x86_64__)
  // The first resume pops this frame: the resumer's MXCSR and x87
  // control word, r12 = this, rbx = run, rbp = 0 (end of the frame
  // chain), and "returns" into kop_fiber_start with rsp at the top of
  // the stack, 16-byte aligned as the ABI wants before its call.
  auto* frame =
      reinterpret_cast<std::uint64_t*>(static_cast<char*>(base) + map_bytes_) - 8;
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  frame[0] = mxcsr | (static_cast<std::uint64_t>(fcw) << 32);
  frame[1] = frame[2] = frame[3] = 0;  // r15, r14, r13
  frame[4] = reinterpret_cast<std::uintptr_t>(this);
  frame[5] = reinterpret_cast<std::uintptr_t>(&Fiber::run);
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uintptr_t>(&kop_fiber_start);
  sp_ = frame;
#else
  // Only members past getcontext (returns twice): locals may be clobbered.
  if (getcontext(&context_) != 0) {
    ::munmap(stack_base_, map_bytes_);
    throw std::runtime_error("fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = static_cast<char*>(stack_base_) + guard_bytes();
  context_.uc_stack.ss_size = map_bytes_ - guard_bytes();
  context_.uc_link = nullptr;  // finish is handled in run()
  makecontext(&context_, +[] { run(g_current_fiber); }, 0);
#endif
#ifdef KOP_TSAN_BUILD
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef KOP_TSAN_BUILD
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  // Recycle only stacks with no live frames: a fiber destroyed while
  // suspended mid-run still has frames (and, under ASan, poisoned
  // shadow) on its stack, so that mapping goes back to the kernel.
  const bool clean = finished_ || !started_;
  if (stack_base_ != nullptr &&
      !(clean && g_stack_pool.put(stack_base_, map_bytes_))) {
    ::munmap(stack_base_, map_bytes_);
  }
}

#if defined(__x86_64__)
void Fiber::enter() { kop_fiber_switch(&return_sp_, sp_); }
void Fiber::leave() { kop_fiber_switch(&sp_, return_sp_); }
#else
void Fiber::enter() { swapcontext(&return_context_, &context_); }
void Fiber::leave() { swapcontext(&context_, &return_context_); }
#endif

void Fiber::run(Fiber* self) {
  // First arrival on this fiber's stack: tell ASan the switch landed
  // and remember the resumer's stack for the trip back.
  asan_finish_switch(nullptr, &self->asan_resumer_bottom_,
                     &self->asan_resumer_size_);
  try {
    self->entry_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->finished_ = true;
  self->running_ = false;
  g_current_fiber = nullptr;
  // Return to the resumer; this fiber never runs again (a null
  // fake-stack save lets ASan retire this stack's fake frames).
  asan_start_switch(nullptr, self->asan_resumer_bottom_,
                    self->asan_resumer_size_);
#ifdef KOP_TSAN_BUILD
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  self->leave();
  std::abort();  // unreachable: a finished fiber is never resumed
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("fiber: resume on finished fiber");
  if (running_) throw std::logic_error("fiber: resume on running fiber");
  Fiber* prev = g_current_fiber;
  g_current_fiber = this;
  running_ = true;
  started_ = true;
  void* fake = nullptr;
  asan_start_switch(&fake, static_cast<char*>(stack_base_) + guard_bytes(),
                    map_bytes_ - guard_bytes());
#ifdef KOP_TSAN_BUILD
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  enter();
  asan_finish_switch(fake, nullptr, nullptr);
  g_current_fiber = prev;
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  if (self == nullptr) throw std::logic_error("fiber: yield outside a fiber");
  self->running_ = false;
  g_current_fiber = nullptr;
  void* fake = nullptr;
  asan_start_switch(&fake, self->asan_resumer_bottom_, self->asan_resumer_size_);
#ifdef KOP_TSAN_BUILD
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  self->leave();
  // Resumed again, possibly by a different resumer.
  asan_finish_switch(fake, &self->asan_resumer_bottom_,
                     &self->asan_resumer_size_);
  g_current_fiber = self;
  self->running_ = true;
}

Fiber* Fiber::current() { return g_current_fiber; }

std::size_t Fiber::pooled_stacks() { return g_stack_pool.entries.size(); }

std::size_t Fiber::guard_bytes() const { return page_size(); }

}  // namespace kop::sim
