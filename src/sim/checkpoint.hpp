// COW fork() checkpointing at the warmup/measurement boundary.
//
// A checkpointed sweep runs one warm prefix (boot, page-touch, first
// parallel region) and forks one child per late-binding suffix at the
// Engine::snapshot_point() boundary.  fork()'s copy-on-write semantics
// carry the whole simulation along for free -- fiber stacks,
// slab arenas, the calendar queue, every heap object -- with no
// serialization step; each child applies its own suffix deltas (cost
// scales, rep counts), finishes the measurement phase, and pipes its
// encoded result back to the parent.
//
// Child hygiene rules (the reason this is a facade and not raw fork):
//   * children report through their pipe and leave via child_exit()'s
//     _exit(), so parent-owned sinks, caches and streams can never be
//     double-flushed from a child;
//   * a child never touches the ResultCache, claim files, or
//     coordinator leases -- the parent owns all externally visible
//     side effects and stores harvested results itself;
//   * the child asserts its current fiber's guard page survived the
//     fork before resuming simulation (a COW remap that dropped
//     PROT_NONE would turn stack overflows into silent corruption).
#pragma once

#include <cstddef>
#include <string>
#include <sys/types.h>
#include <vector>

namespace kop::sim {

class Checkpoint {
 public:
  Checkpoint() = default;
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Whether fork-based checkpointing works in this build.  False under
  /// ThreadSanitizer and AddressSanitizer, so checkpointed paths fall
  /// back to cold runs there: TSan's runtime does not survive fork()
  /// from a threaded parent, and ASan's allocator takes no locks around
  /// fork(), so a child forked from one JobRunner worker can inherit an
  /// allocator lock a sibling worker held and block on it forever.
  static bool supported();

  /// Fork one child.  In the parent: records the child's pid and result
  /// pipe and returns false.  In the child: closes inherited pipe ends,
  /// verifies the current fiber's guard page is still PROT_NONE
  /// (_exit(kGuardLostExit) if not), and returns true.  A child must
  /// finish its work and leave via child_exit(); returning into the
  /// parent's control flow above the fork is a bug.
  bool fork_child();

  /// [child only] Write `payload` to the result pipe, then _exit(code)
  /// -- skipping atexit handlers, stream flushes and destructors.
  [[noreturn]] void child_exit(const std::string& payload, int code = 0);

  /// Exit code a child uses when the post-fork guard-page check fails.
  static constexpr int kGuardLostExit = 71;

  struct Harvest {
    std::string payload;
    /// Child's exit code; -1 when it died abnormally (signal).
    int exit_code = -1;
    bool ok() const { return exit_code == 0; }
  };

  /// [parent only] Read child `index`'s pipe to EOF and reap it.  Call
  /// at most once per forked child; blocks until that child exits (or
  /// closes its pipe).
  Harvest harvest(std::size_t index);

  /// Number of children forked so far (harvested or not).
  std::size_t children() const { return children_.size(); }

 private:
  struct Child {
    int read_fd = -1;
    pid_t pid = -1;
    bool harvested = false;
  };

  std::vector<Child> children_;
  int child_write_fd_ = -1;  // valid only inside a forked child
};

}  // namespace kop::sim
