#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "sim/fiber.hpp"
#include "sim/sanitizers.hpp"

namespace kop::sim {

namespace {

// True when [lo, lo+len) is covered by a PROT_NONE mapping according to
// /proc/self/maps.  Uses raw read()/manual parsing: this runs in a
// freshly forked child of a multi-threaded process, where only
// async-signal-safe calls are trustworthy (malloc/stdio locks may be
// held by threads that did not survive the fork).
bool range_is_prot_none(std::uintptr_t lo, std::size_t len) {
  const int fd = ::open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[4096];
  char line[256];
  std::size_t line_len = 0;
  bool found = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n && !found; ++i) {
      const char c = buf[i];
      if (c != '\n') {
        if (line_len + 1 < sizeof(line)) line[line_len++] = c;
        continue;
      }
      line[line_len] = '\0';
      // "start-end perms ..." in hex; perms is 4 chars like "---p".
      std::uintptr_t start = 0, end = 0;
      char perms[8] = {0};
      if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR " %7s", &start, &end,
                      perms) == 3 &&
          start <= lo && lo + len <= end) {
        found = perms[0] == '-' && perms[1] == '-' && perms[2] == '-';
      }
      line_len = 0;
    }
    if (found) break;
  }
  ::close(fd);
  return found;
}

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent went away; nothing useful a child can do
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

bool Checkpoint::supported() {
#if defined(KOP_TSAN_BUILD) || defined(KOP_ASAN_BUILD)
  return false;
#else
  return true;
#endif
}

Checkpoint::~Checkpoint() {
  // Defensive reap: a caller that forked but never harvested (e.g. an
  // exception between fork and harvest) must not leak zombies or leave
  // children blocked on a full pipe forever.
  for (Child& c : children_) {
    if (c.harvested) continue;
    if (c.read_fd >= 0) ::close(c.read_fd);
    if (c.pid > 0) {
      int status = 0;
      while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    c.harvested = true;
  }
}

bool Checkpoint::fork_child() {
  if (!supported())
    throw std::logic_error("checkpoint: fork not supported in this build");
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::runtime_error(std::string("checkpoint: pipe: ") +
                             std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("checkpoint: fork: ") +
                             std::strerror(errno));
  }
  if (pid > 0) {
    ::close(fds[1]);
    children_.push_back(Child{fds[0], pid, false});
    return false;
  }
  // Child: keep only our own write end; inherited read ends of earlier
  // siblings would otherwise hold their pipes open past the parent.
  ::close(fds[0]);
  for (const Child& c : children_) {
    if (c.read_fd >= 0) ::close(c.read_fd);
  }
  children_.clear();
  child_write_fd_ = fds[1];
  // COW sanity: the fiber we are about to keep running on must still
  // have its PROT_NONE guard page; losing it across the fork would let
  // a stack overflow silently chew into the adjacent slab.
  if (const Fiber* f = Fiber::current()) {
    const auto lo = reinterpret_cast<std::uintptr_t>(f->stack_base());
    if (!range_is_prot_none(lo, f->guard_bytes())) _exit(kGuardLostExit);
  }
  return true;
}

void Checkpoint::child_exit(const std::string& payload, int code) {
  if (child_write_fd_ >= 0) {
    write_all(child_write_fd_, payload.data(), payload.size());
    ::close(child_write_fd_);
  }
  // _exit, not exit: a forked child shares the parent's atexit
  // handlers, open streams and sinks, and must not flush or destroy
  // any of them.
  _exit(code);
}

Checkpoint::Harvest Checkpoint::harvest(std::size_t index) {
  if (index >= children_.size())
    throw std::out_of_range("checkpoint: harvest index out of range");
  Child& c = children_[index];
  if (c.harvested) throw std::logic_error("checkpoint: child already harvested");
  c.harvested = true;

  Harvest h;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(c.read_fd, buf, sizeof(buf));
    if (n > 0) {
      h.payload.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(c.read_fd);
  c.read_fd = -1;

  int status = 0;
  pid_t r;
  while ((r = ::waitpid(c.pid, &status, 0)) < 0 && errno == EINTR) {
  }
  if (r == c.pid && WIFEXITED(status)) h.exit_code = WEXITSTATUS(status);
  c.pid = -1;
  return h;
}

}  // namespace kop::sim
