// An in-process sweep coordinator serving a ResultCache over a unix
// socket, the way kop_sweepd wires its GET/MGET path: the cache probe
// decodes the entry and re-encodes it, so only valid entries are served.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "coord/coordinator.hpp"
#include "coord/server.hpp"
#include "harness/jobs/cache.hpp"

namespace perfbench {

class CoordHost {
 public:
  /// Registers every point of `specs` (keyed by content hash) and starts
  /// the server loop on a thread of its own.
  CoordHost(const std::string& socket_path,
            std::map<std::uint64_t, kop::harness::jobs::PointSpec> specs,
            kop::harness::jobs::ResultCache* cache);
  ~CoordHost();
  CoordHost(const CoordHost&) = delete;
  CoordHost& operator=(const CoordHost&) = delete;

  const std::string& address() const { return address_; }

 private:
  std::string address_;
  std::map<std::uint64_t, kop::harness::jobs::PointSpec> specs_;
  kop::harness::jobs::ResultCache* cache_;
  std::unique_ptr<kop::coord::Coordinator> coord_;
  std::unique_ptr<kop::coord::Server> server_;
  std::thread loop_;
};

}  // namespace perfbench
