#include "serve.hpp"

#include <cstdio>
#include <exception>

#include "coord/client.hpp"

namespace perfbench {

namespace kj = kop::harness::jobs;

CoordHost::CoordHost(const std::string& socket_path,
                     std::map<std::uint64_t, kj::PointSpec> specs, kj::ResultCache* cache)
    : address_(socket_path), specs_(std::move(specs)), cache_(cache) {
  kop::coord::CacheProbe probe = [this](std::uint64_t hash, std::string* doc) {
    const auto it = specs_.find(hash);
    if (it == specs_.end()) return false;
    kj::PointResult result;
    if (!cache_->load(it->second, &result)) return false;
    *doc = kj::ResultCache::encode(it->second, result);
    return true;
  };
  coord_ = std::make_unique<kop::coord::Coordinator>(kop::coord::CoordinatorOptions{},
                                                     std::move(probe));
  for (const auto& [hash, spec] : specs_) {
    kop::coord::PointInfo info;
    info.hash = hash;
    info.entry = "kop-" + kj::hex16(kj::ResultCache::key(spec)) + ".json";
    info.label = spec.label();
    coord_->add_point(std::move(info));
  }
  kop::coord::ServerOptions opt;
  opt.address = socket_path;
  opt.poll_ms = 20;  // bounds only the shutdown latency; requests wake the loop
  server_ = std::make_unique<kop::coord::Server>(coord_.get(), opt);
  loop_ = std::thread([this] {
    try {
      server_->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: coordinator loop: %s\n", e.what());
    }
  });
}

CoordHost::~CoordHost() {
  // SHUTDOWN over the socket ends the loop without touching the
  // server's state from this thread.
  try {
    kop::coord::Client(address_).shutdown();
  } catch (const std::exception&) {
    server_->stop();
  }
  loop_.join();
}

}  // namespace perfbench
