// Shared helpers for the lwmpi test suite.
#pragma once

#include <functional>
#include <string>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "runtime/world.hpp"

namespace lwmpi::test {

// Default options for functional tests: zero-cost loopback network, 2 ranks
// per simulated node so both shmmod and netmod paths are exercised.
inline WorldOptions fast_opts(DeviceKind device = DeviceKind::Ch4) {
  WorldOptions o;
  o.ranks_per_node = 2;
  o.profile = net::loopback();
  o.device = device;
  return o;
}

// Run an SPMD function over `n` ranks with the given options.
inline void spmd(int n, const std::function<void(Engine&)>& fn,
                 WorldOptions opts = fast_opts()) {
  World w(n, std::move(opts));
  w.run(fn);
}

// Whether `s` is one well-formed JSON document, by the reader every
// artifact loader uses.
inline bool parses(const std::string& s) {
  obs::json::Value v;
  return obs::json::parse(s, &v);
}

}  // namespace lwmpi::test
