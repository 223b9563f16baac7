// Shared helpers for the lwmpi test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/pvar.hpp"
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

// One rank-level pvar of `e`, read through a fresh MPI_T-style session the
// way an external tool would; a failed lookup or read fails the test.
inline std::uint64_t read_pvar(Engine& e, const char* name) {
  obs::PvarSession s;
  EXPECT_EQ(obs::LWMPI_T_pvar_session_create(e, &s), Err::Success);
  const int idx = obs::LWMPI_T_pvar_index(name);
  EXPECT_GE(idx, 0) << "unknown pvar " << name;
  std::uint64_t v = 0;
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, idx, &v), Err::Success);
  obs::LWMPI_T_pvar_session_free(&s);
  return v;
}

// Whether `s` is one well-formed JSON document, by the reader every
// artifact loader uses.
inline bool parses(const std::string& s) {
  obs::json::Value v;
  return obs::json::parse(s, &v);
}

}  // namespace lwmpi::test
