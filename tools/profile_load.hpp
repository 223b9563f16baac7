// The one strict reader of the aggregate profiler's artifact: the
// profile.json a World writes at teardown (obs/profiler.hpp). lwmpi_prof
// renders and diffs what it returns; `bench_check --profcheck` is this
// loader plus a one-line summary. Header-only on obs/json.hpp, so
// bench_check still builds without the library.
//
// Any missing or mistyped field, a rank or matrix endpoint out of range, a
// phase the header does not list, or an unknown message class rejects the
// whole artifact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace lwmpi::tools {

struct SiteAgg {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::uint64_t time_ns = 0;
};

struct Profile {
  int nranks = 0;
  std::uint64_t nvcis = 0;
  std::string netmod;
  std::vector<std::string> phases;
  // phase name -> per-rank MPI time (ns), index = rank
  std::map<std::string, std::vector<std::uint64_t>> phase_time;
  // site name -> totals summed over ranks, phases, vcis
  std::map<std::string, SiteAgg> sites;
  // class name -> bytes per (src * nranks + dst), plus the all-class total
  std::map<std::string, std::vector<std::uint64_t>> matrix_by_class;
  std::vector<std::uint64_t> matrix_total;
  std::uint64_t pop_warnings = 0;
  std::uint64_t phase_overflows = 0;
  std::size_t callsite_rows = 0;
  std::size_t matrix_cells = 0;
};

namespace detail {

inline bool load_ranks(const std::vector<obs::json::Value>& ranks, Profile* p,
                       std::string* err) {
  const auto n = static_cast<std::size_t>(p->nranks);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    obs::json::Fields r(ranks[i], err);
    const std::uint64_t rank = r.u64("rank");
    if (r.ok() && rank >= n) r.bad("rank", "below nranks");
    p->pop_warnings += r.u64("pop_warnings");
    for (const obs::json::Value& ph : r.arr("phases")) {
      obs::json::Fields f(ph, err);
      const std::string& name = f.str("phase");
      const std::uint64_t time_ns = f.u64("time_ns");
      if (f.ok() && std::find(p->phases.begin(), p->phases.end(), name) == p->phases.end()) {
        f.bad("phase", "listed in \"phases\"");
      }
      for (const obs::json::Value& cs : f.arr("callsites")) {
        obs::json::Fields c(cs, err);
        const std::string& site = c.str("site");
        if (c.u64("vci") >= p->nvcis) c.bad("vci", "below nvcis");
        const SiteAgg row{c.u64("count"), c.u64("bytes"), c.u64("time_ns")};
        const obs::json::Value& cost = c.obj("cost");
        if (c.ok() && cost.obj.empty()) c.bad("cost", "a non-empty object");
        for (const auto& [group, instr] : cost.obj) {
          std::uint64_t v = 0;
          if (!instr.to_u64(&v)) c.bad(group, "an instruction count");
        }
        if (!c.ok()) break;
        SiteAgg& a = p->sites[site];
        a.count += row.count;
        a.bytes += row.bytes;
        a.time_ns += row.time_ns;
        ++p->callsite_rows;
      }
      if (!f.ok()) break;
      std::vector<std::uint64_t>& per_rank = p->phase_time[name];
      per_rank.resize(n, 0);
      per_rank[rank] += time_ns;
    }
    if (!r.ok()) {
      *err = "ranks[" + std::to_string(i) + "]: " + *err;
      return false;
    }
  }
  return true;
}

}  // namespace detail

inline bool parse_profile(std::string_view text, Profile* out, std::string* err) {
  *out = Profile{};
  err->clear();
  obs::json::Value root;
  if (!obs::json::parse_one_line(text, &root, err)) return false;
  obs::json::Fields f(root, err);
  if (f.u64("lwmpi_profile") != 1 && f.ok()) f.bad("lwmpi_profile", "1");
  const std::uint64_t nranks = f.u64("nranks");
  const std::uint64_t nvcis = f.u64("nvcis");
  out->netmod = f.str("netmod");
  out->phase_overflows = f.u64("phase_overflows");
  const std::vector<obs::json::Value>& phases = f.arr("phases");
  const std::vector<obs::json::Value>& ranks = f.arr("ranks");
  const std::vector<obs::json::Value>& matrix = f.arr("matrix");
  // The ranks array bounds nranks by the document's own size before any
  // nranks x nranks table is sized from it.
  if (f.ok() && (nranks < 1 || nranks != ranks.size())) f.bad("nranks", "the ranks[] count");
  if (f.ok() && nvcis < 1) f.bad("nvcis", "at least 1");
  if (f.ok() && phases.empty()) f.bad("phases", "non-empty");
  if (!f.ok()) return false;
  out->nranks = static_cast<int>(nranks);
  out->nvcis = nvcis;
  for (const obs::json::Value& ph : phases) {
    if (ph.kind != obs::json::Value::Kind::Str) {
      f.bad("phases", "an array of strings");
      return false;
    }
    out->phases.push_back(ph.str);
  }
  if (!detail::load_ranks(ranks, out, err)) return false;

  out->matrix_total.assign(nranks * nranks, 0);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    obs::json::Fields c(matrix[i], err);
    const std::uint64_t src = c.u64("src");
    const std::uint64_t dst = c.u64("dst");
    const std::string& cls = c.str("class");
    const std::uint64_t bytes = c.u64("bytes");
    c.u64("count");
    if (c.ok() && (src >= nranks || dst >= nranks)) c.bad("src/dst", "below nranks");
    if (c.ok() && cls != "eager" && cls != "rdv" && cls != "ctrl" && cls != "zcopy") {
      c.bad("class", "eager, rdv, ctrl or zcopy");
    }
    if (!c.ok()) {
      *err = "matrix[" + std::to_string(i) + "]: " + *err;
      return false;
    }
    std::vector<std::uint64_t>& per_class = out->matrix_by_class[cls];
    per_class.resize(nranks * nranks, 0);
    per_class[src * nranks + dst] += bytes;
    out->matrix_total[src * nranks + dst] += bytes;
    ++out->matrix_cells;
  }
  return true;
}

inline bool load_profile(const std::string& path, Profile* out, std::string* err) {
  std::string text;
  if (!obs::json::read_file(path, &text)) {
    *err = "cannot open " + path;
    return false;
  }
  if (!parse_profile(text, out, err)) {
    *err = path + ": " + *err;
    return false;
  }
  return true;
}

}  // namespace lwmpi::tools
