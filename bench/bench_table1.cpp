// Reproduces Table 1: "Instruction analysis for MPI calls" -- the category
// breakdown of MPI_ISEND and MPI_PUT on the default MPICH/CH4 build, measured
// by walking the real critical path with the cost meter armed (our substitute
// for the paper's Intel SDE traces).
//
// Every metered row is checked bit-for-bit against the closed-form
// decomposition (obs::AttributionRow::model_ok); a drifted charge site fails
// the run. The emitted BENCH_table1.json is fully deterministic (instruction
// counts only) and serves as a committed regression baseline
// (bench/baselines/BENCH_table1.json, compared by `lwmpi check`).
#include <cstdio>

#include "bench/harness.hpp"
#include "obs/table.hpp"

using namespace lwmpi;
using G = cost::Group;

namespace {

struct PaperRow {
  const char* reason;
  G group;
  unsigned paper_isend;
  unsigned paper_put;
};

constexpr PaperRow kRows[] = {
    {"Error checking", G::ErrorChecking, 74, 72},
    {"Thread-safety check", G::ThreadSafety, 6, 14},
    {"MPI function call", G::FunctionCall, 23, 25},
    {"Redundant runtime checks", G::RedundantChecks, 59, 62},
    {"MPI mandatory overheads", G::Mandatory, 59, 44},
};

}  // namespace

int main() {
  bench::print_header("Table 1: Instruction analysis for MPI calls (MPICH/CH4, default build)");

  const obs::AttributionRow isend =
      obs::attribution_row("isend", DeviceKind::Ch4, BuildConfig::dflt());
  const obs::AttributionRow put =
      obs::attribution_row("put", DeviceKind::Ch4, BuildConfig::dflt());

  std::printf("%-28s | %10s %10s | %10s %10s\n", "Reason", "ISEND", "(paper)", "PUT",
              "(paper)");
  std::printf("-----------------------------+-----------------------+----------------------\n");
  unsigned paper_isend_total = 0;
  unsigned paper_put_total = 0;
  for (const PaperRow& row : kRows) {
    std::printf("%-28s | %10llu %10u | %10llu %10u\n", row.reason,
                static_cast<unsigned long long>(isend.metered.group(row.group)),
                row.paper_isend,
                static_cast<unsigned long long>(put.metered.group(row.group)),
                row.paper_put);
    paper_isend_total += row.paper_isend;
    paper_put_total += row.paper_put;
  }
  std::printf("-----------------------------+-----------------------+----------------------\n");
  std::printf("%-28s | %10llu %10u | %10llu %10u\n", "Total",
              static_cast<unsigned long long>(isend.metered.total), paper_isend_total,
              static_cast<unsigned long long>(put.metered.total), paper_put_total);

  bench::print_header("Mandatory-overhead decomposition (Section 3 fine categories)");
  std::printf("%-26s %10s %10s\n", "category", "ISEND", "PUT");
  for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
    const auto cat = static_cast<cost::Category>(c);
    if (cost::group_of(cat) != cost::Group::Mandatory) continue;
    std::printf("%-26s %10llu %10llu\n", std::string(cost::to_string(cat)).c_str(),
                static_cast<unsigned long long>(isend.metered.category(cat)),
                static_cast<unsigned long long>(put.metered.category(cat)));
  }

  std::printf("\nmodel check: isend %s (modeled %u), put %s (modeled %u)\n",
              isend.model_ok ? "OK" : "MISMATCH", isend.modeled.total(),
              put.model_ok ? "OK" : "MISMATCH", put.modeled.total());

  bench::JsonResult jr("table1");
  jr.add("isend_total", static_cast<double>(isend.metered.total), "instr");
  jr.add("put_total", static_cast<double>(put.metered.total), "instr");
  for (const PaperRow& row : kRows) {
    const std::string key(cost::to_string(row.group));
    jr.add("isend_" + key, static_cast<double>(isend.metered.group(row.group)), "instr");
    jr.add("put_" + key, static_cast<double>(put.metered.group(row.group)), "instr");
  }
  jr.add("model_ok", isend.model_ok && put.model_ok ? 1 : 0, "count");
  const obs::AttributionRow rows[] = {isend, put};
  jr.add_raw("attribution", obs::table_report(rows, true));
  jr.write();

  return isend.model_ok && put.model_ok ? 0 : 1;
}
