// lwmpi hang: print lwmpi watchdog hang reports.
//
// The watchdog (src/obs/watchdog.hpp) diagnoses progress stalls and, when
// given a report_path, writes the diagnosis as JSON. This subcommand prints
// that file through the same renderer a live report uses
// (obs::render_hang_text) for postmortem reading -- the MPIR
// message-queue-dump workflow, minus the debugger:
//
//   lwmpi hang report.json   print a saved hang report
//   lwmpi hang --demo        force a live 2-rank deadlock and print its
//                            diagnosis; exits 1 unless it names rank 1 and
//                            tag=42
//
// The report is read with the strict obs/json.hpp parser: a file that is not
// exactly one complete, well-formed JSON line (say, one the watchdog was
// still writing when the hung job was killed) is rejected, not guessed at.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/text.hpp"
#include "obs/watchdog.hpp"
#include "runtime/world.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

int run_demo() {
  std::printf("forcing a 2-rank tag-mismatch deadlock (rank 0 sends tag 7, rank 1 waits"
              " on tag 42)...\n\n");
  WorldOptions o;
  o.profile = net::loopback();
  o.ranks_per_node = 2;
  o.record = true;  // the diagnosis embeds the stuck rank's last moves
  World w(2, o);
  obs::WatchdogOptions wo;
  wo.stall_ns = 200'000'000;
  wo.poll_ns = 20'000'000;
  obs::Watchdog wd(w, wo);
  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      // The mistake under diagnosis: wrong tag, so rank 1 never matches.
      e.send(&b, 1, kChar, 1, 7, kCommWorld);
      while (wd.fires() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      // Rescue send so the demo terminates once diagnosed.
      e.send(&b, 1, kChar, 1, 42, kCommWorld);
    } else {
      e.recv(&b, 1, kChar, 0, 42, kCommWorld, nullptr);
    }
  });
  const std::string text = obs::render_text(wd.last_report());
  std::fputs(text.c_str(), stdout);
  const std::size_t stuck = text.find("rank 1 stuck in");
  if (stuck == std::string::npos || text.find("tag=42", stuck) == std::string::npos) {
    std::fprintf(stderr, "lwmpi hang: demo failed (the diagnosis does not name rank 1"
                         " waiting on tag=42)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int hang_main(int argc, char** argv) {
  const Args args(argc, argv, {"--demo"}, {});
  if (args.ok && args.has("--demo")) return run_demo();
  if (!args.ok || args.positional.size() != 1) {
    return usage("usage: lwmpi hang <report.json> | lwmpi hang --demo\n");
  }
  const std::string& path = args.positional[0];
  std::string file;
  if (!obs::json::read_file(path, &file)) {
    std::fprintf(stderr, "lwmpi hang: cannot open %s\n", path.c_str());
    return 1;
  }
  obs::json::Value root;
  std::string err;
  if (!obs::json::parse_one_line(file, &root, &err)) {
    std::fprintf(stderr, "lwmpi hang: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  std::string text;
  if (!obs::render_hang_text(root, &text)) {
    std::fprintf(stderr, "lwmpi hang: %s: not a watchdog report (missing stuck/nranks)\n",
                 path.c_str());
    return 1;
  }
  std::fputs(text.c_str(), stdout);
  return 0;
}

}  // namespace lwmpi::cli
