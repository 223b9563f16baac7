// lwmpi: the command-line tool over lwmpi's artifacts, one subcommand per
// artifact (kSubs below). Each subcommand prints its own usage. Exit status:
// 0 ok, 1 failure, 2 usage.
#include <cstdio>
#include <string_view>

#include "tools/cli.hpp"

namespace {

struct Sub {
  const char* name;
  int (*run)(int, char**);
  const char* what;
};

constexpr Sub kSubs[] = {
    {"check", lwmpi::cli::check_main, "compare bench artifacts; check profile, replay"},
    {"critpath", lwmpi::cli::critpath_main, "critical path of a causal trace"},
    {"hang", lwmpi::cli::hang_main, "print a watchdog hang report"},
    {"prof", lwmpi::cli::prof_main, "render or diff profiler artifacts"},
    {"replay", lwmpi::cli::replay_main, "record and replay .lwtrace bundles"},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    for (const Sub& s : kSubs) {
      if (std::string_view(argv[1]) == s.name) return s.run(argc - 1, argv + 1);
    }
    std::fprintf(stderr, "lwmpi: unknown subcommand '%s'\n", argv[1]);
  }
  std::fprintf(stderr, "usage: lwmpi <subcommand> [args...]\n\nsubcommands:\n");
  for (const Sub& s : kSubs) std::fprintf(stderr, "  %-9s %s\n", s.name, s.what);
  return 2;
}
