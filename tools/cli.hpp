// The `lwmpi` tool's subcommands and the one argument reader they share.
//
// Each subcommand is `int <name>_main(int argc, char** argv)` with argv[0]
// its own name. Exit status everywhere: 0 ok, 1 failure, 2 usage.
#pragma once

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lwmpi::cli {

int check_main(int argc, char** argv);
int critpath_main(int argc, char** argv);
int hang_main(int argc, char** argv);
int prof_main(int argc, char** argv);
int replay_main(int argc, char** argv);

// One subcommand's command line: `flags` are switches without a value,
// `options` switches that take the next argument, and anything not starting
// with '-' is a positional. An undeclared switch or an option missing its
// value is reported on stderr and clears ok.
struct Args {
  using Names = std::initializer_list<std::string_view>;
  Args(int argc, char** argv, Names flags, Names options) {
    const auto in = [](Names names, std::string_view a) {
      return std::find(names.begin(), names.end(), a) != names.end();
    };
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.size() < 2 || a[0] != '-') {
        positional.push_back(a);
      } else if (in(flags, a) || (in(options, a) && i + 1 < argc)) {
        set[a] = in(flags, a) ? "" : argv[++i];
      } else {
        std::fprintf(stderr, "lwmpi %s: %s %s\n", argv[0], a.c_str(),
                     in(options, a) ? "needs a value" : "is not an option here");
        ok = false;
      }
    }
  }
  bool has(const std::string& s) const { return set.count(s) != 0; }
  // The option's value, or `dflt` when it was not given.
  std::string get(const std::string& opt, std::string dflt = {}) const {
    const auto it = set.find(opt);
    return it == set.end() ? dflt : it->second;
  }

  bool ok = true;
  std::map<std::string, std::string> set;
  std::vector<std::string> positional;
};

// Print a subcommand's usage lines to stderr; returns the usage status, 2.
inline int usage(const char* text) {
  std::fputs(text, stderr);
  return 2;
}

}  // namespace lwmpi::cli
