// Text renderers over the observability artifacts' JSON forms, and the unit
// formatters they share with the `lwmpi` tool.
//
// Each artifact has one text form, produced from its JSON: a live object
// renders its own render_json through these functions, and `lwmpi hang`
// renders a saved file through them, so both print the same lines. (The
// profile's renderer lives beside its reader in obs/profile_load.hpp.)
#pragma once

#include <string>

#include "obs/json.hpp"

namespace lwmpi::obs {

// Unit formatters, auto-scaled: "850ns" "12.5us" "250.1ms" "1.25s";
// "512B" "1.5KiB" "2.0MiB" "1.1GiB".
std::string fmt_ns(double ns);
std::string fmt_bytes(double bytes);

// One rank snapshot: the render_json(RankSnapshot) object.
std::string render_snapshot_text(const json::Value& snapshot);

// A hang report: render_json(HangReport), or the file a watchdog wrote.
// Returns false, leaving *out empty, when `report` has no stuck array or
// nranks.
bool render_hang_text(const json::Value& report, std::string* out);

}  // namespace lwmpi::obs
