// The per-file rule family of pamo_analyze: regex + light-parsing rules that
// look at one translation unit at a time (see analyze.hpp for the rule list).
// Internal to pamo_analyze_core — callers go through analyze_tree, which runs
// this family on every file and applies the shared suppression comments.
#pragma once

#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"

namespace pamo::analyze {

/// Run every per-file rule over one file. `path` decides which rules apply
/// (header rules, src/-only rules, scheduling-path rules); `code` is the
/// file's strip_source code channel. Findings come back unsuppressed, in
/// rule order.
std::vector<Finding> file_rule_findings(const std::string& path,
                                        const std::string& code);

}  // namespace pamo::analyze
