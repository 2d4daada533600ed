// pamo_analyze CLI — read every C++ source under the given paths as one
// tree, run both rule families (per-file rules on each file, cross-file
// analyses over the whole tree), print findings, exit 1 when any
// unsuppressed finding remains and 2 on a usage error or an unreadable or
// missing input path.
//
// Usage: pamo_analyze [--format=text|json] [--include-suppressed]
//                     [--list-rules] <path>...
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"

namespace {

namespace fs = std::filesystem;

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

/// Expand the inputs into a sorted file list; false (after naming every
/// missing input) when any input is neither a file nor a directory, so a
/// typo in a gate's path fails the gate instead of passing it vacuously.
bool collect(const std::vector<std::string>& inputs,
             std::vector<std::string>& files) {
  bool ok = true;
  for (const auto& input : inputs) {
    const fs::path p(input);
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && analyzable(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p.generic_string());
    } else {
      std::cerr << "pamo_analyze: no such file or directory: " << input
                << '\n';
      ok = false;
    }
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  pamo::analyze::Options options;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::cerr << "pamo_analyze: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--include-suppressed") {
      options.include_suppressed = true;
    } else if (arg == "--list-rules") {
      for (const auto& id : pamo::analyze::rule_ids()) std::cout << id << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pamo_analyze [--format=text|json] "
                   "[--include-suppressed] [--list-rules] <path>...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "pamo_analyze: unknown option '" << arg << "'\n";
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "pamo_analyze: no inputs (try --help)\n";
    return 2;
  }

  std::vector<std::string> files;
  if (!collect(inputs, files)) return 2;
  std::vector<pamo::analyze::SourceFile> sources;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "pamo_analyze: cannot read " << file << '\n';
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    sources.push_back(pamo::analyze::SourceFile{file, content.str()});
  }

  const auto all = pamo::analyze::analyze_tree(sources, options);
  if (format == "json") {
    std::cout << pamo::analyze::to_json(all) << '\n';
  } else {
    std::cout << pamo::analyze::to_text(all);
  }
  const auto unsuppressed = std::count_if(
      all.begin(), all.end(),
      [](const pamo::analyze::Finding& f) { return !f.suppressed; });
  if (format == "text") {
    std::cout << unsuppressed << " finding(s)\n";
  }
  return unsuppressed == 0 ? 0 : 1;
}
