// Tests for the pamo_analyze engine — both rule families — and the shared
// tokenizer it is built on. Fixtures are in-memory SourceFile trees handed
// to analyze_tree (a one-file tree for the per-file rules, with paths that
// exercise the path-scoping logic); every rule has a positive (fires) and a
// negative (stays quiet) fixture. The tokenizer tests pin the
// geometry-preservation property every downstream line number depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"
#include "pamo_analyze/tokenizer.hpp"

namespace pamo::analyze {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

/// The findings of one rule, for fixtures that also trip a rule of the
/// other family (a fixture header without #pragma once, say).
std::vector<Finding> only(const std::vector<Finding>& findings,
                          const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

std::vector<std::string> rules_hit(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

/// A one-file tree: how the per-file fixtures run through the single API.
std::vector<Finding> analyze_file(const std::string& path,
                                  const std::string& content,
                                  const Options& options = {}) {
  return analyze_tree({{path, content}}, options);
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---- tokenizer: stripping -------------------------------------------------

TEST(AnalyzeTokenizer, StripPreservesGeometryExactly) {
  const std::string source =
      "int a = 1; // trailing comment\n"
      "/* block\n"
      "   spanning */ int b = 2;\n"
      "const char* s = \"str with // not a comment\";\n"
      "const char* r = R\"(raw \" with /* markers */)\";\n"
      "char c = '\\n';\n";
  const StripResult sr = strip_source(source);
  // Both channels are byte-for-byte the same length as the input, with
  // newlines at identical offsets: every token line number is exact.
  ASSERT_EQ(sr.code.size(), source.size());
  ASSERT_EQ(sr.comments.size(), source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    EXPECT_EQ(source[i] == '\n', sr.code[i] == '\n') << "offset " << i;
    EXPECT_EQ(source[i] == '\n', sr.comments[i] == '\n') << "offset " << i;
  }
}

TEST(AnalyzeTokenizer, StripSeparatesCommentAndCodeChannels) {
  const std::string source = "int x; // keep me\nint y = 0;\n";
  const StripResult sr = strip_source(source);
  EXPECT_NE(sr.comments.find("keep me"), std::string::npos);
  EXPECT_EQ(sr.code.find("keep me"), std::string::npos);
  EXPECT_NE(sr.code.find("int y"), std::string::npos);
  EXPECT_EQ(sr.comments.find("int y"), std::string::npos);
}

TEST(AnalyzeTokenizer, CommentMarkersInsideStringsStayStrings) {
  // "/*" inside a literal must not open a comment, or the rest of the
  // file would be swallowed.
  const std::string source =
      "const char* a = \"/* not a comment\";\n"
      "int alive = 1;\n";
  const StripResult sr = strip_source(source);
  EXPECT_NE(sr.code.find("alive"), std::string::npos);
  EXPECT_EQ(sr.comments.find("not a comment"), std::string::npos);
}

TEST(AnalyzeTokenizer, DigraphsAndDelimitersInsideStringsAreInert) {
  const std::string source =
      "const char* d = \"<% %> { } ( )\";\n"
      "int z = 0;\n";
  const auto tokens = tokenize(source);
  // The literal is ONE string token; none of its braces leak as punct.
  std::size_t braces = 0;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kPunct && (t.text == "{" || t.text == "}")) {
      ++braces;
    }
  }
  EXPECT_EQ(braces, 0u);
}

TEST(AnalyzeTokenizer, LineContinuationExtendsLineComment) {
  // The backslash splices the next physical line into the comment: `int
  // hidden` is commentary, not code.
  const std::string source =
      "int a; // comment \\\n"
      "int hidden = 1;\n"
      "int visible = 2;\n";
  const StripResult sr = strip_source(source);
  EXPECT_EQ(sr.code.find("hidden"), std::string::npos);
  EXPECT_NE(sr.code.find("visible"), std::string::npos);
  // Geometry still holds: 'visible' tokenizes on line 3.
  for (const auto& t : tokenize(source)) {
    if (t.text == "visible") {
      EXPECT_EQ(t.line, 3u);
    }
  }
}

// ---- tokenizer: token stream ----------------------------------------------

TEST(AnalyzeTokenizer, RawStringBodyAndLineNumbersSurvive) {
  const std::string source =
      "const char* r = R\"delim(line one\n"
      "line two)delim\";\n"
      "int after = 3;\n";
  const auto tokens = tokenize(source);
  bool saw_string = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_NE(t.text.find("line one"), std::string::npos);
      EXPECT_NE(t.text.find("line two"), std::string::npos);
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3u);
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(AnalyzeTokenizer, StringBodiesRecoveredWithEscapes) {
  const std::string source = "const char* s = \"a\\\"b\";\nint next = 1;\n";
  const auto tokens = tokenize(source);
  bool found = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kString) {
      found = true;
      EXPECT_EQ(t.text, "a\\\"b");  // raw bytes, escape intact
    }
    if (t.text == "next") {
      EXPECT_EQ(t.line, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto tokens = tokenize("int big = 1'000'000; int after = 2;\n");
  bool saw_number = false;
  bool saw_after = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kNumber && t.text == "1'000'000") {
      saw_number = true;
    }
    if (t.text == "after") saw_after = true;
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_after);
}

TEST(AnalyzeTokenizer, PreprocessorDirectivesEmitNoTokens) {
  // An unbalanced brace in a macro body must not corrupt scope tracking.
  const std::string source =
      "#define OPEN {\n"
      "#define MULTI(x) \\\n"
      "  do { (x); } while (0)\n"
      "int real = 1;\n";
  const auto tokens = tokenize(source);
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "OPEN");
    EXPECT_NE(t.text, "MULTI");
  }
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 4u);
}

TEST(AnalyzeTokenizer, CompoundOperatorsAreSingleTokens) {
  const auto tokens = tokenize("a += b; c <<= d; e == f; g->h; i::j;\n");
  std::vector<std::string> punct;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kPunct) punct.push_back(t.text);
  }
  EXPECT_NE(std::find(punct.begin(), punct.end(), "+="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<<="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "=="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "->"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "::"), punct.end());
  // No bare '=' was minted from the compound forms.
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "="), 0);
}

TEST(AnalyzeTokenizer, IncludeFormsParsed) {
  const std::string source =
      "#include <vector>\n"
      "#include \"gp/kernel.hpp\"\n"
      "#include MACRO_HEADER\n"
      "// #include \"commented/out.hpp\"\n"
      "const char* fake = \"#include \\\"literal.hpp\\\"\";\n";
  const auto incs = parse_includes(source);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_EQ(incs[0].target, "vector");
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[1].target, "gp/kernel.hpp");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].line, 2u);
  EXPECT_TRUE(incs[2].computed);
  EXPECT_EQ(incs[2].target, "MACRO_HEADER");
}

// ---- index ----------------------------------------------------------------

TEST(AnalyzeIndex, MembersAndFunctionsIndexed) {
  const std::string source =
      "namespace pamo {\n"
      "class Widget {\n"
      " public:\n"
      "  void poke();\n"
      "  int size() const { return count_; }\n"
      " private:\n"
      "  int count_ = 0;\n"
      "  std::vector<double> data_;\n"
      "};\n"
      "void Widget::poke() { ++count_; }\n"
      "namespace { void helper() { } }\n"
      "}\n";
  const FileIndex fi = index_file("src/core/widget.cpp", source);
  ASSERT_EQ(fi.types.size(), 1u);
  const TypeDecl& w = fi.types[0];
  EXPECT_EQ(w.name, "Widget");
  ASSERT_EQ(w.members.size(), 2u);
  EXPECT_EQ(w.members[0].name, "count_");
  EXPECT_EQ(w.members[0].line, 7u);
  EXPECT_EQ(w.members[1].name, "data_");
  EXPECT_NE(std::find(w.public_methods.begin(), w.public_methods.end(),
                      "poke"),
            w.public_methods.end());
  bool saw_poke_def = false;
  bool helper_internal = false;
  for (const auto& fd : fi.functions) {
    if (fd.name == "poke" && fd.qualifier == "Widget") saw_poke_def = true;
    if (fd.name == "helper") helper_internal = fd.internal;
  }
  EXPECT_TRUE(saw_poke_def);
  EXPECT_TRUE(helper_internal);
}

TEST(AnalyzeIndex, DirectivesParsedFromCommentsOnly) {
  const std::string source =
      "// pamo-analyze: allow(layer-dag)\n"
      "// pamo-analyze: snapshot(Widget, Gadget)\n"
      "const char* s = \"pamo-analyze: allow(contract-coverage)\";\n";
  const FileIndex fi = index_file("src/core/d.cpp", source);
  ASSERT_EQ(fi.allows.count(1), 1u);
  EXPECT_EQ(fi.allows.at(1), std::vector<std::string>{"layer-dag"});
  ASSERT_EQ(fi.snapshot_annotations.count(2), 1u);
  EXPECT_EQ(fi.snapshot_annotations.at(2),
            (std::vector<std::string>{"Widget", "Gadget"}));
  // The directive inside the string literal is inert.
  EXPECT_EQ(fi.allows.count(3), 0u);
}

// ==== per-file family (suite PamoLint) =====================================

TEST(PamoLint, RuleListIsStableAndComplete) {
  const auto& ids = rule_ids();
  ASSERT_EQ(ids.size(), 17u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "determinism-rng"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "float-eq"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "pragma-once"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "raw-thread"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "wall-clock"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "unchecked-file-write"),
            ids.end());
  // Appended per-file rules land at the end of their family: the report
  // order is a stable API.
  EXPECT_EQ(ids[12], "governor-action");
}

// ---- determinism-rng ------------------------------------------------------

TEST(PamoLint, FlagsStdRandAndRandomDevice) {
  const std::string source =
      "#include <cstdlib>\n"
      "int f() { return std::rand(); }\n"
      "int g() { std::random_device rd; return int(rd()); }\n"
      "int h() { std::mt19937 gen(7); return int(gen()); }\n";
  const auto rules = rules_hit(analyze_file("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "determinism-rng"), 3);
}

TEST(PamoLint, PamoRngIsNotFlagged) {
  const std::string source =
      "#include \"common/rng.hpp\"\n"
      "double f(pamo::Rng& rng) { return rng.uniform(); }\n"
      "pamo::Rng forked(const pamo::Rng& rng) { return rng.fork(3); }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/eva/fixture.cpp", source),
                        "determinism-rng"));
}

TEST(PamoLint, CommentsAndStringsDoNotTriggerRules) {
  const std::string source =
      "// std::rand() is banned here\n"
      "/* so is std::random_device */\n"
      "const char* kDoc = \"call std::rand()\";\n";
  EXPECT_TRUE(analyze_file("src/eva/fixture.cpp", source).empty());
}

// ---- time-seeded-rng ------------------------------------------------------

TEST(PamoLint, FlagsClockSeededRng) {
  const std::string source =
      "#include <chrono>\n"
      "pamo::Rng make() {\n"
      "  auto seed = std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n"
      "  return pamo::Rng(uint64_t(seed));\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_file("src/eva/fixture.cpp", source),
                       "time-seeded-rng"));
}

TEST(PamoLint, PlainClockUseIsNotASeed) {
  // bo::EpochWatchdog legitimately reads steady_clock for its wall-clock
  // deadline — no RNG involved, so the rule must stay quiet.
  const std::string source =
      "void arm() { start_ = std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(analyze_file("src/bo/fixture.cpp", source).empty());
}

// ---- unordered-iter -------------------------------------------------------

TEST(PamoLint, FlagsRangeForOverUnorderedInSchedulingPath) {
  const std::string source =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> weights_;\n"
      "double total() {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  const auto findings = analyze_file("src/sched/fixture.cpp", source);
  EXPECT_TRUE(has_rule(findings, "unordered-iter"));
}

TEST(PamoLint, UnorderedIterationOutsideSchedulingPathIsAllowed) {
  const std::string source =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> weights_;\n"
      "double total() {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_file("src/eva/fixture.cpp", source),
                        "unordered-iter"));
}

TEST(PamoLint, OrderedIterationIsAllowedInSchedulingPath) {
  const std::string source =
      "#include <map>\n"
      "std::map<int, double> weights_;\n"
      "std::unordered_map<int, double> index_;\n"
      "double total() {\n"
      "  double sum = index_.count(0) ? 1.0 : 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_file("src/sched/fixture.cpp", source),
                        "unordered-iter"));
}

// ---- throw-discipline -----------------------------------------------------

TEST(PamoLint, FlagsForeignExceptionTypesInSrc) {
  const std::string source =
      "#include <stdexcept>\n"
      "void f() { throw std::runtime_error(\"boom\"); }\n";
  EXPECT_TRUE(has_rule(analyze_file("src/gp/fixture.cpp", source),
                       "throw-discipline"));
}

TEST(PamoLint, PamoErrorAndBareRethrowAreAllowed) {
  const std::string source =
      "void f() { throw pamo::Error(\"boom\"); }\n"
      "void g() { throw Error(\"boom\"); }\n"
      "void h() { try { f(); } catch (const Error&) { throw; } }\n"
      "void k(std::exception_ptr p) { std::rethrow_exception(p); }\n";
  EXPECT_TRUE(analyze_file("src/gp/fixture.cpp", source).empty());
}

TEST(PamoLint, ThrowDisciplineDoesNotApplyToTests) {
  const std::string source =
      "void f() { throw std::runtime_error(\"test-only\"); }\n";
  EXPECT_TRUE(analyze_file("tests/gp/fixture.cpp", source).empty());
}

// ---- catch-all-swallow ----------------------------------------------------

TEST(PamoLint, FlagsSwallowingCatchAll) {
  const std::string source =
      "int f() {\n"
      "  try { return g(); } catch (...) {\n"
      "    return -1;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_file("src/core/fixture.cpp", source),
                       "catch-all-swallow"));
}

TEST(PamoLint, CatchAllThatCapturesOrRethrowsIsAllowed) {
  const std::string source =
      "void f() {\n"
      "  try { g(); } catch (...) { error = std::current_exception(); }\n"
      "  try { g(); } catch (...) { cleanup(); throw; }\n"
      "}\n";
  EXPECT_TRUE(analyze_file("src/core/fixture.cpp", source).empty());
}

// ---- float-eq -------------------------------------------------------------

TEST(PamoLint, FlagsFloatLiteralComparisons) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }\n"
      "bool g(double x) { return 1.5f != x; }\n"
      "bool h(double x) { return x == 1e-6; }\n";
  const auto rules = rules_hit(analyze_file("src/la/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "float-eq"), 3);
}

TEST(PamoLint, IntegerComparisonsAndInequalitiesAreAllowed) {
  const std::string source =
      "bool f(int x) { return x == 2; }\n"
      "bool g(double x) { return x <= 0.5; }\n"
      "bool h(double x) { return x >= 1.0 && x < 2.0; }\n"
      "bool k(std::size_t n) { return n != 10; }\n";
  EXPECT_TRUE(analyze_file("src/la/fixture.cpp", source).empty());
}

// ---- unchecked-front-back -------------------------------------------------

TEST(PamoLint, FlagsUncheckedFrontInSchedulingPath) {
  const std::string source =
      "double f(const std::vector<double>& v) {\n"
      "  return v.front();\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_file("src/sim/fixture.cpp", source),
                       "unchecked-front-back"));
}

TEST(PamoLint, GuardedFrontBackIsAllowed) {
  const std::string source =
      "double f(const std::vector<double>& v) {\n"
      "  if (v.empty()) return 0.0;\n"
      "  return v.front() + v.back();\n"
      "}\n"
      "double g(std::vector<double>& v) {\n"
      "  v.push_back(1.0);\n"
      "  return v.back();\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_file("src/sim/fixture.cpp", source),
                        "unchecked-front-back"));
}

// ---- header hygiene -------------------------------------------------------

TEST(PamoLint, FlagsHeaderWithoutPragmaOnce) {
  const auto findings = analyze_file("src/eva/fixture.hpp", "int x = 0;\n");
  ASSERT_TRUE(has_rule(findings, "pragma-once"));
  EXPECT_EQ(findings.front().line, 1u);
}

TEST(PamoLint, FlagsUsingNamespaceInHeader) {
  const std::string source =
      "#pragma once\n"
      "using namespace std;\n";
  EXPECT_TRUE(has_rule(analyze_file("src/eva/fixture.hpp", source),
                       "using-namespace-header"));
}

TEST(PamoLint, HeaderRulesDoNotApplyToCpp) {
  const std::string source = "using namespace std;\n";
  EXPECT_TRUE(analyze_file("src/eva/fixture.cpp", source).empty());
}

// ---- raw-thread -----------------------------------------------------------

TEST(PamoLint, FlagsDirectThreadConstructionInSrc) {
  const std::string source =
      "#include <thread>\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n"
      "void spawn2() { std::jthread t([] {}); }\n";
  const auto rules = rules_hit(analyze_file("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "raw-thread"), 2);
}

TEST(PamoLint, ThreadPoolImplementationMayOwnThreads) {
  const std::string source =
      "#include <thread>\n"
      "std::vector<std::thread> workers_;\n";
  EXPECT_FALSE(has_rule(analyze_file("src/common/thread_pool.cpp", source),
                        "raw-thread"));
  EXPECT_FALSE(has_rule(analyze_file("src/common/thread_pool.hpp", source),
                        "raw-thread"));
}

TEST(PamoLint, StaticThreadQueriesAreNotFlagged) {
  const std::string source =
      "#include <thread>\n"
      "unsigned n() { return std::thread::hardware_concurrency(); }\n"
      "auto id() { return std::this_thread::get_id(); }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/eva/fixture.cpp", source),
                        "raw-thread"));
}

TEST(PamoLint, RawThreadOutsideSrcIsAllowed) {
  const std::string source =
      "#include <thread>\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n";
  EXPECT_FALSE(has_rule(analyze_file("tests/common/fixture.cpp", source),
                        "raw-thread"));
}

// ---- wall-clock -----------------------------------------------------------

TEST(PamoLint, FlagsWallClockReadsInSrc) {
  const std::string source =
      "#include <chrono>\n"
      "auto a() { return std::chrono::system_clock::now(); }\n"
      "long b() { return time(nullptr); }\n"
      "void c(timeval* tv) { gettimeofday(tv, nullptr); }\n"
      "tm* d(const time_t* t) { return localtime(t); }\n"
      "void e(timespec* ts) { clock_gettime(CLOCK_REALTIME, ts); }\n";
  const auto rules = rules_hit(analyze_file("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "wall-clock"), 5);
}

TEST(PamoLint, MonotonicClocksAndTimeLikeNamesAreAllowed) {
  const std::string source =
      "#include <chrono>\n"
      "auto a() { return std::chrono::steady_clock::now(); }\n"
      "double b(double x) { return proc_time(x) + elapsed_time(x); }\n"
      "double c(const Frame& f) { return f.start_time; }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/sim/fixture.cpp", source),
                        "wall-clock"));
}

TEST(PamoLint, ObsAndTicksMayReadWallClock) {
  const std::string source =
      "#include <chrono>\n"
      "auto stamp() { return std::chrono::system_clock::now(); }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/obs/obs.cpp", source),
                        "wall-clock"));
  EXPECT_FALSE(has_rule(analyze_file("src/common/ticks.cpp", source),
                        "wall-clock"));
  EXPECT_FALSE(has_rule(analyze_file("tests/common/fixture.cpp", source),
                        "wall-clock"));
}

// ---- unchecked-file-write -------------------------------------------------

TEST(PamoLint, FlagsStreamWritersInLibraryCode) {
  const std::string source =
      "#include <fstream>\n"
      "void a(const std::string& p) { std::ofstream out(p); out << 1; }\n"
      "void b(const std::string& p) { std::fstream f(p); }\n"
      "void c(const char* p) { FILE* f = fopen(p, \"w\"); (void)f; }\n";
  const auto rules = rules_hit(analyze_file("src/core/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "unchecked-file-write"), 3);
}

TEST(PamoLint, ReadsAndNonLibraryWritersAreAllowed) {
  const std::string source =
      "#include <fstream>\n"
      "std::string a(const std::string& p) { std::ifstream in(p); return {}; }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/core/fixture.cpp", source),
                        "unchecked-file-write"));
  const std::string writer =
      "#include <fstream>\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_FALSE(has_rule(analyze_file("tools/fixture.cpp", writer),
                        "unchecked-file-write"));
  EXPECT_FALSE(has_rule(analyze_file("bench/fixture.cpp", writer),
                        "unchecked-file-write"));
}

TEST(PamoLint, AtomicIoIsTheSanctionedWriter) {
  const std::string source =
      "#include <fstream>\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/ckpt/atomic_io.cpp", source),
                        "unchecked-file-write"));
}

TEST(PamoLint, UncheckedFileWriteIsSuppressible) {
  const std::string source =
      "#include <fstream>\n"
      "// pamo-analyze: allow(unchecked-file-write)\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_TRUE(analyze_file("src/core/fixture.cpp", source).empty());
}

// ---- governor-action ------------------------------------------------------

TEST(PamoLint, FlagsUnloggedAdmittedSetMutationInCore) {
  const std::string source =
      "void Governor::force_admit(std::uint64_t id) {\n"
      "  admitted_.push_back(id);\n"
      "}\n"
      "void Governor::swap_in(std::vector<std::uint64_t> next) {\n"
      "  admitted_ = std::move(next);\n"
      "}\n";
  const auto rules = rules_hit(analyze_file("src/core/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "governor-action"), 2);
}

TEST(PamoLint, LoggedAdmittedSetMutationIsAllowed) {
  const std::string source =
      "void Governor::admit(GovernorPlan& plan, std::uint64_t id) {\n"
      "  record_action(plan, epoch_, id, GovernorDecision::kAdmit, \"ok\");\n"
      "  admitted_.push_back(id);\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_file("src/core/fixture.cpp", source),
                        "governor-action"));
}

TEST(PamoLint, AdmittedReadsAndLookalikeNamesAreNotMutations) {
  const std::string source =
      "bool Governor::incumbent(std::uint64_t id) const {\n"
      "  return std::binary_search(admitted_.begin(), admitted_.end(), id);\n"
      "}\n"
      "void Governor::finish(GovernorPlan& plan) {\n"
      "  plan.admitted_count = admitted_.size();\n"
      "  plan.admitted_load = load_sum_;\n"
      "  next_admitted.push_back(7);\n"
      "}\n";
  EXPECT_TRUE(analyze_file("src/core/fixture.cpp", source).empty());
}

TEST(PamoLint, GovernorActionDoesNotApplyOutsideCore) {
  const std::string source =
      "void Fixture::reset() { admitted_.clear(); }\n";
  EXPECT_FALSE(has_rule(analyze_file("src/eva/fixture.cpp", source),
                        "governor-action"));
  EXPECT_FALSE(has_rule(analyze_file("tests/core/fixture.cpp", source),
                        "governor-action"));
}

TEST(PamoLint, GovernorActionIsSuppressibleForStateRebuild) {
  const std::string source =
      "void Governor::restore() {\n"
      "  admitted_.clear();  // pamo-analyze: allow(governor-action)\n"
      "}\n";
  EXPECT_TRUE(analyze_file("src/core/fixture.cpp", source).empty());
}

// ---- suppressions ---------------------------------------------------------

TEST(PamoLint, SameLineSuppressionSilencesFinding) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq)\n";
  EXPECT_TRUE(analyze_file("src/la/fixture.cpp", source).empty());
}

TEST(PamoLint, PreviousLineSuppressionSilencesFinding) {
  const std::string source =
      "// pamo-analyze: allow(float-eq)\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(analyze_file("src/la/fixture.cpp", source).empty());
}

TEST(PamoLint, SuppressionIsRuleSpecific) {
  const std::string source =
      "// pamo-analyze: allow(determinism-rng)\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(has_rule(analyze_file("src/la/fixture.cpp", source), "float-eq"));
}

TEST(PamoLint, IncludeSuppressedKeepsAndMarksFinding) {
  Options options;
  options.include_suppressed = true;
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq)\n";
  const auto findings = analyze_file("src/la/fixture.cpp", source, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings.front().suppressed);
}

TEST(PamoLint, SuppressionInsideStringLiteralIsInert) {
  // The allow directive lives in a string literal, not a comment; it must
  // not silence the float-eq on the next line (it used to, when
  // suppressions were scanned over raw source text).
  const std::string source =
      "const char* doc = \"pamo-analyze: allow(float-eq)\";\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(has_rule(analyze_file("src/la/fixture.cpp", source), "float-eq"));
}

TEST(PamoLint, MultiRuleSuppressionList) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq, determinism-rng)\n";
  EXPECT_TRUE(analyze_file("src/la/fixture.cpp", source).empty());
}

// ---- report formats -------------------------------------------------------

TEST(PamoLint, TextReportCarriesLocationAndRule) {
  const auto findings = analyze_file("src/la/fixture.cpp",
                                     "bool f(double x) { return x == 0.0; }\n");
  const std::string text = to_text(findings);
  EXPECT_NE(text.find("src/la/fixture.cpp:1"), std::string::npos);
  EXPECT_NE(text.find("[float-eq]"), std::string::npos);
}

TEST(PamoLint, JsonReportIsMachineReadable) {
  const auto findings = analyze_file("src/la/fixture.cpp",
                                     "bool f(double x) { return x == 0.0; }\n");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"float-eq\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_EQ(to_json({}).find("{\"findings\":[],\"count\":0}"), 0u);
}

// ---- stripping ------------------------------------------------------------

TEST(PamoLint, StripPreservesGeometryAndBlanksLiterals) {
  const std::string source =
      "int a = 1; // std::rand\n"
      "const char* s = \"x == 0.0\";\n";
  const std::string stripped = strip_source(source).code;
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("std::rand"), std::string::npos);
  EXPECT_EQ(stripped.find("=="), std::string::npos);
  EXPECT_NE(stripped.find("int a = 1;"), std::string::npos);
}

TEST(PamoLint, StripHandlesRawStrings) {
  const std::string source =
      "const char* s = R\"(std::random_device inside)\";\n"
      "int after = 2;\n";
  const std::string stripped = strip_source(source).code;
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 2;"), std::string::npos);
}

TEST(PamoLint, SchedulingPathPredicate) {
  EXPECT_TRUE(is_scheduling_path("src/sched/scheduler.cpp"));
  EXPECT_TRUE(is_scheduling_path("/root/repo/src/bo/candidates.cpp"));
  EXPECT_TRUE(is_scheduling_path("src/sim/fault.hpp"));
  EXPECT_TRUE(is_scheduling_path("src/core/service.cpp"));
  EXPECT_FALSE(is_scheduling_path("src/eva/profiler.cpp"));
  EXPECT_FALSE(is_scheduling_path("tests/sched/test_scheduler.cpp"));
}

// ==== tree family ==========================================================

// ---- snapshot-coverage ----------------------------------------------------

const char* const kSnapshotHeader =
    "struct Counter {\n"
    "  double kept_ = 0.0;\n"
    "  double dropped_ = 0.0;\n"
    "};\n";

TEST(AnalyzeSnapshot, OmittedMemberIsCaught) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto findings = only(
      analyze_tree({{"src/eva/counter.hpp", kSnapshotHeader},
                    {"src/eva/codec.cpp", codec}}),
      "snapshot-coverage");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/eva/counter.hpp");
  EXPECT_EQ(findings[0].line, 3u);  // dropped_'s declaration line
  EXPECT_NE(findings[0].message.find("dropped_"), std::string::npos);
}

TEST(AnalyzeSnapshot, CompletePairIsQuiet) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(findings, "snapshot-coverage"));
}

TEST(AnalyzeSnapshot, KeyAsymmetryCaughtBothWays) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  obj.set(\"orphan\", Value(1.0));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  double ghost = v.at(\"missing\").as_double();\n"
      "  (void)ghost;\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  ASSERT_EQ(count_rule(findings, "snapshot-coverage"), 2u);
  bool orphan = false;
  bool missing = false;
  for (const auto& f : findings) {
    if (f.message.find("\"orphan\"") != std::string::npos) orphan = true;
    if (f.message.find("\"missing\"") != std::string::npos) missing = true;
  }
  EXPECT_TRUE(orphan);
  EXPECT_TRUE(missing);
}

TEST(AnalyzeSnapshot, FindReadsAreOptionalNotAsymmetric) {
  // Backward-compatible keys read via find() need no matching write.
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  if (const Value* lenient = v.find(\"added_in_v2\")) {\n"
      "    c.kept_ += lenient->as_double();\n"
      "  }\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(findings, "snapshot-coverage"));
}

TEST(AnalyzeSnapshot, MemberAllowSuppressesAtDeclaration) {
  const std::string header =
      "struct Counter {\n"
      "  double kept_ = 0.0;\n"
      "  // scratch, rebuilt on demand. pamo-analyze: allow(snapshot-coverage)\n"
      "  double dropped_ = 0.0;\n"
      "};\n";
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto quiet = analyze_tree(
      {{"src/eva/counter.hpp", header}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(quiet, "snapshot-coverage"));
  Options keep;
  keep.include_suppressed = true;
  const auto all = only(
      analyze_tree(
          {{"src/eva/counter.hpp", header}, {"src/eva/codec.cpp", codec}},
          keep),
      "snapshot-coverage");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
}

TEST(AnalyzeSnapshot, UnknownTypeAndOneSidedAnnotationFlagged) {
  const std::string one_sided =
      "// pamo-analyze: snapshot(Nowhere)\n"
      "Value nowhere_to_json() { return Value(); }\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n";
  const auto findings =
      analyze_tree({{"src/eva/counter.hpp", kSnapshotHeader},
                    {"src/eva/codec.cpp", one_sided}});
  ASSERT_EQ(count_rule(findings, "snapshot-coverage"), 2u);
  bool unknown = false;
  bool one_side = false;
  for (const auto& f : findings) {
    if (f.message.find("Nowhere") != std::string::npos) unknown = true;
    if (f.message.find("only the") != std::string::npos) one_side = true;
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(one_side);
}

// ---- layer-dag ------------------------------------------------------------

TEST(AnalyzeLayers, UpwardIncludeIsCaught) {
  const auto findings = only(
      analyze_tree({{"src/la/matrix.hpp", "#include \"core/service.hpp\"\n"},
                    {"src/core/service.hpp", "int x;\n"}}),
      "layer-dag");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/la/matrix.hpp");
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(AnalyzeLayers, LateralSameRankIncludeIsCaught) {
  // obs and la share a rank: neither may include the other.
  const auto findings = analyze_tree(
      {{"src/obs/metrics.hpp", "#include \"la/matrix.hpp\"\n"},
       {"src/la/matrix.hpp", "int x;\n"}});
  EXPECT_EQ(count_rule(findings, "layer-dag"), 1u);
}

TEST(AnalyzeLayers, DownwardIncludesAreQuiet) {
  const auto findings = analyze_tree(
      {{"src/core/service.hpp",
        "#include \"la/matrix.hpp\"\n#include \"gp/kernel.hpp\"\n"},
       {"src/la/matrix.hpp", "int x;\n"},
       {"src/gp/kernel.hpp", "#include \"la/matrix.hpp\"\n"}});
  EXPECT_FALSE(has_rule(findings, "layer-dag"));
}

TEST(AnalyzeLayers, IncludeCycleIsCaught) {
  const auto findings =
      only(analyze_tree({{"src/gp/a.hpp", "#include \"gp/b.hpp\"\n"},
                         {"src/gp/b.hpp", "#include \"gp/a.hpp\"\n"}}),
           "layer-dag");
  EXPECT_GE(findings.size(), 1u);
  for (const auto& f : findings) {
    EXPECT_NE(f.message.find("cycle"), std::string::npos);
  }
}

// ---- contract-coverage ----------------------------------------------------

std::string long_body(const std::string& first_line) {
  std::string body = first_line + "\n";
  for (int i = 0; i < 12; ++i) {
    body += "  x += " + std::to_string(i) + ";\n";
  }
  body += "  return x;\n}\n";
  return body;
}

TEST(AnalyzeContracts, BarePublicFunctionIsCaught) {
  const std::string source =
      long_body("int schedule_all(int x) {");
  const auto findings = analyze_tree({{"src/sched/fix.cpp", source}});
  ASSERT_EQ(count_rule(findings, "contract-coverage"), 1u);
  EXPECT_NE(findings[0].message.find("schedule_all"), std::string::npos);
}

TEST(AnalyzeContracts, ContractMacroSatisfies) {
  const std::string source = long_body(
      "int schedule_all(int x) {\n  PAMO_EXPECTS(x >= 0, \"x\");");
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

TEST(AnalyzeContracts, InternalAndOutOfScopeFunctionsSkipped) {
  // Anonymous namespace → internal; src/obs → outside the contract dirs.
  const std::string internal_src =
      "namespace {\n" + long_body("int helper(int x) {") + "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", internal_src}}),
                        "contract-coverage"));
  EXPECT_FALSE(has_rule(
      analyze_tree({{"src/obs/fix.cpp", long_body("int render(int x) {")}}),
      "contract-coverage"));
}

TEST(AnalyzeContracts, ShortFunctionsSkipped) {
  const std::string source = "int tiny(int x) { return x + 1; }\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

TEST(AnalyzeContracts, NonPublicMethodSkipped) {
  std::string source =
      "class Planner {\n"
      " public:\n"
      "  void go();\n"
      " private:\n"
      "  int plan(int x);\n"
      "};\n";
  source += long_body("int Planner::plan(int x) {");
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

// ---- capture-hygiene ------------------------------------------------------

TEST(AnalyzeCaptures, SharedPushBackIsCaught) {
  const std::string source =
      "void collect(std::vector<double>& out) {\n"
      "  parallel_for(100, [&](std::size_t i) {\n"
      "    out.push_back(static_cast<double>(i));\n"
      "  });\n"
      "}\n";
  const auto findings = analyze_tree({{"src/core/fix.cpp", source}});
  ASSERT_EQ(count_rule(findings, "capture-hygiene"), 1u);
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
}

TEST(AnalyzeCaptures, PartitionedWritesAreQuiet) {
  const std::string source =
      "void fill(std::vector<double>& out, la::Matrix& table) {\n"
      "  parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = 1.0;\n"
      "    for (std::size_t g = 0; g < 4; ++g) {\n"
      "      table(i, g) = static_cast<double>(g);\n"
      "    }\n"
      "  });\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                        "capture-hygiene"));
}

TEST(AnalyzeCaptures, SharedCompoundAssignIsCaught) {
  const std::string source =
      "void sum_up(double& total) {\n"
      "  parallel_for(10, [&](std::size_t i) {\n"
      "    total += static_cast<double>(i);\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(count_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                       "capture-hygiene"),
            1u);
}

TEST(AnalyzeCaptures, WriteThroughNonLocalIndexIsCaught) {
  // The index is itself a shared capture: workers race on out[j].
  const std::string source =
      "void scatter(std::vector<double>& out, std::size_t j) {\n"
      "  parallel_for(10, [&](std::size_t i) {\n"
      "    out[j] = static_cast<double>(i);\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(count_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                       "capture-hygiene"),
            1u);
}

TEST(AnalyzeCaptures, ByValueLambdasAndPlainLoopsAreQuiet) {
  const std::string source =
      "void ok(std::vector<double>& out) {\n"
      "  for (std::size_t i = 0; i < out.size(); ++i) {\n"
      "    out.push_back(1.0);\n"  // not inside a parallel_for lambda
      "  }\n"
      "  parallel_for(10, [](std::size_t i) {\n"
      "    double local = static_cast<double>(i);\n"
      "    local += 1.0;\n"
      "  });\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                        "capture-hygiene"));
}

// ---- engine surface -------------------------------------------------------

TEST(AnalyzeEngine, RuleListIsStable) {
  // The per-file family first, then the tree family.
  const auto& ids = rule_ids();
  ASSERT_EQ(ids.size(), 17u);
  EXPECT_EQ(ids[0], "determinism-rng");
  EXPECT_EQ(ids[13], "snapshot-coverage");
  EXPECT_EQ(ids[14], "layer-dag");
  EXPECT_EQ(ids[15], "contract-coverage");
  EXPECT_EQ(ids[16], "capture-hygiene");
}

TEST(AnalyzeEngine, AllowOnLineOrAboveSuppresses) {
  const std::string above =
      "// pamo-analyze: allow(layer-dag)\n"
      "#include \"core/service.hpp\"\n";
  const std::string same_line =
      "#include \"core/service.hpp\"  // pamo-analyze: allow(layer-dag)\n";
  const std::vector<SourceFile> core = {
      {"src/core/service.hpp", "int x;\n"}};
  for (const std::string& src : {above, same_line}) {
    auto files = core;
    files.push_back({"src/la/matrix.hpp", src});
    EXPECT_FALSE(has_rule(analyze_tree(files), "layer-dag"));
    Options keep;
    keep.include_suppressed = true;
    const auto all = analyze_tree(files, keep);
    ASSERT_EQ(count_rule(all, "layer-dag"), 1u);
    for (const auto& f : all) {
      if (f.rule == "layer-dag") {
        EXPECT_TRUE(f.suppressed);
      }
    }
  }
}

TEST(AnalyzeEngine, OneAllowSilencesBothFamilies) {
  // Line 2 carries a per-file finding (float-eq) and a tree finding
  // (contract-coverage, reported at the function name); one allow list on
  // the line above silences both.
  const std::string source =
      "// pamo-analyze: allow(float-eq, contract-coverage)\n" +
      long_body("int schedule_all(double x) { if (x == 0.0) return 0;");
  EXPECT_TRUE(analyze_file("src/sched/fix.cpp", source).empty());
  Options keep;
  keep.include_suppressed = true;
  const auto all = analyze_file("src/sched/fix.cpp", source, keep);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(rules_hit(all),
            (std::vector<std::string>{"float-eq", "contract-coverage"}));
  for (const auto& f : all) {
    EXPECT_EQ(f.line, 2u);
    EXPECT_TRUE(f.suppressed);
  }
}

TEST(AnalyzeEngine, RetiredLintTagIsInert) {
  // The retired per-file tool's tag is not a suppression: only
  // `pamo-analyze:` comments silence findings.
  const std::string source =
      "// pamo-lint: allow(float-eq)\n"
      "bool f(double x) { return x == 0.0; }  // pamo-lint: allow(float-eq)\n";
  const auto findings = analyze_file("src/la/fixture.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "float-eq");
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(AnalyzeEngine, ReportFormats) {
  const auto findings = only(
      analyze_tree({{"src/la/matrix.hpp", "#include \"core/service.hpp\"\n"},
                    {"src/core/service.hpp", "int x;\n"}}),
      "layer-dag");
  ASSERT_EQ(findings.size(), 1u);
  const std::string text = to_text(findings);
  EXPECT_NE(text.find("src/la/matrix.hpp:1: [layer-dag]"), std::string::npos);
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"rule\":\"layer-dag\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(to_json({}).find("\"count\":0") == std::string::npos, false);
}

TEST(AnalyzeEngine, FindingsSortedByFileThenLine) {
  const auto findings = only(
      analyze_tree({{"src/la/zzz.hpp", "#include \"core/b.hpp\"\n"},
                    {"src/la/aaa.hpp", "int y;\n#include \"core/b.hpp\"\n"},
                    {"src/core/b.hpp", "int x;\n"}}),
      "layer-dag");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/la/aaa.hpp");
  EXPECT_EQ(findings[1].file, "src/la/zzz.hpp");
}

}  // namespace
}  // namespace pamo::analyze
