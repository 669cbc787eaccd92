// iotsim_analyze coverage: the tokenizer/scope layer, every semantic pass
// against seeded + corrected fixtures (ANALYZE_FIXTURE_DIR), the rule
// catalogue's sync with tools/iotsim_lint.conf (ANALYZE_CONF_PATH), file
// collection rules, and hash-coverage against the real tree
// (IOTSIM_SRC_DIR) — including the contract that deleting a hashed
// field's append line makes the pass fail.
#include "analyze/analyze.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_temp_dir.h"

namespace iotsim::analyze {
namespace {

const Config kEmpty;

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path{ANALYZE_FIXTURE_DIR} / name;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

FileUnit unit_of(const std::filesystem::path& p) {
  return make_unit(p.generic_string(), read_file(p));
}

std::vector<Finding> run_rule(const std::vector<FileUnit>& units, std::string_view rule) {
  const std::vector<std::string> only{std::string{rule}};
  return analyze_units(units, kEmpty, only);
}

int count_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

// --- tokenizer / scope layer -------------------------------------------

TEST(AnalyzeSyntax, MergesTwoCharOperatorsAndTracksLines) {
  const auto toks = tokenize("a::b->c;\nx >= 1'000;\n");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_TRUE(is_punct(toks[1], "::"));
  EXPECT_TRUE(is_punct(toks[3], "->"));
  EXPECT_TRUE(is_punct(toks[7], ">="));
  EXPECT_EQ(toks[7].line, 2);
  EXPECT_EQ(toks[8].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[8].text, "1'000");
}

TEST(AnalyzeSyntax, SwallowsPreprocessorLines) {
  const auto toks = tokenize("#define BAD int hidden = 1; \\\n  still hidden\nint live;\n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(is_ident(toks[0], "int"));
  EXPECT_TRUE(is_ident(toks[1], "live"));
}

TEST(AnalyzeSyntax, ClassifiesBlocksAndFindsEnclosingFunction) {
  const std::string src =
      "namespace ns {\n"
      "struct S { int f; };\n"
      "int fn(int a) {\n"
      "  if (a) { return a; }\n"
      "  auto lam = [a]() { return a; };\n"
      "  return 0;\n"
      "}\n"
      "}  // namespace ns\n";
  const auto toks = tokenize(src);
  const ScopeMap scopes = map_scopes(toks);
  ASSERT_EQ(scopes.blocks.size(), 5u);
  EXPECT_EQ(scopes.blocks[0].kind, BlockKind::kNamespace);
  EXPECT_EQ(scopes.blocks[1].kind, BlockKind::kType);
  EXPECT_EQ(scopes.blocks[2].kind, BlockKind::kFunction);  // fn
  EXPECT_EQ(scopes.blocks[3].kind, BlockKind::kControl);   // if
  EXPECT_EQ(scopes.blocks[4].kind, BlockKind::kFunction);  // lambda
  EXPECT_TRUE(scopes.at_namespace_scope(0));
  EXPECT_FALSE(scopes.at_namespace_scope(2));
  EXPECT_EQ(scopes.enclosing_function(3), 2);  // if body belongs to fn
  EXPECT_EQ(scopes.enclosing_function(4), 4);  // lambda is its own function
  EXPECT_EQ(function_name(toks, scopes.blocks[2]), "fn");
  EXPECT_TRUE(lambda_capture_range(toks, scopes.blocks[4]).has_value());
  EXPECT_FALSE(lambda_capture_range(toks, scopes.blocks[2]).has_value());
}

// --- coro-dangling-ref --------------------------------------------------

TEST(AnalyzeCoro, FlagsEverySeededViolation) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("coro_bad.cpp")));
  const auto findings = run_rule(units, kRuleCoroDanglingRef);
  ASSERT_EQ(findings.size(), 4u);
  // ref, iterator, pointer uses after co_await; by-ref lambda capture.
  EXPECT_EQ(findings[0].line, 14);
  EXPECT_NE(findings[0].detail.find("'first'"), std::string::npos);
  EXPECT_EQ(findings[1].line, 15);
  EXPECT_NE(findings[1].detail.find("iterator"), std::string::npos);
  EXPECT_EQ(findings[2].line, 22);
  EXPECT_NE(findings[2].detail.find("pointer"), std::string::npos);
  EXPECT_EQ(findings[3].line, 26);
  EXPECT_NE(findings[3].detail.find("captures by reference"), std::string::npos);
}

TEST(AnalyzeCoro, SilentOnCorrectedForms) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("coro_clean.cpp")));
  EXPECT_TRUE(run_rule(units, kRuleCoroDanglingRef).empty());
}

// --- shared-mutable-static ----------------------------------------------

TEST(AnalyzeState, FlagsEverySeededViolation) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("state_bad.cpp")));
  const auto findings = run_rule(units, kRuleSharedMutableStatic);
  ASSERT_EQ(findings.size(), 4u);
  const char* names[] = {"g_window_count", "g_last_label", "live_hubs", "calls"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(findings[i].detail.find(names[i]), std::string::npos) << findings[i].detail;
  }
}

TEST(AnalyzeState, SilentOnConstSynchronizedAndThreadLocal) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("state_clean.cpp")));
  EXPECT_TRUE(run_rule(units, kRuleSharedMutableStatic).empty());
}

// --- unordered-iteration / pointer-order --------------------------------

TEST(AnalyzeOrder, JoinsHeaderDeclarationsWithCppLoops) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("order_registry.h")));
  units.push_back(unit_of(fixture("order_bad.cpp")));
  const auto findings = analyze_units(units, kEmpty);
  EXPECT_EQ(count_rule(findings, kRuleUnorderedIteration), 2);
  EXPECT_EQ(count_rule(findings, kRulePointerOrder), 3);
  // The member loop is only detectable through the cross-file join.
  const auto member = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.detail.find("joules_by_owner_") != std::string::npos;
  });
  ASSERT_NE(member, findings.end());
  EXPECT_NE(member->file.find("order_bad.cpp"), std::string::npos);
}

TEST(AnalyzeOrder, SilentOnOrderedSnapshotsAndStableKeys) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("order_registry.h")));
  units.push_back(unit_of(fixture("order_clean.cpp")));
  const auto findings = analyze_units(units, kEmpty);
  EXPECT_EQ(count_rule(findings, kRuleUnorderedIteration), 0);
  EXPECT_EQ(count_rule(findings, kRulePointerOrder), 0);
}

// --- hash-coverage ------------------------------------------------------

TEST(AnalyzeHash, ReportsFieldMissingFromKey) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("hash_structs.h")));
  units.push_back(unit_of(fixture("hash_key.cpp")));
  const auto findings = run_rule(units, kRuleHashCoverage);
  // Exactly the seeded gap: fresh_knob is mentioned in unrelated() but
  // never inside scenario_key()'s call graph.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("'fresh_knob'"), std::string::npos);
  EXPECT_NE(findings[0].detail.find("'Scenario'"), std::string::npos);
}

TEST(AnalyzeHash, SilentOnceFieldIsAppended) {
  std::string patched = read_file(fixture("hash_key.cpp"));
  const std::string anchor = "return s.take();";
  const std::size_t at = patched.find(anchor);
  ASSERT_NE(at, std::string::npos);
  patched.insert(at, "s.add(sc.fresh_knob);\n  ");
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("hash_structs.h")));
  units.push_back(make_unit("hash_key_patched.cpp", patched));
  EXPECT_TRUE(run_rule(units, kRuleHashCoverage).empty());
}

TEST(AnalyzeHash, GuardsAgainstScansWithoutTheKeyFunction) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("hash_structs.h")));
  const auto findings = run_rule(units, kRuleHashCoverage);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("no scenario_key() definition"), std::string::npos);
}

// --- hash-coverage over the real tree -----------------------------------

std::vector<std::filesystem::path> real_tree_files() {
  const std::filesystem::path src{IOTSIM_SRC_DIR};
  return {src / "core/sweep.cpp",       src / "core/scenario.h",
          src / "net/config.h",         src / "env/environment.h",
          src / "hw/boards.h",          src / "sensors/sensor_catalog.h"};
}

TEST(AnalyzeHashRealTree, EveryScenarioFieldReachesTheKey) {
  std::vector<FileUnit> units;
  for (const auto& p : real_tree_files()) units.push_back(unit_of(p));
  const auto findings = run_rule(units, kRuleHashCoverage);
  EXPECT_TRUE(findings.empty()) << (findings.empty() ? std::string{} : findings[0].detail);
}

// Removes the append/encode line(s) that mention `field_ref` — lines whose
// trimmed text starts with `prefix` ("s." for scenario_key's sink, "w." for
// the result codec's writer) — leaving the rest intact.
std::string drop_append_lines(const std::string& content, const std::string& prefix,
                              const std::string& field_ref) {
  std::istringstream in{content};
  std::string out;
  std::string line;
  int dropped = 0;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    const bool is_append =
        first != std::string::npos && line.compare(first, prefix.size(), prefix) == 0;
    if (is_append && line.find(field_ref) != std::string::npos) {
      ++dropped;
      continue;
    }
    out += line;
    out += '\n';
  }
  EXPECT_GT(dropped, 0) << "no " << prefix << " line mentions " << field_ref;
  return out;
}

std::string drop_hash_lines(const std::string& content, const std::string& field_ref) {
  return drop_append_lines(content, "s.", field_ref);
}

TEST(AnalyzeHashRealTree, DeletingAHashedFieldLineFails) {
  const std::string sweep = read_file(std::filesystem::path{IOTSIM_SRC_DIR} / "core/sweep.cpp");
  struct Probe {
    const char* ref;   // the expression on the append line
    const char* name;  // the struct field the pass must report
  };
  for (const Probe probe : {Probe{"sc.scheme", "scheme"},
                            Probe{"sc.windows", "windows"},
                            Probe{"sc.mcu_speed_factor", "mcu_speed_factor"},
                            Probe{"sc.network->reservation_window", "reservation_window"}}) {
    std::vector<FileUnit> units;
    for (const auto& p : real_tree_files()) {
      if (p.filename() == "sweep.cpp") {
        units.push_back(make_unit(p.generic_string(), drop_hash_lines(sweep, probe.ref)));
      } else {
        units.push_back(unit_of(p));
      }
    }
    const auto findings = run_rule(units, kRuleHashCoverage);
    ASSERT_EQ(findings.size(), 1u) << "deleting " << probe.ref << " went undetected";
    EXPECT_NE(findings[0].detail.find(std::string{"'"} + probe.name + "'"), std::string::npos)
        << findings[0].detail;
  }
}

// --- codec-coverage -----------------------------------------------------

TEST(AnalyzeCodec, ReportsFieldMissingFromCodec) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("codec_structs.h")));
  units.push_back(unit_of(fixture("codec_enc.cpp")));
  const auto findings = run_rule(units, kRuleCodecCoverage);
  // Exactly the seeded gap: fresh_metric is mentioned in decode_result()
  // and unrelated() but never inside encode_result()'s call graph.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("'fresh_metric'"), std::string::npos);
  EXPECT_NE(findings[0].detail.find("'ScenarioResult'"), std::string::npos);
}

TEST(AnalyzeCodec, SilentOnceFieldIsEncoded) {
  std::string patched = read_file(fixture("codec_enc.cpp"));
  const std::string anchor = "return w.take();";
  const std::size_t at = patched.find(anchor);
  ASSERT_NE(at, std::string::npos);
  patched.insert(at, "w.add(r.fresh_metric);\n  ");
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("codec_structs.h")));
  units.push_back(make_unit("codec_enc_patched.cpp", patched));
  EXPECT_TRUE(run_rule(units, kRuleCodecCoverage).empty());
}

TEST(AnalyzeCodec, GuardsAgainstScansWithoutTheEncoder) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("codec_structs.h")));
  const auto findings = run_rule(units, kRuleCodecCoverage);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("no encode_result() definition"), std::string::npos);
}

// --- codec-coverage over the real tree ----------------------------------

std::vector<std::filesystem::path> codec_tree_files() {
  const std::filesystem::path src{IOTSIM_SRC_DIR};
  return {src / "cache/result_codec.cpp",   src / "core/reports.h",
          src / "core/qos.h",               src / "core/offload_planner.h",
          src / "core/scenario.h",          src / "energy/energy_accountant.h",
          src / "energy/energy_report.h",   src / "env/hub_environment.h"};
}

TEST(AnalyzeCodecRealTree, EveryResultFieldReachesTheCodec) {
  std::vector<FileUnit> units;
  for (const auto& p : codec_tree_files()) units.push_back(unit_of(p));
  const auto findings = run_rule(units, kRuleCodecCoverage);
  EXPECT_TRUE(findings.empty()) << (findings.empty() ? std::string{} : findings[0].detail);
}

TEST(AnalyzeCodecRealTree, DeletingAnEncodedFieldLineFails) {
  const std::string codec =
      read_file(std::filesystem::path{IOTSIM_SRC_DIR} / "cache/result_codec.cpp");
  struct Probe {
    const char* ref;   // the expression on the walk line
    const char* name;  // the struct field the pass must report
  };
  // Probes picked from structs with unique field names — the pass is
  // identifier-based, so a field spelled the same on two structs (e.g.
  // cpu_wakeups) would stay "covered" by the other struct's encode line.
  for (const Probe probe : {Probe{"r.scheme", "scheme"},
                            Probe{"h.airtime_grants", "airtime_grants"},
                            Probe{"q.worst_sample_jitter", "worst_sample_jitter"},
                            Probe{"p.mcu_ram_used", "mcu_ram_used"},
                            Probe{"a.uptime_fraction", "uptime_fraction"},
                            Probe{"a.heap_peak_bytes", "heap_peak_bytes"}}) {
    std::vector<FileUnit> units;
    for (const auto& p : codec_tree_files()) {
      if (p.filename() == "result_codec.cpp") {
        units.push_back(
            make_unit(p.generic_string(), drop_append_lines(codec, "ar.", probe.ref)));
      } else {
        units.push_back(unit_of(p));
      }
    }
    const auto findings = run_rule(units, kRuleCodecCoverage);
    ASSERT_EQ(findings.size(), 1u) << "deleting " << probe.ref << " went undetected";
    EXPECT_NE(findings[0].detail.find(std::string{"'"} + probe.name + "'"), std::string::npos)
        << findings[0].detail;
  }
}

// --- framework: legacy pass, filtering, allowlist, ordering -------------

TEST(AnalyzeFramework, LegacyLexicalRulesRunThroughTheFramework) {
  std::vector<FileUnit> units;
  units.push_back(make_unit("probe.cpp", "int x = rand();\n"));
  const auto findings = run_rule(units, lint::kRuleLibcRand);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::kRuleLibcRand);
  // And the same unit trips a semantic pass too: one framework, one walk.
  EXPECT_EQ(run_rule(units, kRuleSharedMutableStatic).size(), 1u);
}

TEST(AnalyzeFramework, RuleFilterRestrictsOutput) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("order_registry.h")));
  units.push_back(unit_of(fixture("order_bad.cpp")));
  const std::vector<std::string> only{std::string{kRulePointerOrder}};
  const auto findings = analyze_units(units, kEmpty, only);
  ASSERT_FALSE(findings.empty());
  for (const auto& f : findings) EXPECT_EQ(f.rule, kRulePointerOrder);
}

TEST(AnalyzeFramework, AllowlistSuppressesSemanticFindings) {
  std::istringstream conf{"allow unordered-iteration order_bad.cpp\n"};
  const Config cfg = lint::parse_config(conf, all_rule_ids());
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("order_registry.h")));
  units.push_back(unit_of(fixture("order_bad.cpp")));
  const auto findings = analyze_units(units, cfg);
  EXPECT_EQ(count_rule(findings, kRuleUnorderedIteration), 0);
  EXPECT_EQ(count_rule(findings, kRulePointerOrder), 3);  // untouched
}

TEST(AnalyzeFramework, SemanticRuleIdsNeedTheExtendedRegistry) {
  std::istringstream semantic{"allow unordered-iteration foo\n"};
  EXPECT_THROW(lint::parse_config(semantic), std::runtime_error);  // legacy registry
  std::istringstream again{"allow unordered-iteration foo\n"};
  EXPECT_NO_THROW(lint::parse_config(again, all_rule_ids()));
}

TEST(AnalyzeFramework, FindingsAreSorted) {
  std::vector<FileUnit> units;
  units.push_back(unit_of(fixture("order_bad.cpp")));
  units.push_back(unit_of(fixture("state_bad.cpp")));
  units.push_back(unit_of(fixture("order_registry.h")));
  const auto findings = analyze_units(units, kEmpty);
  EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line) < std::tie(b.file, b.line);
                             }));
}

// --- CLI surfaces: --list-rules text, JSON, conf catalogue sync ---------

TEST(AnalyzeCatalogue, ListsEveryRuleExactlyOnce) {
  const auto ids = all_rule_ids();
  EXPECT_EQ(ids.size(), 13u);
  std::vector<std::string_view> unique(ids.begin(), ids.end());
  std::sort(unique.begin(), unique.end());
  EXPECT_EQ(std::adjacent_find(unique.begin(), unique.end()), unique.end());
  const std::string text = list_rules_text();
  for (const std::string_view id : ids) {
    EXPECT_NE(text.find(id), std::string::npos) << "missing " << id;
  }
}

TEST(AnalyzeCatalogue, ConfHeaderMatchesTheCatalogue) {
  std::ifstream in{ANALYZE_CONF_PATH};
  ASSERT_TRUE(in) << "cannot open " << ANALYZE_CONF_PATH;
  std::vector<std::pair<std::string, std::string>> documented;
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (line == "# Rules:") {
      in_block = true;
      continue;
    }
    if (!in_block) continue;
    if (line.rfind("#   ", 0) != 0) break;  // block ends at the first other line
    const std::string entry = line.substr(4);
    const std::size_t colon = entry.find(": ");
    ASSERT_NE(colon, std::string::npos) << "malformed catalogue line: " << line;
    documented.emplace_back(entry.substr(0, colon), entry.substr(colon + 2));
  }
  const auto catalogue = rule_catalogue();
  ASSERT_EQ(documented.size(), catalogue.size())
      << "tools/iotsim_lint.conf's '# Rules:' block is out of date — regenerate "
         "it from `iotsim_analyze --list-rules`";
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    EXPECT_EQ(documented[i].first, catalogue[i].id);
    EXPECT_EQ(documented[i].second, catalogue[i].summary);
  }
}

TEST(AnalyzeJson, EscapesAndOrdersFindings) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"a.cpp", 3, "pointer-order", "uses \"get\"\there"});
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"file\": \"a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("uses \\\"get\\\"\\there"), std::string::npos);
  EXPECT_EQ(to_json({}), "[\n]\n");
}

// --- file collection ----------------------------------------------------

class CollectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = iotsim::test::unique_temp_dir("iotsim_analyze_collect");
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "src/core");
    std::filesystem::create_directories(root_ / "build/gen");
    std::filesystem::create_directories(root_ / ".git");
    std::filesystem::create_directories(root_ / "third_party/vendor");
    write(root_ / "src/core/a.cpp");
    write(root_ / "src/core/a.h");
    write(root_ / "src/notes.md");            // not a C++ source
    write(root_ / "build/gen/generated.cpp");  // skipped directory
    write(root_ / ".git/hook.cpp");            // hidden directory
    write(root_ / "third_party/vendor/lib.cpp");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static void write(const std::filesystem::path& p) {
    std::ofstream out{p};
    out << "// stub\n";
  }

  std::filesystem::path root_;
};

TEST_F(CollectFixture, SkipsBuildHiddenAndVendorDirectories) {
  const auto files = lint::collect_source_files({root_});
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), "a.cpp");
  EXPECT_EQ(files[1].filename(), "a.h");
}

TEST_F(CollectFixture, StableUnderSymlinkedRoots) {
  const std::filesystem::path link = root_ / "srclink";
  std::error_code ec;
  std::filesystem::create_directory_symlink(root_ / "src", link, ec);
  if (ec) GTEST_SKIP() << "filesystem does not support symlinks: " << ec.message();
  // The same tree reached twice (directly and via the symlink) must not
  // produce duplicate scan entries.
  const auto files = lint::collect_source_files({root_ / "src", link});
  EXPECT_EQ(files.size(), 2u);
  // A symlinked root alone still scans.
  EXPECT_EQ(lint::collect_source_files({link}).size(), 2u);
}

}  // namespace
}  // namespace iotsim::analyze
