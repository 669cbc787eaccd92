#include "analyze/analyze.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analyze/passes.h"

namespace iotsim::analyze {

namespace {

/// The PR-3 lexical rules, run through the same framework so one config,
/// one CLI and one ctest gate cover old and new rules alike.
class LegacyLexicalPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "lexical"; }

  [[nodiscard]] std::span<const RuleDoc> rules() const override {
    static constexpr RuleDoc kDocs[] = {
        {lint::kRuleRandomDevice, "std::random_device breaks seeded replay; fork sim::Rng"},
        {lint::kRuleLibcRand, "libc rand()/srand() bypasses the seeded sim::Rng"},
        {lint::kRuleWallClock, "wall-clock reads in sim code; time comes from sim::SimTime"},
        {lint::kRuleRawNew, "raw new; use RAII containers (allowlist arenas)"},
        {lint::kRuleRawDelete, "raw delete; ownership belongs in RAII types"},
        {lint::kRulePragmaOnce, "headers must open with #pragma once"},
        {lint::kRuleIostreamHeader, "library headers must not include <iostream>"},
    };
    return kDocs;
  }

  void scan(const FileUnit& file, std::vector<Finding>& out) override {
    // Allowlisting happens centrally in analyze_units; scan raw here.
    std::vector<Finding> found =
        lint::scan_source(file.display_path, file.content, lint::Config{});
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
};

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

FileUnit make_unit(std::string display_path, std::string content) {
  FileUnit u;
  u.display_path = std::move(display_path);
  u.is_header = u.display_path.ends_with(".h");
  u.content = std::move(content);
  u.masked = lint::mask_comments_and_strings(u.content);
  u.tokens = tokenize(u.masked);
  u.scopes = map_scopes(u.tokens);
  return u;
}

std::vector<std::unique_ptr<Pass>> make_passes() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<LegacyLexicalPass>());
  passes.push_back(make_coro_dangling_ref_pass());
  passes.push_back(make_shared_mutable_static_pass());
  passes.push_back(make_unordered_iteration_pass());
  passes.push_back(make_pointer_order_pass());
  passes.push_back(make_coverage_pass());
  return passes;
}

std::vector<RuleDoc> rule_catalogue() {
  std::vector<RuleDoc> docs;
  for (const auto& pass : make_passes()) {
    for (const RuleDoc& doc : pass->rules()) docs.push_back(doc);
  }
  return docs;
}

std::vector<std::string_view> all_rule_ids() {
  std::vector<std::string_view> ids;
  for (const RuleDoc& doc : rule_catalogue()) ids.push_back(doc.id);
  return ids;
}

std::vector<Finding> analyze_units(const std::vector<FileUnit>& units, const Config& cfg,
                                   std::span<const std::string> only_rules) {
  const auto rule_selected = [&](std::string_view rule) {
    return only_rules.empty() ||
           std::find(only_rules.begin(), only_rules.end(), rule) != only_rules.end();
  };

  std::vector<Finding> findings;
  for (const auto& pass : make_passes()) {
    const auto pass_rules = pass->rules();
    const bool any_selected =
        std::any_of(pass_rules.begin(), pass_rules.end(),
                    [&](const RuleDoc& d) { return rule_selected(d.id); });
    if (!any_selected) continue;
    std::vector<Finding> local;
    for (const FileUnit& unit : units) pass->scan(unit, local);
    pass->finish(local);
    for (Finding& f : local) {
      if (!rule_selected(f.rule)) continue;
      if (lint::allowed(cfg, f.rule, f.file)) continue;
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.detail) <
           std::tie(b.file, b.line, b.rule, b.detail);
  });
  return findings;
}

std::vector<Finding> analyze_paths(const std::vector<std::filesystem::path>& paths,
                                   const Config& cfg, std::span<const std::string> only_rules) {
  std::vector<FileUnit> units;
  for (const std::filesystem::path& f : lint::collect_source_files(paths)) {
    std::ifstream in{f, std::ios::binary};
    if (!in) throw std::runtime_error("cannot open source file: " + f.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    units.push_back(make_unit(f.generic_string(), buf.str()));
  }
  return analyze_units(units, cfg, only_rules);
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"rule\": \"" + json_escape(f.rule) + "\", \"detail\": \"" +
           json_escape(f.detail) + "\"}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string list_rules_text() {
  std::string out;
  for (const RuleDoc& doc : rule_catalogue()) {
    std::string line{doc.id};
    line.append(line.size() < 24 ? 24 - line.size() : 1, ' ');
    line += doc.summary;
    out += line + "\n";
  }
  return out;
}

}  // namespace iotsim::analyze
