// Field-coverage rules: every field of a watched struct must reach one root
// function. Each row of kRules below is one rule:
//
//   * hash-coverage — the memoised scenario structs must feed
//     scenario_key(). core/sweep.cpp memoises simulation results by a
//     content hash of the Scenario (tag "iotSim06"). A field that exists on
//     Scenario/HubInstance/ApConfig/EnvironmentConfig/… but is NOT folded
//     into scenario_key() makes two different scenarios collide in the memo
//     cache — the sweep silently returns the other scenario's energy
//     numbers. That bug class survives every behavioural test that doesn't
//     sweep the exact missing field.
//   * codec-coverage — the result structs must feed the persistent cache's
//     binary codec, encode_result(). cache/result_codec.cpp serialises
//     ScenarioResult for the on-disk result cache. A field that exists on
//     ScenarioResult/HubResult/AppResult/… but is NOT encoded silently decays
//     every cached result: a warm sweep returns a result whose missing field
//     is default-initialised, and no behavioural test notices until
//     something consumes that exact field from a warm run. The key side
//     guards lookups; this side guards what a hit returns.
//
// Mechanism (tree pass): scan() collects the field lists of the watched
// struct definitions, and for any file defining a rule's root function, a
// map of function name -> identifiers in its body. finish() computes the
// identifiers *transitively reachable* from the root through same-file
// helpers (append_world, encode_hub, ResultCodec::encode_report, …) and
// reports every watched field whose name never occurs there. Reachability —
// not a whole-file identifier grep — is the point: sweep.cpp also mentions
// fields in invalid_result() and run(), and decode_result() mentions every
// result field, yet deleting a hash or *encode* line must still fire. Blind
// spot: fields spelled identically on two watched structs (e.g. cpu_wakeups
// on ScenarioResult and HubResult) are covered if either line survives.
#include <array>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analyze/decl.h"
#include "analyze/passes.h"

namespace iotsim::analyze {

namespace {

struct CoverageRule {
  RuleDoc doc;
  /// Structs whose every field must reach `root`. Extend the list when a new
  /// struct joins the root's object graph.
  std::span<const std::string_view> structs;
  std::string_view root;
  /// Names the watched structs in findings ("hashed struct 'Scenario'").
  std::string_view kind;
  /// Finding when watched structs are scanned but no root definition is.
  std::string_view no_root;
  /// What a field missing from the root breaks, and the fix.
  std::string_view consequence;
};

constexpr std::string_view kHashedStructs[] = {
    "Scenario",    "HubInstance",        "ApConfig",     "EnvironmentConfig",
    "FaultProfileConfig", "CrashConfig", "PowerConfig",  "HarvestTrace",
    "WorldConfig", "HubSpec"};

constexpr std::string_view kCodecStructs[] = {
    "ScenarioResult", "HubResult",         "AppResult",         "WindowRecord",
    "AppQos",         "BusyBreakdown",     "OffloadPlan",       "OffloadDecision",
    "AvailabilityStats", "CongestionSummary", "KernelSummary",  "AvailabilitySummary",
    "PowerSegment",   "ScenarioError"};

constexpr CoverageRule kRules[] = {
    {{kRuleHashCoverage, "scenario struct field missing from the scenario_key() content hash"},
     kHashedStructs,
     "scenario_key",
     "hashed",
     "hashed scenario structs are in the scanned set but no scenario_key() "
     "definition is — run the analyzer over a tree that includes "
     "core/sweep.cpp, or drop the struct headers from the scan",
     "two scenarios differing only in this field collide in the sweep memo cache — append "
     "it to the content hash (and bump the key version tag)",
    },
    {{kRuleCodecCoverage, "result struct field missing from the cache's encode_result() codec"},
     kCodecStructs,
     "encode_result",
     "result",
     "result structs are in the scanned set but no encode_result() "
     "definition is — run the analyzer over a tree that includes "
     "cache/result_codec.cpp, or drop the result headers from the scan",
     "cached results decode with this field default-initialised — encode it (and bump the "
     "codec version tag)",
    },
};

constexpr std::size_t kRuleCount = std::size(kRules);

constexpr auto kDocs = [] {
  std::array<RuleDoc, kRuleCount> docs{};
  for (std::size_t r = 0; r < kRuleCount; ++r) docs[r] = kRules[r].doc;
  return docs;
}();

/// The rule watching struct `name`, or kRuleCount.
std::size_t rule_of_struct(std::string_view name) {
  for (std::size_t r = 0; r < kRuleCount; ++r) {
    for (const std::string_view s : kRules[r].structs) {
      if (name == s) return r;
    }
  }
  return kRuleCount;
}

bool defines_function(const FileUnit& unit, std::string_view fn) {
  for (const Block& b : unit.scopes.blocks) {
    if (b.kind == BlockKind::kFunction && function_name(unit.tokens, b) == fn) return true;
  }
  return false;
}

class CoveragePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "coverage"; }

  [[nodiscard]] std::span<const RuleDoc> rules() const override { return kDocs; }

  void scan(const FileUnit& unit, std::vector<Finding>& out) override {
    (void)out;
    collect_fields(unit);
    for (std::size_t r = 0; r < kRuleCount; ++r) {
      if (defines_function(unit, kRules[r].root)) collect_functions(unit, state_[r].functions);
    }
  }

  void finish(std::vector<Finding>& out) override {
    for (std::size_t r = 0; r < kRuleCount; ++r) report(kRules[r], state_[r], out);
  }

 private:
  struct Field {
    std::string file;
    std::string strct;
    std::string name;
    int line = 0;
  };
  struct RuleState {
    std::vector<Field> fields;
    // function name -> identifiers in its body, from files defining the root
    std::map<std::string, std::set<std::string>> functions;
  };

  static void report(const CoverageRule& rule, const RuleState& st, std::vector<Finding>& out) {
    if (st.fields.empty()) return;
    const std::string root{rule.root};
    if (st.functions.count(root) == 0) {
      const Field& f = st.fields.front();
      out.push_back(Finding{f.file, f.line, std::string{rule.doc.id}, std::string{rule.no_root}});
      return;
    }
    // Identifiers transitively reachable from the root through helpers
    // defined in the same file(s).
    std::set<std::string> reachable;
    std::vector<std::string> worklist{root};
    std::set<std::string> visited;
    while (!worklist.empty()) {
      const std::string fn = std::move(worklist.back());
      worklist.pop_back();
      if (!visited.insert(fn).second) continue;
      const auto it = st.functions.find(fn);
      if (it == st.functions.end()) continue;
      for (const std::string& id : it->second) {
        reachable.insert(id);
        if (st.functions.count(id) != 0) worklist.push_back(id);
      }
    }
    for (const Field& f : st.fields) {
      if (reachable.count(f.name) != 0) continue;
      out.push_back(Finding{f.file, f.line, std::string{rule.doc.id},
                            "field '" + f.name + "' of " + std::string{rule.kind} +
                                " struct '" + f.strct + "' never reaches " + root +
                                "(): " + std::string{rule.consequence}});
    }
  }

  void collect_fields(const FileUnit& unit) {
    const auto& T = unit.tokens;
    for (std::size_t i = 0; i + 2 < T.size(); ++i) {
      if (!is_ident(T[i], "struct") || T[i + 1].kind != TokenKind::kIdent) continue;
      const std::size_t r = rule_of_struct(T[i + 1].text);
      if (r == kRuleCount) continue;
      // Find the body '{' before any ';' (a ';' first means forward decl).
      std::size_t open = 0;
      for (std::size_t j = i + 2; j < T.size() && j < i + 18; ++j) {
        if (is_punct(T[j], ";")) break;
        if (is_punct(T[j], "{")) {
          open = j;
          break;
        }
      }
      if (open == 0) continue;
      const int block = unit.scopes.block_of[open];
      if (block < 0) continue;
      for (const Statement& stmt : statements_of_scope(unit, block)) {
        const auto decl = parse_var_decl(unit, stmt);
        if (!decl) continue;
        if (head_contains(unit, *decl, "static")) continue;  // not per-instance
        state_[r].fields.push_back(Field{unit.display_path, std::string{T[i + 1].text},
                                         std::string{decl->name}, T[decl->name_tok].line});
      }
    }
  }

  static void collect_functions(const FileUnit& unit,
                                std::map<std::string, std::set<std::string>>& functions) {
    for (const Block& b : unit.scopes.blocks) {
      if (b.kind != BlockKind::kFunction) continue;
      const std::string_view name = function_name(unit.tokens, b);
      if (name.empty()) continue;
      auto& idents = functions[std::string{name}];
      for (std::size_t j = b.open_tok; j <= b.close_tok && j < unit.tokens.size(); ++j) {
        if (unit.tokens[j].kind == TokenKind::kIdent) {
          idents.insert(std::string{unit.tokens[j].text});
        }
      }
    }
  }

  std::array<RuleState, kRuleCount> state_;
};

}  // namespace

std::unique_ptr<Pass> make_coverage_pass() { return std::make_unique<CoveragePass>(); }

}  // namespace iotsim::analyze
