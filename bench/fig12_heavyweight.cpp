// Figure 12 — Scenarios with the heavy-weight speech-to-text app (A11):
// (a) A11 alone: Baseline vs Batching (paper: ~5% saving);
// (b) A11+A6: Baseline / BEAM / Batching / BCOM (paper: 2% / 7% / 9%);
// (c) A11+A6+A1: same schemes (paper: 2% / 8% / 10%).
#include "bench_util.h"

using namespace iotsim;
using apps::AppId;

namespace {

std::vector<std::pair<std::string, core::Scheme>> scheme_list(bool with_beam) {
  std::vector<std::pair<std::string, core::Scheme>> schemes;
  if (with_beam) schemes.emplace_back("BEAM", core::Scheme::kBeam);
  schemes.emplace_back("Batching", core::Scheme::kBatching);
  if (with_beam) schemes.emplace_back("BCOM", core::Scheme::kBcom);
  return schemes;
}

void scenario_block(bench::Session& session, const char* title, const std::vector<AppId>& ids,
                    bool with_beam) {
  std::cout << "--- " << title << " ---\n";
  const auto base = session.run(ids, core::Scheme::kBaseline);

  auto t = bench::breakdown_table();
  bench::add_breakdown_row(t, "Baseline", bench::breakdown_vs(base, base));
  using TP = trace::TablePrinter;

  std::cout.flush();
  std::vector<std::string> savings;
  for (const auto& [name, scheme] : scheme_list(with_beam)) {
    const auto r = session.run(ids, scheme);
    bench::add_breakdown_row(t, name, bench::breakdown_vs(r, base));
    savings.push_back(name + "=" + std::string{TP::pct(r.energy.savings_vs(base.energy))});
  }
  std::cout << t.render();
  std::cout << "savings: ";
  for (const auto& s : savings) std::cout << s << "  ";
  std::cout << "\n";
  // A11's user-level output for the record.
  const auto& recs = base.hubs.front().apps.at(AppId::kA11SpeechToText).records;
  std::cout << "A11 transcript: ";
  for (const auto& rec : recs) {
    if (rec.event) std::cout << "[w" << rec.window << "] " << rec.summary << "  ";
  }
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv)};
  std::cout << "=== Fig. 12: heavy-weight (A11 speech-to-text) scenarios ===\n";
  std::cout << "A11: 4683 MIPS, 1.43 GB model -> not offloadable (planner says: ";
  core::OffloadPlanner planner{hw::default_hub_spec()};
  const auto plan = planner.plan({AppId::kA11SpeechToText});
  std::cout << plan.decisions.at(AppId::kA11SpeechToText).reason << ")\n\n";

  struct Block {
    const char* title;
    std::vector<AppId> ids;
    bool with_beam;
  };
  const Block blocks[] = {
      {"(a) A11 alone  [paper: Batching saves ~5%]", {AppId::kA11SpeechToText}, false},
      {"(b) A11+A6  [paper: BEAM 2%, Batching 7%, BCOM 9%]",
       {AppId::kA11SpeechToText, AppId::kA6Dropbox},
       true},
      {"(c) A11+A6+A1  [paper: BEAM 2%, Batching 8%, BCOM 10%]",
       {AppId::kA11SpeechToText, AppId::kA6Dropbox, AppId::kA1CoapServer},
       true},
  };

  std::vector<core::Scenario> sweep;
  for (const auto& block : blocks) {
    sweep.push_back(session.scenario(block.ids, core::Scheme::kBaseline));
    for (const auto& [name, scheme] : scheme_list(block.with_beam)) {
      sweep.push_back(session.scenario(block.ids, scheme));
    }
  }
  session.prefetch(sweep);

  for (const auto& block : blocks) {
    scenario_block(session, block.title, block.ids, block.with_beam);
  }

  std::cout << "Takeaway (§IV-E3): COM suits light apps, Batching heavy ones; under\n"
               "BCOM they compose — the light apps offload, the heavy one batches.\n";
  return 0;
}
