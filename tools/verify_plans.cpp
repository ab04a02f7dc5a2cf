// verify_plans: sweep the plan space and statically verify every schedule.
//
// For each processor count (default 4, 6, 8, 16), a 1-D and (when p is
// composite) a 2-D block-cyclic distribution is built and every
// (scheme x PRS knob x PRS wire width x M2M knob x batch) pack plan plus
// every unpack plan is compiled and fed to analysis::statics::verify_plan()'s
// checks: the schedule proofs and the PRS picks of kAuto and kPaperRule.
// One line is printed per plan with its verdict, round/post counts and peak
// per-rank in-flight bytes; any failed proof makes the exit status nonzero.
//
//   verify_plans [--procs 4,6,8,16] [--budget BYTES] [--mutations]
//                [--verbose]
//
// --budget enforces a mailbox budget (bytes) on every plan instead of the
// default report-only accounting.  --mutations additionally runs the
// mutation harness over each pack plan (every seedable defect class must be
// caught; an escape fails the sweep).  --verbose prints every issue.  Every
// count must be a positive integer: anything else prints "bad value for
// <flag>" and exits 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analysis/static/expand.hpp"
#include "analysis/static/mutate.hpp"
#include "analysis/static/verifier.hpp"
#include "core/api.hpp"
#include "plan/plan.hpp"

namespace {

namespace st = pup::analysis::statics;

struct Sweep {
  std::vector<int> procs = {4, 6, 8, 16};
  std::size_t budget = 0;
  bool mutations = false;
  bool verbose = false;
};

struct Tally {
  int plans = 0;
  int failed = 0;
  int mutants = 0;
  int escapes = 0;
};

/// Parses a whole token as a positive integer; nullopt on anything else
/// (empty, trailing characters, zero, negative, out of range).
template <typename T>
std::optional<T> parse_positive(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value <= 0) return std::nullopt;
  return value;
}

/// Comma-separated processor counts, each a positive integer.
std::optional<std::vector<int>> parse_procs(std::string_view arg) {
  std::vector<int> out;
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string_view::npos) comma = arg.size();
    const auto p = parse_positive<int>(arg.substr(pos, comma - pos));
    if (!p) return std::nullopt;
    out.push_back(*p);
    if (comma == arg.size()) return out;
    pos = comma + 1;
  }
}

/// Largest divisor of p that is at most sqrt(p); 1 for primes.
int split_factor(int p) {
  int best = 1;
  for (int a = 2; a * a <= p; ++a) {
    if (p % a == 0) best = a;
  }
  return best;
}

std::vector<pup::dist::Distribution> distributions_for(int p) {
  using pup::dist::Distribution;
  using pup::dist::ProcessGrid;
  using pup::dist::Shape;
  std::vector<Distribution> out;
  out.push_back(Distribution::block_cyclic(
      Shape({static_cast<pup::dist::index_t>(64 * p)}), ProcessGrid({p}), 8));
  const int a = split_factor(p);
  if (a > 1) {
    const int b = p / a;
    out.push_back(Distribution::block_cyclic(
        Shape({static_cast<pup::dist::index_t>(16 * a),
               static_cast<pup::dist::index_t>(16 * b)}),
        ProcessGrid({a, b}), 4));
  }
  return out;
}

void print_issues(const st::VerifyReport& report) {
  for (const st::VerifyIssue& issue : report.issues) {
    std::printf("    [%s] %s\n", issue.rule.c_str(), issue.detail.c_str());
  }
}

void report_plan(const Sweep& sweep, Tally& tally, const char* kind,
                 const std::string& origin, const st::VerifyReport& report) {
  ++tally.plans;
  if (!report.ok()) ++tally.failed;
  std::printf("%-4s %-6s %-70s rounds=%-4zu posts=%-5zu peak=%zuB\n",
              report.ok() ? "ok" : "FAIL", kind, origin.c_str(),
              static_cast<std::size_t>(report.rounds),
              static_cast<std::size_t>(report.posts),
              static_cast<std::size_t>(report.peak.bytes));
  if (!report.ok() || sweep.verbose) print_issues(report);
}

void run_mutations(Tally& tally, const st::ExpandedPlan& pristine) {
  const st::Defect defects[] = {
      st::Defect::kDroppedPost,      st::Defect::kDroppedRecv,
      st::Defect::kDuplicatedTag,    st::Defect::kForeignTag,
      st::Defect::kCyclicDependency, st::Defect::kUnderchargedRound,
      st::Defect::kMisroutedRecv,    st::Defect::kOversizedPayload,
      st::Defect::kMisstatedWidth,   st::Defect::kMisstatedIndexWidth,
  };
  for (st::Defect defect : defects) {
    st::ExpandedPlan mutated = pristine;
    if (!st::seed_defect(mutated.schedule, defect)) continue;
    ++tally.mutants;
    const st::VerifyReport report =
        st::verify_schedule(mutated.schedule, mutated.expectations);
    bool caught = false;
    for (const st::VerifyIssue& issue : report.issues) {
      if (issue.rule == st::expected_rule(defect)) caught = true;
    }
    if (!caught) {
      ++tally.escapes;
      std::printf("FAIL mutation %s ESCAPED on %s\n",
                  st::defect_name(defect), pristine.schedule.origin.c_str());
    }
  }
}

int bad_value(const char* flag) {
  std::fprintf(stderr, "bad value for %s\n", flag);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
      const auto procs = parse_procs(argv[++i]);
      if (!procs) return bad_value("--procs");
      sweep.procs = *procs;
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      const auto budget = parse_positive<std::size_t>(argv[++i]);
      if (!budget) return bad_value("--budget");
      sweep.budget = *budget;
    } else if (std::strcmp(argv[i], "--mutations") == 0) {
      sweep.mutations = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      sweep.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: verify_plans [--procs 4,6,8,16] [--budget BYTES] "
                   "[--mutations] [--verbose]\n");
      return 2;
    }
  }

  const pup::PackScheme pack_schemes[] = {pup::PackScheme::kSimpleStorage,
                                          pup::PackScheme::kCompactStorage,
                                          pup::PackScheme::kCompactMessage};
  const pup::UnpackScheme unpack_schemes[] = {
      pup::UnpackScheme::kSimpleStorage, pup::UnpackScheme::kCompactStorage};
  const pup::coll::PrsAlgorithm prs_knobs[] = {
      pup::coll::PrsAlgorithm::kDirect, pup::coll::PrsAlgorithm::kSplit,
      pup::coll::PrsAlgorithm::kControlNetwork,
      pup::coll::PrsAlgorithm::kAuto, pup::coll::PrsAlgorithm::kPaperRule};
  const pup::coll::WireWidth widths[] = {pup::coll::WireWidth::k64,
                                        pup::coll::WireWidth::kAuto};
  const pup::coll::M2MSchedule m2m_knobs[] = {
      pup::coll::M2MSchedule::kLinearPermutation,
      pup::coll::M2MSchedule::kNaive};

  st::VerifyOptions options;
  options.mailbox_budget_bytes = sweep.budget;

  Tally tally;
  for (int p : sweep.procs) {
    pup::sim::Machine machine(
        p, {.cost = pup::sim::CostModel{10.0, 0.1}});
    for (const auto& d : distributions_for(p)) {
      for (pup::PackScheme scheme : pack_schemes) {
        for (pup::coll::PrsAlgorithm prs : prs_knobs) {
          for (pup::coll::WireWidth width : widths) {
            for (pup::coll::M2MSchedule m2m : m2m_knobs) {
              pup::PackOptions opt;
              opt.scheme = scheme;
              opt.prs = prs;
              opt.schedule = m2m;
              opt.wire_width = width;
              const pup::plan::PackPlan plan = pup::plan::compile_pack_plan(
                  machine, d, sizeof(double), opt);
              for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
                const st::ExpandedPlan expanded =
                    st::expand_pack_plan(plan, machine.cost(), batch);
                st::VerifyReport report = st::verify_schedule(
                    expanded.schedule, expanded.expectations, options);
                st::check_prs_picks(report, plan.schedule, opt.prs,
                                    machine.cost());
                report_plan(sweep, tally, "pack",
                            expanded.schedule.origin, report);
                if (sweep.mutations && batch == 1) {
                  run_mutations(tally, expanded);
                }
              }
            }
          }
        }
      }
      const auto vd = pup::dist::Distribution::block1d(
          d.global().size() / 2 + 1, p);
      for (pup::UnpackScheme scheme : unpack_schemes) {
        for (pup::coll::PrsAlgorithm prs : prs_knobs) {
          for (pup::coll::WireWidth width : widths) {
            for (pup::coll::M2MSchedule m2m : m2m_knobs) {
              pup::UnpackOptions opt;
              opt.scheme = scheme;
              opt.prs = prs;
              opt.schedule = m2m;
              opt.wire_width = width;
              const pup::plan::UnpackPlan plan =
                  pup::plan::compile_unpack_plan(machine, d, vd,
                                                 sizeof(double), opt);
              const st::ExpandedPlan expanded =
                  st::expand_unpack_plan(plan, machine.cost());
              st::VerifyReport report = st::verify_schedule(
                  expanded.schedule, expanded.expectations, options);
              st::check_prs_picks(report, plan.schedule, opt.prs,
                                  machine.cost());
              report_plan(sweep, tally, "unpack",
                          expanded.schedule.origin, report);
            }
          }
        }
      }
    }
  }

  std::printf("\n%d plan(s) verified, %d failed", tally.plans, tally.failed);
  if (sweep.mutations) {
    std::printf("; %d mutant(s) seeded, %d escaped", tally.mutants,
                tally.escapes);
  }
  std::printf("\n");
  return (tally.failed == 0 && tally.escapes == 0) ? 0 : 1;
}
