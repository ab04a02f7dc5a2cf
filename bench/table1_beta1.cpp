// Table I: beta_1 values -- the smallest (power-of-two) block size at which
// the compact storage scheme's measured local-computation time drops below
// the simple storage scheme's -- for local sizes 1024..8192 (1-D, P=16) and
// 16..128 per dimension (2-D, P=4x4), across six mask densities.
//
// "inf" means CSS never caught up within the sweep, as the paper reports
// for 10% density at small local sizes.  Alongside the measured value the
// analytical prediction of Section 6.4 (predict_beta1) is printed.
#include "harness.hpp"

namespace pup::bench {
namespace {

/// The smallest power-of-two block size at which `second`'s median local
/// time is at most `first`'s.  The two schemes run interleaved rep by rep,
/// which cancels slow drift (allocator/cache state, frequency scaling)
/// that would otherwise swamp the small scheme difference at microsecond
/// scales.  Every block size is measured, so the set of cases (and the
/// modeled JSON) does not depend on where the crossover falls.
std::string crossover_for(Harness& h, const std::string& tag,
                          std::vector<dist::index_t> extents,
                          std::vector<int> procs, Density d, PackScheme first,
                          PackScheme second) {
  std::string crossover;
  for (dist::index_t w : block_sweep(extents, procs, 64)) {
    if (w < 2) continue;
    Workload wl = make_workload(
        extents, procs, std::vector<dist::index_t>(extents.size(), w), d);
    sim::Machine machine(product(procs));
    const std::string name = tag + " N=" + std::to_string(extents[0]) + "^" +
                             std::to_string(extents.size()) + " " +
                             d.label() + " W=" + std::to_string(w) + " ";
    std::vector<Case> cases;
    for (PackScheme scheme : {first, second}) {
      PackOptions opt;
      opt.scheme = scheme;
      cases.push_back(pack_case(name + scheme_label(scheme), machine, wl, opt));
    }
    const std::vector<Result> rs = h.run(cases);
    if (crossover.empty() && rs[1].ms(Col::kLocal) <= rs[0].ms(Col::kLocal)) {
      crossover = std::to_string(w);
    }
  }
  return crossover.empty() ? "inf" : crossover;
}

std::string beta1_for(Harness& h, std::vector<dist::index_t> extents,
                      std::vector<int> procs, Density d) {
  return crossover_for(h, "beta1", std::move(extents), std::move(procs), d,
                       PackScheme::kSimpleStorage,
                       PackScheme::kCompactStorage);
}

void one_dimensional(Harness& h) {
  TextTable table = h.table(
      "Table I (1-D, P=16): measured beta_1 [predicted] per mask density");
  std::vector<std::string> header = {"LocalSize"};
  for (const Density& d : paper_densities()) header.push_back(d.label());
  table.header(header);
  for (dist::index_t local : {1024, 2048, 4096, 8192}) {
    std::vector<std::string> row = {std::to_string(local)};
    for (const Density& d : paper_densities()) {
      std::string cell = beta1_for(h, {local * 16}, {16}, d);
      if (!d.lt) {
        const auto pred = predict_beta1(local, d.value);
        cell +=
            " [" + (pred ? std::to_string(*pred) : std::string("inf")) + "]";
      }
      row.push_back(std::move(cell));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

void two_dimensional(Harness& h) {
  TextTable table = h.table(
      "Table I (2-D, P=4x4): measured beta_1 [predicted] per mask density");
  std::vector<std::string> header = {"LocalSize/dim"};
  for (const Density& d : paper_densities()) header.push_back(d.label());
  table.header(header);
  for (dist::index_t local : {16, 32, 64, 128}) {
    std::vector<std::string> row = {std::to_string(local)};
    for (const Density& d : paper_densities()) {
      std::string cell = beta1_for(h, {local * 4, local * 4}, {4, 4}, d);
      if (!d.lt) {
        const auto pred = predict_beta1(local * local, d.value);
        cell +=
            " [" + (pred ? std::to_string(*pred) : std::string("inf")) + "]";
      }
      row.push_back(std::move(cell));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

void beta2_table(Harness& h) {
  // Section 6.4.2: beta_2 is the block size past which the compact message
  // scheme's local computation beats the compact storage scheme's.
  TextTable table = h.table(
      "beta_2 (1-D, P=16): measured [predicted] -- CMS first beats CSS");
  std::vector<std::string> header = {"LocalSize"};
  for (const Density& d : paper_densities()) header.push_back(d.label());
  table.header(header);
  for (dist::index_t local : {1024, 4096}) {
    std::vector<std::string> row = {std::to_string(local)};
    for (const Density& d : paper_densities()) {
      std::string cell =
          crossover_for(h, "beta2", {local * 16}, {16}, d,
                        PackScheme::kCompactStorage,
                        PackScheme::kCompactMessage);
      if (!d.lt) {
        const auto pred = predict_beta2(local, d.value, 16);
        cell +=
            " [" + (pred ? std::to_string(*pred) : std::string("inf")) + "]";
      }
      row.push_back(std::move(cell));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  Harness h(argc, argv, "table1_beta1");
  std::cout << "# Table I reproduction: beta_1 crossover block sizes\n"
            << "# (block size at which compact storage first beats simple "
               "storage)\n\n";
  one_dimensional(h);
  two_dimensional(h);
  beta2_table(h);
  return h.finish();
}
