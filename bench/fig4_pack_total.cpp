// Figure 4: total PACK execution time (msec) for the three schemes, as a
// function of block size, with the full breakdown (local computation,
// prefix-reduction-sum, many-to-many personalized communication).
//
// Expected shape (paper Section 7): CMS gives the best total time; CSS
// beats SSS at large block sizes and high densities; total time falls as
// the distribution approaches block.
#include "harness.hpp"

namespace pup::bench {
namespace {

void sweep(Harness& h, const std::string& title,
           std::vector<dist::index_t> extents, std::vector<int> procs,
           const std::vector<Density>& densities) {
  for (const Density& d : densities) {
    TextTable table = h.table(title + ", density " + d.label() +
                              " -- total PACK time (ms) [total | "
                              "local/prs/m2m]");
    table.header({"W", "SSS", "CSS", "CMS", "CMS-local", "CMS-prs",
                  "CMS-m2m"});
    for (dist::index_t w : block_sweep(extents, procs)) {
      Workload wl = make_workload(
          extents, procs, std::vector<dist::index_t>(extents.size(), w), d);
      sim::Machine machine(product(procs));
      std::vector<Case> cases;
      for (PackScheme scheme :
           {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
            PackScheme::kCompactMessage}) {
        PackOptions opt;
        opt.scheme = scheme;
        cases.push_back(pack_case(title + " " + d.label() + " W=" +
                                      std::to_string(w) + " " +
                                      scheme_label(scheme),
                                  machine, wl, opt));
      }
      const std::vector<Result> rs = h.run(cases);
      std::vector<std::string> row = {std::to_string(w)};
      for (const Result& r : rs) {
        row.push_back(TextTable::num(r.ms(Col::kTotal), 3));
      }
      for (Col c : {Col::kLocal, Col::kPrs, Col::kM2M}) {
        row.push_back(TextTable::num(rs.back().ms(c), 3));
      }
      table.row(std::move(row));
    }
    table.print(std::cout);
  }
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  Harness h(argc, argv, "fig4_pack_total");
  std::cout << "# Figure 4 reproduction: total PACK execution time\n\n";
  const std::vector<Density> densities = {
      {0.1, false}, {0.5, false}, {0.9, false}, {0.0, true}};
  sweep(h, "1-D N=65536, P=16", {65536}, {16}, densities);
  sweep(h, "2-D 512x512, P=4x4", {512, 512}, {4, 4}, densities);
  return h.finish();
}
