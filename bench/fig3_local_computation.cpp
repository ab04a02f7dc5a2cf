// Figure 3: local-computation time (msec) of the three PACK schemes as a
// function of block size, for 1-D (P = 16) and 2-D (P = 4x4) arrays and
// mask densities 10%..90% plus the LT mask.
//
// The paper's observations to look for in this output:
//  * local time grows as block size shrinks (tile-count term), at every
//    density;
//  * SSS wins at/near cyclic (W = 1) and at low density;
//  * CSS/CMS win once the block size passes the beta_1 crossover, which
//    moves left as density grows.
#include "harness.hpp"

namespace pup::bench {
namespace {

void sweep(Harness& h, const std::string& title,
           std::vector<dist::index_t> extents, std::vector<int> procs) {
  for (const Density& d : paper_densities()) {
    TextTable table = h.table(title + ", density " + d.label() +
                              " -- local computation (ms)");
    table.header({"W", "SSS", "CSS", "CMS"});
    for (dist::index_t w : block_sweep(extents, procs)) {
      // The paper fixes the block sizes of all dimensions equal.
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
      std::vector<std::string> row = {std::to_string(w)};
      for (const Result& r : h.run(cases)) {
        row.push_back(TextTable::num(r.ms(Col::kLocal), 3));
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
  Harness h(argc, argv, "fig3_local_computation");
  std::cout << "# Figure 3 reproduction: PACK local computation time\n"
            << "# (SSS simple storage, CSS compact storage, CMS compact "
               "message)\n\n";
  // The paper's full size list: six 1-D arrays on 16 processors and four
  // 2-D arrays on a 4x4 grid.
  for (long n : {4096, 8192, 16384, 32768, 65536, 131072}) {
    sweep(h, "1-D N=" + std::to_string(n) + ", P=16", {n}, {16});
  }
  for (long n : {64, 128, 256, 512}) {
    sweep(h, "2-D " + std::to_string(n) + "x" + std::to_string(n) + ", P=4x4",
          {n, n}, {4, 4});
  }
  return h.finish();
}
