// Table II: total PACK time (msec) for cyclically distributed input arrays,
// comparing the plain simple storage scheme against the two preliminary
// redistribution schemes (Red1: selected data only, Red2: whole arrays),
// where each Red column includes the redistribution time plus the
// compact-message-scheme PACK on the redistributed (block) arrays.
//
// Expected shape: for 1-D arrays neither Red scheme beats plain SSS
// (detection-dominated); for 2-D arrays Red1 wins at low densities and Red2
// at high densities, with Red2 roughly density-insensitive.
#include "harness.hpp"

namespace pup::bench {
namespace {

void run_case(Harness& h, const std::string& title,
              std::vector<dist::index_t> extents, std::vector<int> procs) {
  TextTable table = h.table(title + " -- cyclic input, total PACK time (ms)");
  table.header({"Density", "SSS", "Red.1", "Red.2"});
  for (const Density& d :
       {Density{0.1, false}, Density{0.3, false}, Density{0.5, false},
        Density{0.7, false}, Density{0.9, false}}) {
    Workload wl = make_workload(extents, procs,
                                std::vector<dist::index_t>(extents.size(), 1),
                                d);  // cyclic
    sim::Machine m(product(procs));
    PackOptions sss;
    sss.scheme = PackScheme::kSimpleStorage;
    const std::string name = title + " " + d.label() + " ";
    std::vector<std::string> row = {d.label()};
    for (const Result& r : h.run({
             pack_case(name + "SSS", m, wl, sss),
             {name + "Red.1", &m,
              [&] {
                (void)pack_with_redistribution(
                    m, wl.array, wl.mask, RedistributionScheme::kSelectedData,
                    paper_wire(PackOptions{}));
              }},
             {name + "Red.2", &m,
              [&] {
                (void)pack_with_redistribution(
                    m, wl.array, wl.mask, RedistributionScheme::kWholeArrays,
                    paper_wire(PackOptions{}));
              }},
         })) {
      row.push_back(TextTable::num(r.ms(Col::kTotal), 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  Harness h(argc, argv, "table2_redistribution");
  std::cout << "# Table II reproduction: redistribution schemes for cyclic "
               "inputs\n\n";
  run_case(h, "1-D N=16384, P=16", {16384}, {16});
  run_case(h, "1-D N=65536, P=16", {65536}, {16});
  run_case(h, "2-D 256x256, P=4x4", {256, 256}, {4, 4});
  run_case(h, "2-D 512x512, P=4x4", {512, 512}, {4, 4});
  return h.finish();
}
