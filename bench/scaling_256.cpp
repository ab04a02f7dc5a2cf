// Section 7's scaled experiment: the local array size is held fixed while
// the machine grows 16x (16 -> 256 processors; 1-D N 65536 -> 1048576 and
// 2-D 512x512 -> 2048x2048).
//
// Expected shape: with few processors the total is dominated by local
// computation; at 256 processors communication (PRS + many-to-many) takes
// the larger share.
#include "harness.hpp"

namespace pup::bench {
namespace {

void run_case(Harness& h, const std::string& title,
              std::vector<dist::index_t> extents, std::vector<int> procs,
              dist::index_t w) {
  Workload wl =
      make_workload(extents, procs,
                    std::vector<dist::index_t>(extents.size(), w),
                    Density{0.5, false});
  sim::Machine m(product(procs));
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const Result r = h.run({pack_case(title + " W=" + std::to_string(w), m, wl,
                                    opt)})[0];
  TextTable table = h.table(title);
  table.header({"P", "W", "total(ms)", "local", "prs", "m2m",
                "comm share"});
  const double comm = r.ms(Col::kPrs) + r.ms(Col::kM2M);
  table.row({std::to_string(m.nprocs()), std::to_string(w),
             TextTable::num(r.ms(Col::kTotal), 3),
             TextTable::num(r.ms(Col::kLocal), 3),
             TextTable::num(r.ms(Col::kPrs), 3),
             TextTable::num(r.ms(Col::kM2M), 3),
             TextTable::num(100.0 * comm / r.ms(Col::kTotal), 1) + "%"});
  table.print(std::cout);
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  // A 256-rank operation takes tens of milliseconds of wall clock, and a
  // preemption inside one rank's local phase moves the busiest-rank
  // maximum: a longer minimum gives the medians enough reps.
  Harness h(argc, argv, "scaling_256", 2000.0);
  std::cout << "# Weak-scaling reproduction: fixed local size, P x16\n\n";
  // 1-D: local size 4096 per processor.
  for (pup::dist::index_t w : {pup::dist::index_t{16}, pup::dist::index_t{512}}) {
    run_case(h, "1-D, local 4096/processor (CMS, density 50%)", {65536},
             {16}, w);
    run_case(h, "1-D scaled 16x", {1048576}, {256}, w);
  }
  // 2-D: local 128x128 per processor.
  run_case(h, "2-D 512x512, P=4x4 (CMS, density 50%)", {512, 512}, {4, 4},
           16);
  run_case(h, "2-D scaled 16x: 2048x2048, P=16x16", {2048, 2048}, {16, 16},
           16);
  return h.finish();
}
