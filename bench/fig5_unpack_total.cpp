// Figure 5: total UNPACK execution time (msec) for the two storage schemes
// (SSS, CSS), as a function of block size.
//
// Expected shape: the same SSS/CSS crossover pattern as PACK, with a larger
// communication share because the redistribution is two-phase
// (request + response).
#include "harness.hpp"

namespace pup::bench {
namespace {

void sweep(Harness& h, const std::string& title,
           std::vector<dist::index_t> extents, std::vector<int> procs,
           const std::vector<Density>& densities) {
  const int p = product(procs);
  for (const Density& d : densities) {
    TextTable table = h.table(title + ", density " + d.label() +
                              " -- total UNPACK time (ms)");
    table.header({"W", "SSS", "CSS", "CSS-local", "CSS-prs", "CSS-m2m"});
    for (dist::index_t w : block_sweep(extents, procs)) {
      Workload wl = make_workload(
          extents, procs, std::vector<dist::index_t>(extents.size(), w), d);
      // The input vector is block-distributed, as in the paper.
      const auto count = count_true(make_mask(wl.dist.global(), d));
      std::vector<Element> vhost(static_cast<std::size_t>(count));
      std::iota(vhost.begin(), vhost.end(), 0);
      const auto v = dist::DistArray<Element>::scatter(
          dist::Distribution::block1d(count, p), vhost);
      dist::DistArray<Element> field(wl.dist);
      sim::Machine machine(p);
      std::vector<Case> cases;
      for (UnpackScheme scheme :
           {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage}) {
        UnpackOptions opt = paper_options(UnpackOptions{});
        opt.scheme = scheme;
        cases.push_back(
            {title + " " + d.label() + " W=" + std::to_string(w) + " " +
                 (scheme == UnpackScheme::kSimpleStorage ? "SSS" : "CSS"),
             &machine, [&machine, &v, &wl, &field, opt] {
               (void)unpack(machine, v, wl.mask, field, opt);
             }});
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
  Harness h(argc, argv, "fig5_unpack_total");
  std::cout << "# Figure 5 reproduction: total UNPACK execution time\n\n";
  const std::vector<Density> densities = {
      {0.1, false}, {0.5, false}, {0.9, false}, {0.0, true}};
  sweep(h, "1-D N=65536, P=16", {65536}, {16}, densities);
  sweep(h, "2-D 512x512, P=4x4", {512, 512}, {4, 4}, densities);
  return h.finish();
}
