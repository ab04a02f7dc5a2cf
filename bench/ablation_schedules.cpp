// Design-choice ablations called out in DESIGN.md:
//   1. linear-permutation vs naive many-to-many scheduling;
//   2. the combined prefix-reduction-sum vs running a separate exscan and
//      all-reduce (the fusion the primitive exists for);
//   3. crossbar vs hypercube vs 2-D mesh topology (architecture
//      independence: the algorithms run unchanged; only the modeled
//      per-message time shifts).
#include <cstdint>

#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "harness.hpp"

namespace pup::bench {
namespace {

/// One CMS PACK of `wl` per case, each case with its own options.
std::vector<Result> cms_packs(
    Harness& h, sim::Machine& m, const Workload& wl,
    const std::vector<std::pair<std::string, PackOptions>>& variants) {
  std::vector<Case> cases;
  for (auto [name, opt] : variants) {
    opt.scheme = PackScheme::kCompactMessage;
    cases.push_back(pack_case(name, m, wl, opt));
  }
  return h.run(cases);
}

void schedule_ablation(Harness& h) {
  const int p = 16;
  TextTable table = h.table(
      "many-to-many schedule ablation: PACK total (ms), 1-D N=65536, "
      "density 50% (CMS)");
  table.header({"W", "linear-permutation", "naive"});
  for (dist::index_t w : {dist::index_t{4}, dist::index_t{64},
                          dist::index_t{1024}}) {
    Workload wl = make_workload({65536}, {p}, {w}, Density{0.5, false});
    sim::Machine m(p);
    PackOptions linear, naive;
    linear.schedule = coll::M2MSchedule::kLinearPermutation;
    naive.schedule = coll::M2MSchedule::kNaive;
    const std::string name = "schedule W=" + std::to_string(w);
    std::vector<std::string> row = {std::to_string(w)};
    for (const Result& r : cms_packs(h, m, wl,
                                     {{name + " linear", linear},
                                      {name + " naive", naive}})) {
      row.push_back(TextTable::num(r.ms(Col::kTotal), 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

void fusion_ablation(Harness& h) {
  // Modeled charges only, at the raw CM-5 constants (tau = 86 us): the
  // regime the fusion targets, where communication dominates.
  TextTable table(
      "combined prefix-reduction-sum vs separate exscan + all-reduce "
      "(modeled, CM-5 constants, unscaled, ms)");
  table.header({"P", "M", "combined (direct)", "separate"});
  using Vec = std::vector<std::int64_t>;
  for (int p : {8, 16, 64}) {
    for (std::size_t m_len : {16u, 1024u}) {
      sim::Machine m(p);
      const auto g = coll::Group::world(p);
      const std::string name =
          "fusion P=" + std::to_string(p) + " M=" + std::to_string(m_len);
      const std::vector<Result> rs = h.run({
          {name + " combined", &m,
           [&] {
             std::vector<Vec> bufs(static_cast<std::size_t>(p), Vec(m_len, 1));
             std::vector<Vec> total;
             coll::prefix_reduction_sum(m, g, coll::PrsAlgorithm::kDirect,
                                        bufs, total);
           }},
          {name + " separate", &m,
           [&] {
             std::vector<Vec> bufs(static_cast<std::size_t>(p), Vec(m_len, 1));
             coll::exscan_sum(m, g, bufs);
             std::vector<Vec> bufs2(static_cast<std::size_t>(p),
                                    Vec(m_len, 1));
             coll::allreduce_sum(m, g, bufs2);
           }},
      });
      table.row({std::to_string(p), std::to_string(m_len),
                 TextTable::num(rs[0].modeled.max_us(sim::Category::kPrs) /
                                    1000.0,
                                4),
                 TextTable::num(rs[1].modeled.max_us(sim::Category::kPrs) /
                                    1000.0,
                                4)});
    }
  }
  table.print(std::cout);
}

void topology_ablation(Harness& h) {
  const int p = 16;
  TextTable table = h.table(
      "topology ablation: PACK total (ms), 1-D N=65536, W=64, density 50% "
      "(s scales the per-hop term too; last column unscaled)");
  table.header({"topology", "total", "prs", "m2m", "modeled comm"});
  Workload wl = make_workload({65536}, {p}, {64}, Density{0.5, false});
  struct Named {
    const char* name;
    sim::Topology topo;
  };
  const Named topos[] = {
      {"crossbar", sim::Topology::crossbar(p)},
      {"hypercube", sim::Topology::hypercube(p)},
      {"mesh 4x4", sim::Topology::mesh2d(p)},
  };
  for (const auto& nt : topos) {
    sim::Machine m(p, {.topology = nt.topo});
    const Result r =
        cms_packs(h, m, wl, {{std::string("topology ") + nt.name, {}}})[0];
    table.row({nt.name, TextTable::num(r.ms(Col::kTotal), 3),
               TextTable::num(r.ms(Col::kPrs), 3),
               TextTable::num(r.ms(Col::kM2M), 3),
               TextTable::num(r.modeled.max_total_us() / 1000.0, 3)});
  }
  table.print(std::cout);
}

void slice_scan_ablation(Harness& h) {
  // Paper Section 6.1: scan a slice until all counted elements are found
  // (method 1) vs scanning the whole slice (method 2).  The paper found
  // method 1 slightly better.
  const int p = 16;
  TextTable table = h.table(
      "slice-scan ablation: PACK local time (ms), 1-D N=65536 (CMS)");
  table.header({"W", "density", "stop-early", "full-slice"});
  for (dist::index_t w : {dist::index_t{64}, dist::index_t{1024}}) {
    for (const Density& d : {Density{0.1, false}, Density{0.9, false}}) {
      Workload wl = make_workload({65536}, {p}, {w}, d);
      sim::Machine m(p);
      PackOptions early, full;
      early.slice_scan = SliceScan::kStopEarly;
      full.slice_scan = SliceScan::kFullSlice;
      const std::string name =
          "slice W=" + std::to_string(w) + " " + d.label();
      std::vector<std::string> row = {std::to_string(w), d.label()};
      for (const Result& r : cms_packs(h, m, wl,
                                       {{name + " stop-early", early},
                                        {name + " full-slice", full}})) {
        row.push_back(TextTable::num(r.ms(Col::kLocal), 4));
      }
      table.row(std::move(row));
    }
  }
  table.print(std::cout);
}

void control_network_ablation(Harness& h) {
  // Paper Section 5.1 footnote + Section 7: the CM-5's control network
  // performs the scans in O(M) with no software rounds; the paper's 1-D
  // experiments used it.
  const int p = 16;
  TextTable table = h.table(
      "PRS implementation ablation: PACK total (ms), 1-D N=65536, "
      "density 50% (CMS)");
  table.header({"W", "software split", "control network"});
  for (dist::index_t w : {dist::index_t{1}, dist::index_t{16},
                          dist::index_t{1024}}) {
    Workload wl = make_workload({65536}, {p}, {w}, Density{0.5, false});
    sim::Machine m(p);
    PackOptions split, control;
    split.prs = coll::PrsAlgorithm::kSplit;
    control.prs = coll::PrsAlgorithm::kControlNetwork;
    const std::string name = "prs W=" + std::to_string(w);
    std::vector<std::string> row = {std::to_string(w)};
    for (const Result& r : cms_packs(h, m, wl,
                                     {{name + " split", split},
                                      {name + " control", control}})) {
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
  Harness h(argc, argv, "ablation_schedules");
  std::cout << "# Ablations: scheduling, PRS fusion, topology, slice scan, "
               "control network\n\n";
  schedule_ablation(h);
  fusion_ablation(h);
  topology_ablation(h);
  slice_scan_ablation(h);
  control_network_ablation(h);
  return h.finish();
}
