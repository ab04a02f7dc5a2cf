// Design-choice ablations called out in DESIGN.md:
//   1. linear-permutation vs naive many-to-many scheduling;
//   2. the combined prefix-reduction-sum vs running a separate exscan and
//      all-reduce (the fusion the primitive exists for);
//   3. crossbar vs hypercube vs 2-D mesh topology (architecture
//      independence: the algorithms run unchanged; only the modeled
//      per-message time shifts).
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"

namespace pup::bench {
namespace {

void schedule_ablation() {
  const int p = 16;
  TextTable table(
      "many-to-many schedule ablation: PACK total (ms), 1-D N=65536, "
      "density 50% (CMS)");
  table.header({"W", "linear-permutation", "naive"});
  for (dist::index_t w : {dist::index_t{4}, dist::index_t{64},
                          dist::index_t{1024}}) {
    Workload wl = make_workload({65536}, {p}, {w}, Density{0.5, false});
    std::vector<std::string> row = {std::to_string(w)};
    for (auto sched :
         {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
      sim::Machine machine = make_paper_machine(p);
      PackOptions opt;
      opt.scheme = PackScheme::kCompactMessage;
      opt.schedule = sched;
      const Times t = measure(machine, [&](sim::Machine& m) {
        (void)pack(m, wl.array, wl.mask, opt);
      });
      row.push_back(TextTable::num(t.total_ms, 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

void fusion_ablation() {
  // Raw CM-5 constants (tau = 86 us) so the modeled communication, not the
  // host's allocation noise, dominates -- the regime the fusion targets.
  TextTable table(
      "combined prefix-reduction-sum vs separate exscan + all-reduce "
      "(CM-5 model, ms)");
  table.header({"P", "M", "combined (direct)", "separate"});
  for (int p : {8, 16, 64}) {
    for (std::size_t m_len : {16u, 1024u}) {
      using Vec = std::vector<std::int64_t>;
      sim::Machine fused(p, {.cost = sim::CostModel::cm5()});
      {
        std::vector<Vec> bufs(static_cast<std::size_t>(p), Vec(m_len, 1));
        std::vector<Vec> total;
        coll::prefix_reduction_sum(fused, coll::Group::world(p),
                                   coll::PrsAlgorithm::kDirect, bufs, total);
      }
      sim::Machine split(p, {.cost = sim::CostModel::cm5()});
      {
        std::vector<Vec> bufs(static_cast<std::size_t>(p), Vec(m_len, 1));
        coll::exscan_sum(split, coll::Group::world(p), bufs);
        std::vector<Vec> bufs2(static_cast<std::size_t>(p), Vec(m_len, 1));
        coll::allreduce_sum(split, coll::Group::world(p), bufs2);
      }
      table.row({std::to_string(p), std::to_string(m_len),
                 TextTable::num(fused.max_us(sim::Category::kPrs) / 1000.0, 4),
                 TextTable::num(split.max_us(sim::Category::kPrs) / 1000.0,
                                4)});
    }
  }
  table.print(std::cout);
}

void topology_ablation() {
  const int p = 16;
  TextTable table(
      "topology ablation: PACK total (ms), 1-D N=65536, W=64, density 50%");
  table.header({"topology", "total", "prs", "m2m"});
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
    sim::Machine machine(p, {.topology = nt.topo});
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    const Times t = measure(machine, [&](sim::Machine& m) {
      (void)pack(m, wl.array, wl.mask, opt);
    });
    table.row({nt.name, TextTable::num(t.total_ms, 3),
               TextTable::num(t.prs_ms, 3), TextTable::num(t.m2m_ms, 3)});
  }
  table.print(std::cout);
}

void slice_scan_ablation() {
  // Paper Section 6.1: scan a slice until all counted elements are found
  // (method 1) vs scanning the whole slice (method 2).  The paper found
  // method 1 slightly better.
  const int p = 16;
  TextTable table(
      "slice-scan ablation: PACK local time (ms), 1-D N=65536 (CMS)");
  table.header({"W", "density", "stop-early", "full-slice"});
  for (dist::index_t w : {dist::index_t{64}, dist::index_t{1024}}) {
    for (const Density& d : {Density{0.1, false}, Density{0.9, false}}) {
      Workload wl = make_workload({65536}, {p}, {w}, d);
      std::vector<std::string> row = {std::to_string(w), d.label()};
      for (SliceScan scan : {SliceScan::kStopEarly, SliceScan::kFullSlice}) {
        sim::Machine machine = make_paper_machine(p);
        PackOptions opt;
        opt.scheme = PackScheme::kCompactMessage;
        opt.slice_scan = scan;
        const Times t = measure_avg(machine, [&](sim::Machine& m) {
          (void)pack(m, wl.array, wl.mask, opt);
        });
        row.push_back(TextTable::num(t.local_ms, 4));
      }
      table.row(std::move(row));
    }
  }
  table.print(std::cout);
}

void control_network_ablation() {
  // Paper Section 5.1 footnote + Section 7: the CM-5's control network
  // performs the scans in O(M) with no software rounds; the paper's 1-D
  // experiments used it.
  const int p = 16;
  TextTable table(
      "PRS implementation ablation: PACK total (ms), 1-D N=65536, "
      "density 50% (CMS)");
  table.header({"W", "software split", "control network"});
  for (dist::index_t w : {dist::index_t{1}, dist::index_t{16},
                          dist::index_t{1024}}) {
    Workload wl = make_workload({65536}, {p}, {w}, Density{0.5, false});
    std::vector<std::string> row = {std::to_string(w)};
    for (auto prs :
         {coll::PrsAlgorithm::kSplit, coll::PrsAlgorithm::kControlNetwork}) {
      sim::Machine machine = make_paper_machine(p);
      PackOptions opt;
      opt.scheme = PackScheme::kCompactMessage;
      opt.prs = prs;
      const Times t = measure(machine, [&](sim::Machine& m) {
        (void)pack(m, wl.array, wl.mask, opt);
      });
      row.push_back(TextTable::num(t.total_ms, 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace pup::bench

int main() {
  using namespace pup::bench;
  std::cout << "# Ablations: scheduling, PRS fusion, topology, slice scan, "
               "control network\n\n";
  schedule_ablation();
  fusion_ablation();
  topology_ablation();
  slice_scan_ablation();
  control_network_ablation();
  return 0;
}
