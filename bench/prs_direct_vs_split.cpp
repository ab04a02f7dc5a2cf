// Section 7, "Vector Prefix-Reduction-Sum": modeled time of the direct and
// split algorithms as a function of group size and vector length, plus the
// selections of kAuto (the lower predicted charge at the cm5 parameters and
// the int64 wire) and of the paper's size rule (kPaperRule).
//
// Expected shape: time falls as block size grows (the ranking's PRS vector
// length is proportional to the tile count); split beats direct once the
// vector is long enough to amortize its 2(G-1) start-ups, far later than
// the paper's rule (M >= G > 4) switches; direct wins for small groups and
// short vectors.
#include <cstdint>

#include "coll/prefix_reduction_sum.hpp"
#include "harness.hpp"

namespace pup::bench {
namespace {

using Vec = std::vector<std::int64_t>;

/// Rendered PRS time (ms) of the direct and split algorithms on P vectors
/// of length M.
std::array<double, 2> prs_ms(Harness& h, const std::string& tag, int p,
                             std::size_t m_len) {
  sim::Machine m(p);
  std::vector<Case> cases;
  for (auto alg : {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
    cases.push_back(
        {tag + " P=" + std::to_string(p) + " M=" + std::to_string(m_len) +
             (alg == coll::PrsAlgorithm::kDirect ? " direct" : " split"),
         &m, [&m, p, m_len, alg] {
           std::vector<Vec> bufs(static_cast<std::size_t>(p), Vec(m_len, 1));
           std::vector<Vec> total;
           coll::prefix_reduction_sum(m, coll::Group::world(p), alg, bufs,
                                      total);
         }});
  }
  const std::vector<Result> rs = h.run(cases);
  return {rs[0].ms(Col::kPrs), rs[1].ms(Col::kPrs)};
}

void vector_length_sweep(Harness& h, int p) {
  TextTable table = h.table("prefix-reduction-sum, P=" + std::to_string(p) +
                            " -- time (ms) vs vector length");
  table.header({"M", "direct", "split", "auto picks", "paper picks"});
  auto name = [p](coll::PrsAlgorithm rule, std::size_t m_len) {
    return coll::resolve_prs(rule, p, m_len, sizeof(std::int64_t),
                             sim::CostModel::cm5()) ==
                   coll::PrsAlgorithm::kDirect
               ? "direct"
               : "split";
  };
  for (std::size_t m_len : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    const auto [d, s] = prs_ms(h, "length", p, m_len);
    table.row({std::to_string(m_len), TextTable::num(d, 4),
               TextTable::num(s, 4), name(coll::PrsAlgorithm::kAuto, m_len),
               name(coll::PrsAlgorithm::kPaperRule, m_len)});
  }
  table.print(std::cout);
}

void block_size_view(Harness& h) {
  // The ranking's step-0 PRS runs on vectors of length
  // (prod_{k>0} L_k) * T_0 = L / W_0: halving W doubles the vector.
  const int p = 16;
  const dist::index_t L = 8192;
  TextTable table = h.table(
      "ranking-step PRS for 1-D local size 8192, P=16 -- time (ms) vs "
      "block size");
  table.header({"W", "vector length", "direct", "split"});
  for (dist::index_t w : block_sweep({L}, {1})) {
    const std::size_t m_len = static_cast<std::size_t>(L / w);
    const auto [d, s] = prs_ms(h, "block", p, m_len);
    table.row({std::to_string(w), std::to_string(m_len),
               TextTable::num(d, 4), TextTable::num(s, 4)});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  Harness h(argc, argv, "prs_direct_vs_split");
  std::cout << "# Prefix-reduction-sum: direct vs split algorithms\n\n";
  for (int p : {4, 16, 64, 256}) vector_length_sweep(h, p);
  block_size_view(h);
  return h.finish();
}
