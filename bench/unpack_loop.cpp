// A fresh-process loop of cyclic UNPACK: the library's real per-operation
// cost for a caller whose heap nothing else holds high.
//
// The configuration is perfbench's cyclic2d_unpack: a 512 x 512 int64
// array cyclic on a 4 x 4 grid, the CSS scheme, a 50% random mask, the
// vector being the mask's PACK, CostModel::cm5() and no malloc tuning.  It
// runs on sequential local phases and on a 4-thread pool, and reports
// us/op (median and p10/p90 of the wall clock), minor page faults per op
// (getrusage deltas of this process) and whether the two policies leave
// the same determinism digest -- threading may change wall-clock time,
// never a modeled quantity.  Exits 1 when the digests differ.
#include "analysis/determinism.hpp"
#include "harness.hpp"

namespace pup::bench {
namespace {

int run(Harness& h) {
  const auto d = dist::Distribution::cyclic(dist::Shape({512, 512}),
                                            dist::ProcessGrid({4, 4}));
  std::vector<Element> host(static_cast<std::size_t>(d.global().size()));
  std::iota(host.begin(), host.end(), 0);
  const auto array = dist::DistArray<Element>::scatter(d, host);
  const auto mask = dist::DistArray<mask_t>::scatter(
      d, make_mask(d.global(), Density{0.5, false}));
  UnpackOptions opt;
  opt.scheme = UnpackScheme::kCompactStorage;

  std::cout << "# Cyclic UNPACK loop: 512x512 int64, 4x4 cyclic, CSS, "
               "density 50%, cm5()\n\n";
  TextTable table("UNPACK per operation, sequential vs threaded(4)");
  table.header({"policy", "reps", "us/op p50", "p10", "p90", "minflt/op",
                "digest"});
  analysis::TraceDigest reference;
  bool match = true;
  for (const bool threaded : {false, true}) {
    sim::Machine m(d.nprocs(),
                   {.exec = threaded ? sim::ExecPolicy::threaded(4)
                                     : sim::ExecPolicy::sequential()});
    const auto vector = pack(m, array, mask).vector;
    dist::DistArray<Element> field(d);
    const auto op = [&] { (void)unpack(m, vector, mask, field, opt); };
    const Result r = h.run(threaded ? "threaded(4)" : "sequential", m, op);

    m.reset_accounting();
    analysis::DigestRecorder recorder(m);
    op();
    if (!threaded) reference = recorder.digest();
    const bool same = recorder.digest() == reference;
    match = match && same;

    const Percentiles us = r.wall_us();
    table.row({r.name, std::to_string(r.samples.size()),
               TextTable::num(us.p50, 1), TextTable::num(us.p10, 1),
               TextTable::num(us.p90, 1), TextTable::num(r.minflt(), 0),
               same ? "match" : "MISMATCH"});
  }
  table.print(std::cout);
  if (!match) {
    std::cerr << "unpack_loop: threaded digest differs from sequential\n";
    return 1;
  }
  return h.finish();
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  pup::bench::Harness h(argc, argv, "unpack_loop", 1000.0);
  return pup::bench::run(h);
}
