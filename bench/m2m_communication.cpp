// Section 7, "Many-to-Many Personalized Communication": traffic volume and
// modeled time of the redistribution stage, including the self-traffic
// effect the paper notes -- with a block-distributed input and a randomly
// distributed mask, each processor sends most of its selected data to
// itself (the implementation bypasses self-messages entirely).
#include "harness.hpp"

namespace pup::bench {
namespace {

void traffic_by_block_size(Harness& h) {
  const int p = 16;
  const dist::index_t n = 65536;
  TextTable table = h.table(
      "PACK redistribution traffic, 1-D N=65536, P=16, density 50% (CMS)");
  table.header({"W", "m2m time(ms)", "net bytes", "self bytes",
                "self share"});
  for (dist::index_t w : block_sweep({n}, {p})) {
    Workload wl = make_workload({n}, {p}, {w}, Density{0.5, false});
    sim::Machine m(p);
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    const Result r =
        h.run({pack_case("traffic W=" + std::to_string(w), m, wl, opt)})[0];
    // The trace still holds the last rep, whose counts every rep shares.
    const auto net = m.trace().bytes_in(sim::Category::kM2M);
    const auto self = m.trace().self_bytes();
    table.row({std::to_string(w), TextTable::num(r.ms(Col::kM2M), 3),
               std::to_string(net), std::to_string(self),
               TextTable::num(100.0 * static_cast<double>(self) /
                                  static_cast<double>(net + self),
                              1) +
                   "%"});
  }
  table.print(std::cout);
}

void message_volume_by_scheme(Harness& h) {
  const int p = 16;
  const dist::index_t n = 65536;
  for (const Density& d : {Density{0.1, false}, Density{0.9, false}}) {
    TextTable table("message volume by scheme, 1-D N=65536, W=1024, density " +
                    d.label());
    table.header({"scheme", "bytes shipped", "bytes/selected element"});
    Workload wl = make_workload({n}, {p}, {1024}, d);
    for (PackScheme scheme :
         {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
          PackScheme::kCompactMessage}) {
      sim::Machine m(p);
      PackOptions opt = paper_options(PackOptions{});
      opt.scheme = scheme;
      PackResult<Element> result;
      h.run("volume " + d.label() + " " + scheme_label(scheme), m,
            [&] { result = pack(m, wl.array, wl.mask, opt); });
      std::int64_t bytes = 0;
      for (const auto& c : result.counters) bytes += c.bytes_sent;
      table.row({scheme_label(scheme), std::to_string(bytes),
                 TextTable::num(static_cast<double>(bytes) /
                                    static_cast<double>(result.size),
                                2)});
    }
    table.print(std::cout);
  }
}

}  // namespace
}  // namespace pup::bench

int main(int argc, char** argv) {
  using namespace pup::bench;
  Harness h(argc, argv, "m2m_communication");
  std::cout << "# Many-to-many personalized communication characteristics\n\n";
  traffic_by_block_size(h);
  message_volume_by_scheme(h);
  return h.finish();
}
