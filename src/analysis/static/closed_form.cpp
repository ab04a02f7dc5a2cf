#include "analysis/static/closed_form.hpp"

namespace pup::analysis::statics {

std::vector<coll::MemberCost> predict_m2m(
    coll::M2MSchedule schedule,
    const std::vector<std::vector<std::size_t>>& bound,
    const sim::CostModel& cost) {
  const int G = static_cast<int>(bound.size());
  std::vector<coll::MemberCost> out(static_cast<std::size_t>(G));
  if (G <= 1) return out;
  switch (schedule) {
    case coll::M2MSchedule::kLinearPermutation:
      for (int r = 1; r < G; ++r) {
        for (int i = 0; i < G; ++i) {
          auto& mc = out[static_cast<std::size_t>(i)];
          const std::size_t sent =
              bound[static_cast<std::size_t>(i)]
                   [static_cast<std::size_t>((i + r) % G)];
          const std::size_t recv =
              bound[static_cast<std::size_t>((i - r + G) % G)]
                   [static_cast<std::size_t>(i)];
          if (sent > 0) {
            mc.posts += 1;
            mc.bytes_out += sent;
          }
          if (recv > 0) {
            mc.recvs += 1;
            mc.bytes_in += recv;
          }
          mc.charge_us += coll::exchange_us(sent, recv, cost);
        }
      }
      break;
    case coll::M2MSchedule::kNaive:
      for (int i = 0; i < G; ++i) {
        for (int j = 0; j < G; ++j) {
          if (i == j) continue;
          const std::size_t m =
              bound[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (m == 0) continue;
          const double us = cost.message_us(m);
          auto& src = out[static_cast<std::size_t>(i)];
          auto& dst = out[static_cast<std::size_t>(j)];
          src.posts += 1;
          src.bytes_out += m;
          src.charge_us += us;
          dst.recvs += 1;
          dst.bytes_in += m;
          dst.charge_us += us;
        }
      }
      break;
  }
  return out;
}

}  // namespace pup::analysis::statics
