#include "plan/plan.hpp"

#include <bit>
#include <utility>

#include "sim/instrumentation.hpp"

namespace pup::plan {
namespace {

enum : std::int64_t { kPackKind = 1, kUnpackKind = 2 };

void encode_dist(std::vector<std::int64_t>& w, const dist::Distribution& d) {
  w.push_back(d.rank());
  for (int k = 0; k < d.rank(); ++k) w.push_back(d.global().extent(k));
  w.push_back(d.grid().rank());
  for (int k = 0; k < d.grid().rank(); ++k) w.push_back(d.grid().extent(k));
  for (int k = 0; k < d.rank(); ++k) w.push_back(d.dim(k).block());
}

/// The cost model's parameters, bit for bit: kAuto resolves each ranking
/// step's PRS algorithm under them.
void encode_cost(std::vector<std::int64_t>& w, const sim::CostModel& c) {
  w.push_back(std::bit_cast<std::int64_t>(c.tau_us));
  w.push_back(std::bit_cast<std::int64_t>(c.mu_us_per_byte));
}

}  // namespace

PlanKey pack_plan_key(const dist::Distribution& dist, int elem_width,
                      const PackOptions& options,
                      const std::optional<dist::Distribution>& result_dist,
                      const sim::CostModel& cost) {
  PlanKey key;
  key.words.push_back(kPackKind);
  encode_dist(key.words, dist);
  key.words.push_back(elem_width);
  key.words.push_back(static_cast<std::int64_t>(options.scheme));
  key.words.push_back(static_cast<std::int64_t>(options.prs));
  key.words.push_back(static_cast<std::int64_t>(options.wire_width));
  key.words.push_back(static_cast<std::int64_t>(options.schedule));
  key.words.push_back(static_cast<std::int64_t>(options.slice_scan));
  encode_cost(key.words, cost);
  key.words.push_back(result_dist.has_value() ? 1 : 0);
  if (result_dist.has_value()) encode_dist(key.words, *result_dist);
  return key;
}

PlanKey unpack_plan_key(const dist::Distribution& mask_dist,
                        const dist::Distribution& vector_dist, int elem_width,
                        const UnpackOptions& options,
                        const sim::CostModel& cost) {
  PlanKey key;
  key.words.push_back(kUnpackKind);
  encode_dist(key.words, mask_dist);
  encode_dist(key.words, vector_dist);
  key.words.push_back(elem_width);
  key.words.push_back(static_cast<std::int64_t>(options.scheme));
  key.words.push_back(static_cast<std::int64_t>(options.prs));
  key.words.push_back(static_cast<std::int64_t>(options.wire_width));
  key.words.push_back(static_cast<std::int64_t>(options.schedule));
  encode_cost(key.words, cost);
  return key;
}

PackPlan compile_pack_plan(sim::Machine& machine,
                           const dist::Distribution& dist, int elem_width,
                           const PackOptions& options,
                           std::optional<dist::Distribution> result_dist) {
  PUP_REQUIRE(options.scheme != PackScheme::kAuto,
              "plans require a concrete scheme: kAuto depends on the mask "
              "density and must be resolved before compilation");
  PUP_REQUIRE(elem_width > 0, "element width must be positive");
  if (result_dist.has_value()) {
    PUP_REQUIRE(result_dist->rank() == 1,
                "PACK result layout must be rank one");
  }
  sim::PhaseScope phase(machine, "plan.compile");
  PackPlan plan;
  plan.dist = dist;
  plan.schedule = compile_ranking_schedule(dist, machine.nprocs(),
                                           options.prs, options.wire_width,
                                           machine.cost());
  plan.options = options;
  plan.result_dist = std::move(result_dist);
  plan.elem_width = elem_width;
  plan.key = pack_plan_key(dist, elem_width, options, plan.result_dist,
                           machine.cost());
  return plan;
}

UnpackPlan compile_unpack_plan(sim::Machine& machine,
                               const dist::Distribution& mask_dist,
                               const dist::Distribution& vector_dist,
                               int elem_width,
                               const UnpackOptions& options) {
  PUP_REQUIRE(options.scheme != UnpackScheme::kAuto,
              "plans require a concrete scheme: kAuto depends on the mask "
              "density and must be resolved before compilation");
  PUP_REQUIRE(elem_width > 0, "element width must be positive");
  PUP_REQUIRE(vector_dist.rank() == 1,
              "UNPACK input vector layout must be rank one");
  sim::PhaseScope phase(machine, "plan.compile");
  UnpackPlan plan;
  plan.dist = mask_dist;
  plan.vector_dist = vector_dist;
  plan.schedule = compile_ranking_schedule(mask_dist, machine.nprocs(),
                                           options.prs, options.wire_width,
                                           machine.cost());
  plan.options = options;
  plan.elem_width = elem_width;
  plan.key = unpack_plan_key(mask_dist, vector_dist, elem_width, options,
                             machine.cost());
  return plan;
}

}  // namespace pup::plan
