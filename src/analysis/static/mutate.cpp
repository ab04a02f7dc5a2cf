#include "analysis/static/mutate.hpp"

#include <algorithm>
#include <limits>

namespace pup::analysis::statics {
namespace {

/// First round in schedule order satisfying `pred`; nullptr if none.
template <typename Pred>
RoundIR* find_round(CommSchedule& schedule, Pred&& pred) {
  for (BlockIR& block : schedule.blocks) {
    for (RoundIR& round : block.rounds) {
      if (pred(block, round)) return &round;
    }
  }
  return nullptr;
}

constexpr int kUndeclaredTag = 0x7fffffff;

}  // namespace

const char* expected_rule(Defect defect) {
  switch (defect) {
    case Defect::kDroppedPost:
    case Defect::kDroppedRecv:
    case Defect::kDuplicatedTag:
    case Defect::kMisroutedRecv:
    case Defect::kOversizedPayload:
      return "comm-matching";
    case Defect::kForeignTag:
      return "tag-discipline";
    case Defect::kCyclicDependency:
      return "deadlock";
    case Defect::kUnderchargedRound:
    case Defect::kMisstatedWidth:
    case Defect::kMisstatedIndexWidth:
    case Defect::kRoundAtLevelWidth:
      return "cost-conformance";
  }
  return "?";
}

const char* defect_name(Defect defect) {
  switch (defect) {
    case Defect::kDroppedPost: return "dropped-post";
    case Defect::kDroppedRecv: return "dropped-recv";
    case Defect::kDuplicatedTag: return "duplicated-tag";
    case Defect::kForeignTag: return "foreign-tag";
    case Defect::kCyclicDependency: return "cyclic-dependency";
    case Defect::kUnderchargedRound: return "undercharged-round";
    case Defect::kMisroutedRecv: return "misrouted-recv";
    case Defect::kOversizedPayload: return "oversized-payload";
    case Defect::kMisstatedWidth: return "misstated-width";
    case Defect::kMisstatedIndexWidth: return "misstated-index-width";
    case Defect::kRoundAtLevelWidth: return "round-at-level-width";
  }
  return "?";
}

bool seed_defect(CommSchedule& schedule, Defect defect) {
  switch (defect) {
    case Defect::kDroppedPost: {
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return !r.posts.empty();
      });
      if (round == nullptr) return false;
      round->posts.pop_back();
      return true;
    }
    case Defect::kDroppedRecv: {
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return !r.recvs.empty();
      });
      if (round == nullptr) return false;
      round->recvs.pop_back();
      return true;
    }
    case Defect::kDuplicatedTag: {
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return !r.posts.empty();
      });
      if (round == nullptr) return false;
      round->posts.push_back(round->posts.front());
      return true;
    }
    case Defect::kForeignTag: {
      // Retag a matched pair, keeping the multisets equal: only the tag
      // declaration is violated.
      for (BlockIR& block : schedule.blocks) {
        for (RoundIR& round : block.rounds) {
          for (Xfer& post : round.posts) {
            auto recv = std::find_if(
                round.recvs.begin(), round.recvs.end(), [&](const Xfer& r) {
                  return r.src == post.src && r.dst == post.dst &&
                         r.tag == post.tag && r.bytes == post.bytes;
                });
            if (recv == round.recvs.end()) continue;
            post.tag = kUndeclaredTag;
            recv->tag = kUndeclaredTag;
            return true;
          }
        }
      }
      return false;
    }
    case Defect::kCyclicDependency: {
      for (BlockIR& block : schedule.blocks) {
        if (block.rounds.size() < 2) continue;
        block.rounds.front().deps.push_back(
            static_cast<int>(block.rounds.size()) - 1);
        return true;
      }
      return false;
    }
    case Defect::kUnderchargedRound: {
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return std::any_of(r.charges.begin(), r.charges.end(),
                           [](const RankCharge& c) { return c.us > 0.0; });
      });
      if (round == nullptr) return false;
      for (RankCharge& c : round->charges) c.us *= 0.5;
      return true;
    }
    case Defect::kMisroutedRecv: {
      if (schedule.nprocs < 2) return false;
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return !r.recvs.empty();
      });
      if (round == nullptr) return false;
      Xfer& recv = round->recvs.front();
      recv.src = (recv.src + 1) % schedule.nprocs;
      return true;
    }
    case Defect::kOversizedPayload: {
      RoundIR* round = find_round(schedule, [](const BlockIR&,
                                               const RoundIR& r) {
        return !r.posts.empty();
      });
      if (round == nullptr) return false;
      round->posts.front().bytes += 1;
      return true;
    }
    case Defect::kMisstatedWidth: {
      // The first ranking PRS block that moves bytes, lowered as if its
      // step's wire width were doubled: every transfer of the block doubles
      // on both sides, so matching still holds and only the closed form,
      // priced at the step's real width, can tell.
      for (BlockIR& block : schedule.blocks) {
        const bool prs = block.name.starts_with("prs.") ||
                         block.name == "exscan" || block.name == "broadcast";
        const bool moves = std::any_of(
            block.rounds.begin(), block.rounds.end(), [](const RoundIR& r) {
              return std::any_of(r.posts.begin(), r.posts.end(),
                                 [](const Xfer& x) { return x.bytes > 0; });
            });
        if (!prs || !moves) continue;
        for (RoundIR& round : block.rounds) {
          for (Xfer& x : round.posts) x.bytes *= 2;
          for (Xfer& x : round.recvs) x.bytes *= 2;
        }
        return true;
      }
      return false;
    }
    case Defect::kMisstatedIndexWidth: {
      // The first many-to-many block with index fields that moves bytes,
      // lowered as if its index width were doubled: each transfer's bound
      // of bytes / elem_bytes elements gains index_bytes per element on
      // both sides, so matching still holds and only the closed form,
      // priced at the plan's real width, can tell.
      for (BlockIR& block : schedule.blocks) {
        if (block.index_bytes == 0 || block.elem_bytes == 0) continue;
        bool moved = false;
        auto widen = [&](Xfer& x) {
          const std::size_t extra =
              x.bytes / block.elem_bytes * block.index_bytes;
          x.bytes += extra;
          moved = moved || extra > 0;
        };
        for (RoundIR& round : block.rounds) {
          for (Xfer& x : round.posts) widen(x);
          for (Xfer& x : round.recvs) widen(x);
        }
        if (moved) return true;
      }
      return false;
    }
    case Defect::kRoundAtLevelWidth: {
      // The first direct PRS round sent below its level's width, lowered
      // as if it were not packed: each of its transfers grows to the
      // vector at the level width on both sides, so matching still holds
      // and only the closed form, priced per round, can tell.
      for (BlockIR& block : schedule.blocks) {
        if (block.name != "prs.direct") continue;
        const std::size_t level = block.entries * block.elem_bytes;
        for (RoundIR& round : block.rounds) {
          const bool packed =
              std::any_of(round.posts.begin(), round.posts.end(),
                          [&](const Xfer& x) { return x.bytes < level; });
          if (!packed) continue;
          for (Xfer& x : round.posts) x.bytes = level;
          for (Xfer& x : round.recvs) x.bytes = level;
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace pup::analysis::statics
