#include "service/arms.hpp"

#include <algorithm>
#include <bit>

#include "core/hierarchy.hpp"
#include "core/registry.hpp"

namespace gencoll::service {

int size_class(std::size_t nbytes) {
  if (nbytes <= 1) return 0;
  return static_cast<int>(std::bit_width(nbytes)) - 1;
}

std::size_t size_class_min_bytes(int cls) {
  if (cls <= 0) return 0;
  return std::size_t{1} << cls;
}

std::size_t size_class_max_bytes(int cls) {
  if (cls < 0) return 0;
  if (cls + 1 >= static_cast<int>(sizeof(std::size_t) * 8)) return SIZE_MAX;
  return std::size_t{1} << (cls + 1);
}

std::string ArmKey::describe() const {
  std::string out = core::coll_op_name(op);
  out += "/c";
  out += std::to_string(size_class);
  out += "/t";
  out += std::to_string(tenant);
  return out;
}

std::string Arm::describe() const {
  std::string out = core::algorithm_name(algorithm);
  out += ":k";
  out += std::to_string(k);
  if (group_size > 1) {
    out += ":g";
    out += std::to_string(group_size);
  }
  return out;
}

Arm arm_of(const tuning::AlgorithmChoice& choice) {
  return Arm{choice.algorithm, choice.k, choice.group_size};
}

tuning::AlgorithmChoice choice_of(const Arm& arm) {
  return tuning::AlgorithmChoice{arm.algorithm, arm.k, arm.group_size};
}

namespace {

std::vector<int> pruned_radixes(core::CollOp op, core::Algorithm alg, int p,
                                const ArmSpaceOptions& options) {
  const std::vector<int> candidates = core::candidate_radixes(op, alg, p);
  std::vector<int> wanted = options.radixes;
  if (wanted.empty()) wanted = {1, 2, 3, 4, 8, 16};
  std::vector<int> out;
  for (int k : candidates) {
    if (std::find(wanted.begin(), wanted.end(), k) != wanted.end()) {
      out.push_back(k);
    }
  }
  // Fixed-radix baselines report a singleton candidate that may not be in
  // the wanted list (e.g. ring's k=1 is, binomial's k=2 is) — keep it so
  // baselines are never pruned away entirely.
  if (out.empty() && candidates.size() == 1) out.push_back(candidates.front());
  return out;
}

void push_unique(std::vector<Arm>& arms, const Arm& arm) {
  if (std::find(arms.begin(), arms.end(), arm) == arms.end()) {
    arms.push_back(arm);
  }
}

}  // namespace

std::vector<Arm> enumerate_arms(core::CollOp op, int p, std::size_t count,
                                std::size_t elem_size,
                                const ArmSpaceOptions& options) {
  std::vector<Arm> arms;
  core::CollParams params;
  params.op = op;
  params.p = p;
  params.root = 0;
  params.count = count;
  params.elem_size = elem_size;

  for (core::Algorithm alg : core::algorithms_for(op)) {
    for (int k : pruned_radixes(op, alg, p, options)) {
      params.k = k;
      if (!core::supports_params(alg, params)) continue;
      // Deduplicate by effective radix: binomial and knomial-k2 build the
      // same schedule, so one arm represents both.
      push_unique(arms, Arm{alg, core::effective_radix(alg, k), 1});
    }
  }

  std::vector<int> group_sizes = options.group_sizes;
  if (group_sizes.empty()) group_sizes = {2, 4, 8};
  for (int g : group_sizes) {
    if (g < 2 || p % g != 0 || p / g < 2) continue;
    for (core::Algorithm alg : core::algorithms_for(op)) {
      for (int k : pruned_radixes(op, alg, p / g, options)) {
        params.k = k;
        core::HierSpec spec;
        spec.group_size = g;
        spec.inter_alg = alg;
        spec.inter_k = k;
        if (!core::supports_hierarchical(spec, params)) continue;
        push_unique(arms, Arm{alg, core::effective_radix(alg, k), g});
      }
    }
  }
  return arms;
}

}  // namespace gencoll::service
