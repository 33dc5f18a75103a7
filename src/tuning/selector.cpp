#include "tuning/selector.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hierarchy.hpp"

namespace gencoll::tuning {

void SelectionConfig::add_rule(SelectionRule rule) {
  for (const SelectionRule& existing : rules_) {
    if (existing.op == rule.op && existing.min_bytes == rule.min_bytes &&
        existing.max_bytes == rule.max_bytes) {
      throw std::invalid_argument(
          "selection config: duplicate rule for (" +
          std::string(core::coll_op_name(rule.op)) + ", " +
          std::to_string(rule.min_bytes) + ", " +
          (rule.max_bytes == SIZE_MAX ? std::string("inf")
                                      : std::to_string(rule.max_bytes)) +
          ") — one clause would silently shadow the other");
    }
  }
  rules_.push_back(rule);
}

std::optional<AlgorithmChoice> SelectionConfig::lookup(core::CollOp op,
                                                       std::size_t nbytes) const {
  // Most-specific-wins: the matching rule covering the narrowest byte range.
  // Strict < on the width makes the tie-break declaration order (the first
  // equally specific match is kept), so lookups are deterministic under rule
  // reordering only when specificities differ — which is exactly the
  // property serialized configs rely on.
  const SelectionRule* best = nullptr;
  std::size_t best_width = SIZE_MAX;
  for (const SelectionRule& rule : rules_) {
    if (!rule.matches(op, nbytes)) continue;
    const std::size_t width = rule.max_bytes - rule.min_bytes;
    if (best == nullptr || width < best_width) {
      best = &rule;
      best_width = width;
    }
  }
  if (best == nullptr) return std::nullopt;
  return AlgorithmChoice{best->algorithm, best->k, best->group_size, best->levels,
                         best->flat_pinned};
}

AlgorithmChoice SelectionConfig::choose(core::CollOp op, int p,
                                        std::size_t nbytes) const {
  if (const auto choice = lookup(op, nbytes)) return *choice;
  return vendor_default(op, p, nbytes);
}

void SelectionConfig::save(std::ostream& os) const {
  os << "# gencoll selection config v1\n";
  if (!machine.empty()) {
    os << "machine " << machine << " nodes " << nodes << " ppn " << ppn << "\n";
  }
  for (const SelectionRule& rule : rules_) {
    os << "rule " << core::coll_op_name(rule.op) << ' ' << rule.min_bytes << ' ';
    if (rule.max_bytes == SIZE_MAX) {
      os << "inf";
    } else {
      os << rule.max_bytes;
    }
    os << ' ' << core::algorithm_name(rule.algorithm) << ' ' << rule.k;
    if (rule.group_size > 1) {
      os << " hier ";
      if (rule.levels.empty()) {
        os << rule.group_size;
      } else {
        os << core::hier_format_levels(rule.levels);
      }
      os << " shm";
    } else if (rule.flat_pinned) {
      os << " hier 1";
    }
    os << "\n";
  }
}

SelectionConfig SelectionConfig::load(std::istream& is) {
  SelectionConfig config;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("selection config line " + std::to_string(line_no) +
                               ": " + why);
    };
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    if (word == "machine") {
      std::string nodes_kw;
      std::string ppn_kw;
      if (!(ls >> config.machine >> nodes_kw >> config.nodes >> ppn_kw >> config.ppn) ||
          nodes_kw != "nodes" || ppn_kw != "ppn") {
        fail("malformed machine header");
      }
      continue;
    }
    if (word != "rule") fail("unknown directive '" + word + "'");

    SelectionRule rule;
    std::string op_name;
    std::string max_text;
    std::string alg_name;
    if (!(ls >> op_name >> rule.min_bytes >> max_text >> alg_name >> rule.k)) {
      fail("malformed rule");
    }
    const auto op = core::parse_coll_op(op_name);
    if (!op) fail("unknown op '" + op_name + "'");
    rule.op = *op;
    if (max_text == "inf") {
      rule.max_bytes = SIZE_MAX;
    } else {
      try {
        rule.max_bytes = std::stoull(max_text);
      } catch (...) {
        fail("bad max_bytes '" + max_text + "'");
      }
    }
    const auto alg = core::parse_algorithm(alg_name);
    if (!alg) fail("unknown algorithm '" + alg_name + "'");
    rule.algorithm = *alg;
    if (rule.k < 1) fail("k must be >= 1");
    if (std::string clause; ls >> clause) {
      if (clause != "hier") fail("unknown rule clause '" + clause + "'");
      std::string shape;
      if (!(ls >> shape)) {
        fail("malformed hier clause (want: hier <g|LxM...> shm)");
      }
      if (shape == "1") {
        // Pinned flat: there is no intra phase, so no transport word.
        rule.flat_pinned = true;
      } else {
        std::string intra_name;
        if (!(ls >> intra_name)) {
          fail("malformed hier clause (want: hier <g|LxM...> shm)");
        }
        // A bare integer is the original flat composition; an 'x'-joined
        // vector selects the multi-level intra tree. Both go through the
        // topology parser so rejection is uniform.
        const auto parsed = core::hier_parse_levels(shape);
        if (!parsed) fail("bad hier group shape '" + shape + "'");
        rule.group_size = core::hier_levels_product(*parsed);
        if (rule.group_size < 2) fail("hier group size must be >= 2");
        if (shape.find('x') != std::string::npos) {
          rule.levels = core::hier_canonical_levels(*parsed);
          for (int entry : rule.levels) {
            if (entry < 2) fail("bad hier group shape '" + shape + "'");
          }
        }
        if (intra_name == "mailbox") {
          fail("hier transport 'mailbox' cannot be configured: the mailbox route is "
               "chosen automatically on reliable or fault-injected Worlds (write "
               "'hier " + shape + " shm')");
        }
        if (intra_name != "shm") {
          fail("unknown hier intra transport '" + intra_name + "'");
        }
      }
      if (std::string extra; ls >> extra) {
        fail("trailing token '" + extra + "' after hier clause");
      }
    }
    try {
      config.add_rule(rule);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
  return config;
}

void SelectionConfig::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save(os);
}

SelectionConfig SelectionConfig::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load(is);
}

}  // namespace gencoll::tuning
