// Selection configuration: the gencoll analogue of MPICH's collective
// tuning file (paper §VI-G). A config is a rule list mapping (operation,
// message-size range) to (algorithm, radix); lookup is deterministic
// most-specific-wins — the matching rule with the narrowest byte range, and
// on equal widths the one declared first — so a broad fallback rule and a
// pinpoint override coexist regardless of declaration order. Two clauses for
// the same (op, min, max) key are rejected at insertion instead of silently
// shadowing each other. Configs round-trip through a line-oriented text file
// so one environment-variable-style switch re-tunes a whole application.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/coll_params.hpp"
#include "tuning/vendor_policy.hpp"

namespace gencoll::tuning {

struct SelectionRule {
  core::CollOp op = core::CollOp::kBcast;
  std::size_t min_bytes = 0;                    ///< inclusive
  std::size_t max_bytes = SIZE_MAX;             ///< exclusive; SIZE_MAX = open
  core::Algorithm algorithm = core::Algorithm::kBinomial;
  int k = 2;
  /// Hierarchical clause (`hier <g|LxM[xN...]> shm` in the file format):
  /// group_size > 1 makes `algorithm` the inter-group kernel over ceil(p/g)
  /// leaders. 1 = flat rule.
  int group_size = 1;
  /// Multi-level intra tree (core/hierarchy.hpp): set when the hier clause
  /// spells the group size as an 'x'-joined level vector ("2x4"); empty for
  /// a bare integer (the original flat fan-in). group_size always holds the
  /// product.
  std::vector<int> levels;
  /// `hier 1`: a flat rule that opts out of the co-located default
  /// composition (AlgorithmChoice::flat_pinned).
  bool flat_pinned = false;

  [[nodiscard]] bool matches(core::CollOp o, std::size_t nbytes) const {
    return o == op && nbytes >= min_bytes && nbytes < max_bytes;
  }
};

class SelectionConfig {
 public:
  SelectionConfig() = default;

  /// Append a rule. Throws std::invalid_argument when a rule with the same
  /// (op, min_bytes, max_bytes) key already exists — a duplicate clause is a
  /// config bug (one of the two would silently shadow the other).
  void add_rule(SelectionRule rule);
  [[nodiscard]] const std::vector<SelectionRule>& rules() const { return rules_; }
  /// Mutable access for post-processing (e.g. the autotuner's rule merging).
  [[nodiscard]] std::vector<SelectionRule>& mutable_rules() { return rules_; }

  /// Header fields: the machine name and scale the config was tuned for.
  /// `ppn` >= 2 also declares that consecutive blocks of ppn ranks share a
  /// node, which turns on Collectives' co-located default composition
  /// (api/gencoll.hpp); `machine` and `nodes` are informational.
  std::string machine;
  int nodes = 0;
  int ppn = 0;

  /// Most-specific matching rule (narrowest byte range; ties broken by
  /// declaration order), or nullopt (caller falls back to vendor_default).
  [[nodiscard]] std::optional<AlgorithmChoice> lookup(core::CollOp op,
                                                      std::size_t nbytes) const;

  /// Resolve with fallback: config rule if present, else vendor_default.
  [[nodiscard]] AlgorithmChoice choose(core::CollOp op, int p, std::size_t nbytes) const;

  /// Line-oriented serialization:
  ///   # comments
  ///   machine <name> nodes <n> ppn <n>
  ///   rule <op> <min_bytes> <max_bytes|inf> <algorithm> <k> [hier <shape> shm]
  ///   rule <op> <min_bytes> <max_bytes|inf> <algorithm> <k> hier 1
  /// where <shape> is a bare integer group size >= 2 (flat intra fan-in) or
  /// an 'x'-joined level vector like `2x4` (multi-level intra tree, every
  /// factor >= 2). `shm` is the clause's one transport word: the transport
  /// picks the intra route (shared segments on a plain World, mailbox
  /// messages on a reliable or fault-injected one), so `mailbox` is
  /// rejected. `hier 1` pins the rule flat (no default composition) and
  /// takes no transport word. A malformed or truncated hier clause — or any
  /// trailing token — fails the load.
  void save(std::ostream& os) const;
  static SelectionConfig load(std::istream& is);  ///< throws on parse errors

  void save_file(const std::string& path) const;
  static SelectionConfig load_file(const std::string& path);

 private:
  std::vector<SelectionRule> rules_;
};

}  // namespace gencoll::tuning
