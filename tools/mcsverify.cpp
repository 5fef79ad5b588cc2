// tool_mcsverify — sweeps the IR verifier (netlist/verify_ir.hpp) over
// every network the repo can build: the paper catalog, the generator
// families, and composed/PPC elaborations under every 2-sort builder and
// PPC topology, each compiled to the one program form compile() produces.
//
//   tool_mcsverify                 full sweep (CI default)
//   tool_mcsverify --quick         catalog networks at 4 bits only
//   tool_mcsverify --bits 1,8      override the bit widths swept
//   tool_mcsverify --filter ppc    only configurations whose name matches
//   tool_mcsverify --mutate        also run the seeded mutation self-test
//                                  (each invariant class must be caught
//                                  with its own diagnostic)
//   tool_mcsverify --verbose       print every configuration checked
//
// Exit status 0 iff every compiled program verifies (and, with --mutate,
// every seeded mutation is rejected). This is the "check the construction,
// don't trust it" gate the SAT-certificate line of work argues for, run
// over the whole serving catalog in CI.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/verify_ir.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/compose.hpp"
#include "mcsn/nets/elaborate.hpp"

namespace {

using namespace mcsn;

struct NamedNetwork {
  std::string name;
  ComparatorNetwork net;
};

struct NamedBuilder {
  std::string name;
  Sort2Builder builder;
};

std::vector<NamedNetwork> sweep_networks(bool quick) {
  std::vector<NamedNetwork> nets;
  nets.push_back({"optimal_4", optimal_4()});
  nets.push_back({"optimal_7", optimal_7()});
  nets.push_back({"optimal_9", optimal_9()});
  nets.push_back({"size_optimal_10", size_optimal_10()});
  nets.push_back({"depth_optimal_10", depth_optimal_10()});
  if (quick) return nets;
  for (const int n : {2, 3, 5, 8, 13}) {
    nets.push_back({"batcher_" + std::to_string(n), batcher_odd_even(n)});
  }
  nets.push_back({"merger_8", odd_even_merger(8)});
  nets.push_back({"transposition_6", odd_even_transposition(6)});
  nets.push_back({"insertion_6", insertion_network(6)});
  // The arbitrary-shape composer families the serving stack builds on
  // demand (nets/compose/): recursive odd-even composition, the PPC
  // construction under both realizable tree cones, and an uneven merger.
  for (const int n : {12, 17, 24}) {
    nets.push_back({"composed_" + std::to_string(n),
                    composed_sort_network(n, /*prefer_depth=*/true)});
  }
  nets.push_back({"composed_11s", composed_sort_network(11, false)});
  nets.push_back(
      {"ppc_lf_13", ppc_sort_network(13, PpcTopology::ladner_fischer)});
  nets.push_back({"ppc_sklansky_11",
                  ppc_sort_network(11, PpcTopology::sklansky)});
  nets.push_back({"oemerge_5_3", odd_even_merge_network(5, 3)});
  return nets;
}

std::vector<NamedBuilder> sweep_builders(bool quick) {
  std::vector<NamedBuilder> builders;
  // The paper's MC 2-sort under every PPC topology — the composed/PPC
  // construction path the serving stack ships.
  for (const PpcTopology topo : kAllPpcTopologies) {
    builders.push_back(
        {"mc-" + std::string(ppc_topology_name(topo)),
         sort2_builder(Sort2Options{topo, OpStyle::simple_gates})});
    if (quick) break;
  }
  if (quick) return builders;
  builders.push_back(
      {"mc-aoi", sort2_builder(Sort2Options{PpcTopology::ladner_fischer,
                                            OpStyle::aoi_cells})});
  builders.push_back({"naive-trees", sort2_naive_trees_builder()});
  builders.push_back({"date17", sort2_date17_style_builder()});
  builders.push_back({"bincomp", bincomp_builder()});
  return builders;
}

/// One seeded mutation per invariant class: perturb a known-good program
/// and demand the verifier rejects it with the class's own diagnostic.
/// Mirrors the gtest suite (tests/verify_ir_test.cpp) so the CI sweep
/// binary is self-negative-testing too.
int run_mutation_selftest() {
  const Netlist nl =
      elaborate_network(optimal_4(), 4, sort2_builder(), "mutate_seed");
  const CompiledProgram prog = CompiledProgram::compile(nl);
  const IrImage clean = ir_image_of(prog);
  if (Status s = verify_ir(clean); !s.ok()) {
    std::fprintf(stderr, "mutation self-test seed failed verification: %s\n",
                 s.to_string().c_str());
    return 1;
  }

  struct Mutation {
    const char* name;
    const char* want_token;
    void (*apply)(IrImage&);
  };
  const Mutation mutations[] = {
      {"out-of-bounds slot", "slot-bounds",
       [](IrImage& ir) { ir.ops.back().out = static_cast<std::uint32_t>(
                             ir.slot_count + 7); }},
      {"corrupt level offsets", "level-structure",
       [](IrImage& ir) { ir.level_offsets.back() += 1; }},
      {"level offsets cleared", "level-structure",
       [](IrImage& ir) { ir.level_offsets.clear(); }},
      {"slot rewritten in the level that reads it", "early-reuse",
       [](IrImage& ir) {
         // The last op of the first level with two or more ops writes the
         // slot that level's first op reads: a race under level_ops().
         for (std::size_t l = 0; l + 1 < ir.level_offsets.size(); ++l) {
           const std::size_t first = ir.level_offsets[l];
           const std::size_t last = ir.level_offsets[l + 1] - 1;
           if (last > first) {
             ir.ops[last].out = ir.ops[first].in[0];
             return;
           }
         }
       }},
      {"constant slot handed to an op", "const-rewrite",
       [](IrImage& ir) {
         ir.const_inits.push_back({ir.ops[0].out, Trit::one});
       }},
      {"unread output overwritten", "output-rewrite",
       [](IrImage& ir) {
         CompiledOp op;
         op.kind = CellKind::inv;
         op.out = ir.output_slots[0];
         op.in = {ir.output_slots[1], 0, 0};
         ir.ops.push_back(op);
         ir.level_offsets.push_back(ir.ops.size());
       }},
      {"dangling operand read", "dangling-read",
       [](IrImage& ir) {
         ir.slot_count += 1;  // a slot nobody writes
         ir.ops[0].in[0] = static_cast<std::uint32_t>(ir.slot_count - 1);
       }},
      {"operand from a later level", "operand-level",
       [](IrImage& ir) {
         // Make the last op of level 0 read its neighbor's output: same
         // level, earlier in the stream — passes stream order, breaks
         // levelization.
         const std::size_t last = ir.level_offsets[1] - 1;
         ir.ops[last].in[0] = ir.ops[last - 1].out;
       }},
      {"orphan op", "orphan-op",
       [](IrImage& ir) {
         CompiledOp op;
         op.kind = CellKind::inv;
         op.out = static_cast<std::uint32_t>(ir.slot_count);
         op.in = {ir.output_slots[0], 0, 0};
         ir.slot_count += 1;
         ir.ops.push_back(op);
         ir.level_offsets.back() += 1;
       }},
  };

  int failures = 0;
  for (const Mutation& m : mutations) {
    IrImage mutated = clean;
    m.apply(mutated);
    const Status s = verify_ir(mutated);
    if (s.ok()) {
      std::fprintf(stderr, "MUTATION NOT CAUGHT: %s\n", m.name);
      ++failures;
    } else if (s.message().find(m.want_token) == std::string::npos) {
      std::fprintf(stderr,
                   "mutation '%s' caught with the wrong diagnostic: %s "
                   "(want token '%s')\n",
                   m.name, s.to_string().c_str(), m.want_token);
      ++failures;
    }
  }
  std::printf("mutation self-test: %zu invariant classes, %d escaped\n",
              std::size(mutations), failures);
  return failures == 0 ? 0 : 1;
}

std::vector<std::size_t> parse_bits_list(const char* arg) {
  std::vector<std::size_t> bits;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p || v == 0) {
      std::fprintf(stderr, "bad --bits list: %s\n", arg);
      std::exit(2);
    }
    bits.push_back(static_cast<std::size_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool verbose = false;
  bool mutate = false;
  std::string filter;
  std::vector<std::size_t> bits = {1, 2, 4, 8, 16};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg == "--bits" && i + 1 < argc) {
      bits = parse_bits_list(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--verbose] [--mutate] "
                   "[--filter SUBSTR] [--bits B1,B2,...]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) bits = {4};

  const std::vector<NamedNetwork> nets = sweep_networks(quick);
  const std::vector<NamedBuilder> builders = sweep_builders(quick);

  std::size_t checked = 0;
  std::size_t failures = 0;
  for (const NamedNetwork& net : nets) {
    for (const NamedBuilder& builder : builders) {
      for (const std::size_t b : bits) {
        const std::string base =
            net.name + "/" + builder.name + "/b" + std::to_string(b);
        if (!filter.empty() && base.find(filter) == std::string::npos) {
          continue;
        }
        const Netlist nl = elaborate_network(net.net, b, builder.builder);
        const CompiledProgram prog = CompiledProgram::compile(nl);
        const Status s = verify_ir(prog);
        ++checked;
        if (!s.ok()) {
          ++failures;
          std::fprintf(stderr, "FAIL %s: %s\n", base.c_str(),
                       s.to_string().c_str());
        } else if (verbose) {
          std::printf("ok   %s (%zu slots, %zu ops, %zu levels)\n",
                      base.c_str(), prog.slot_count(), prog.ops().size(),
                      prog.level_count());
        }
      }
    }
  }

  std::printf("mcsverify: %zu compiled programs checked, %zu failed\n",
              checked, failures);
  int rc = failures == 0 ? 0 : 1;
  if (mutate && run_mutation_selftest() != 0) rc = 1;
  return rc;
}
