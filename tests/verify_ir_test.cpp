// Tests for the CompiledProgram IR verifier (netlist/verify_ir.hpp).
//
// Positive direction: every catalog network, elaborated under several
// builders and compiled to the one program form compile() produces, must
// verify — including the programs actually held by each lane backend's
// executor and by BatchEvaluator. Negative direction: a seeded mutation
// suite perturbs a known-good IrImage one invariant at a time and
// demands the verifier reject each mutant with that invariant's own
// diagnostic token, proving the checks are independent (a verifier that
// catches everything as "level-structure" would pass a weaker test).

#include "mcsn/netlist/verify_ir.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/elaborate.hpp"

namespace mcsn {
namespace {

TEST(VerifyIr, AllCatalogNetworksVerify) {
  for (const ComparatorNetwork& net : paper_networks()) {
    for (const std::size_t bits : {1u, 4u, 8u}) {
      const Netlist nl = elaborate_network(net, bits, sort2_builder(),
                                           net.name() + "_verify");
      const Status s = verify_ir(CompiledProgram::compile(nl));
      EXPECT_TRUE(s.ok()) << net.name() << " bits=" << bits << ": "
                          << s.to_string();
    }
  }
}

TEST(VerifyIr, GeneratorFamiliesAndAllBuildersVerify) {
  const struct {
    const char* name;
    Sort2Builder builder;
  } builders[] = {
      {"mc", sort2_builder()},
      {"naive", sort2_naive_trees_builder()},
      {"date17", sort2_date17_style_builder()},
      {"bincomp", bincomp_builder()},
  };
  for (const auto& b : builders) {
    for (const ComparatorNetwork& net :
         {batcher_odd_even(6), odd_even_merger(4), odd_even_transposition(5),
          insertion_network(5)}) {
      const Netlist nl = elaborate_network(net, 4, b.builder);
      const CompiledProgram prog = CompiledProgram::compile(nl);
      const Status s = verify_ir(prog);
      EXPECT_TRUE(s.ok()) << b.name << "/" << net.name() << ": "
                          << s.to_string();
    }
  }
}

// The program each lane backend actually executes is the program the
// verifier blesses: construct every executor flavor and verify the IR it
// holds. The backends share CompiledProgram, so this pins the claim that
// "verified at compile()" covers 64-lane, 256-lane, and batch execution
// alike.
TEST(VerifyIr, EveryLaneBackendExecutesAVerifiedProgram) {
  const Netlist nl = elaborate_network(optimal_9(), 8, sort2_builder());
  const CompiledProgram prog = CompiledProgram::compile(nl);

  const CompiledExecutor<Packed64Backend> packed64(prog);
  EXPECT_TRUE(verify_ir(packed64.program()).ok());

  const CompiledExecutor<Packed256Backend> packed256(prog);
  EXPECT_TRUE(verify_ir(packed256.program()).ok());

  const BatchEvaluator batch(nl);
  EXPECT_TRUE(verify_ir(batch.program()).ok());
}

// ---------------------------------------------------------------------------
// Mutation suite: one mutator per invariant class, each caught with its
// own diagnostic token.

class VerifyIrMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    const Netlist nl =
        elaborate_network(optimal_4(), 4, sort2_builder(), "mutation_seed");
    clean_ = ir_image_of(CompiledProgram::compile(nl));
    ASSERT_TRUE(verify_ir(clean_).ok());
    ASSERT_GE(clean_.ops.size(), 2u);
    ASSERT_GE(clean_.level_offsets.size(), 3u);
  }

  /// Makes the last op of the first level with two or more ops write the
  /// slot that level's first op reads on pin 0.
  static void reuse_in_reading_level(IrImage& m) {
    for (std::size_t l = 0; l + 1 < m.level_offsets.size(); ++l) {
      const std::size_t first = m.level_offsets[l];
      const std::size_t last = m.level_offsets[l + 1] - 1;
      if (last > first) {
        m.ops[last].out = m.ops[first].in[0];
        return;
      }
    }
  }

  /// Appends a last level whose one op overwrites output 0's slot.
  static void rewrite_output(IrImage& m) {
    CompiledOp op;
    op.kind = CellKind::inv;
    op.out = m.output_slots[0];
    op.in = {m.output_slots[1], 0, 0};
    m.ops.push_back(op);
    m.level_offsets.push_back(m.ops.size());
  }

  /// Asserts the mutated image fails verification and the diagnostic
  /// carries `token` — the class-specific tag, not just any error.
  void expect_rejected(const IrImage& mutated, const std::string& token) {
    const Status s = verify_ir(mutated);
    ASSERT_FALSE(s.ok()) << "mutation not caught (want token '" << token
                         << "')";
    EXPECT_NE(s.message().find(token), std::string::npos)
        << "wrong diagnostic for token '" << token << "': " << s.to_string();
  }

  IrImage clean_;
};

TEST_F(VerifyIrMutation, OperandFromSameLevelIsCaught) {
  // Class: wrong-level operand. The last op of level 0 reads its stream
  // predecessor's output — fine by stream order, illegal by levelization.
  IrImage m = clean_;
  const std::size_t last = m.level_offsets[1] - 1;
  ASSERT_GE(last, 1u);
  m.ops[last].in[0] = m.ops[last - 1].out;
  expect_rejected(m, "operand-level");
}

TEST_F(VerifyIrMutation, RewriteInTheReadingLevelIsCaught) {
  // Class: early slot reuse. The last op of a level overwrites a slot the
  // level's first op reads: fine in stream order, a race under
  // level_ops() slicing.
  IrImage m = clean_;
  reuse_in_reading_level(m);
  expect_rejected(m, "early-reuse");
}

TEST_F(VerifyIrMutation, SameLevelDoubleWriteIsCaught) {
  // Class: early slot reuse — two ops of one level write one slot.
  IrImage m = clean_;
  m.ops[1].out = m.ops[0].out;
  expect_rejected(m, "early-reuse");
}

TEST_F(VerifyIrMutation, ConstSlotRewriteIsCaught) {
  // Class: a constant's slot handed to an op. run() does not materialize
  // constants again, so a reused executor would read the op's value.
  IrImage m = clean_;
  m.const_inits.push_back({m.ops[0].out, Trit::one});
  expect_rejected(m, "const-rewrite");
}

TEST_F(VerifyIrMutation, OutputSlotRewriteIsCaught) {
  // Class: an op in a new last level overwrites output 0, which nothing
  // has read: the output is lost.
  IrImage m = clean_;
  rewrite_output(m);
  expect_rejected(m, "output-rewrite");
}

TEST_F(VerifyIrMutation, DanglingReadIsCaught) {
  // Class: read of a slot nothing ever writes.
  IrImage m = clean_;
  m.slot_count += 1;
  m.ops[0].in[0] = static_cast<std::uint32_t>(m.slot_count - 1);
  expect_rejected(m, "dangling-read");
}

TEST_F(VerifyIrMutation, ReadBeforeWriteIsCaught) {
  // Class: operand order — the slot IS written, but later in the stream
  // than the reader. The highest slot is first handed out to a later op
  // (inputs take the lowest slots, and op 0 the next one).
  IrImage m = clean_;
  m.ops[0].in[0] = static_cast<std::uint32_t>(m.slot_count - 1);
  expect_rejected(m, "");  // any rejection...
  const Status s = verify_ir(m);
  // ...but specifically as an ordering/level violation, not a dangling read.
  EXPECT_EQ(s.message().find("dangling-read"), std::string::npos)
      << s.to_string();
}

TEST_F(VerifyIrMutation, OrphanOpIsCaught) {
  // Class: op no output transitively depends on (dead-node elimination
  // promised none survive).
  IrImage m = clean_;
  CompiledOp op;
  op.kind = CellKind::inv;
  op.out = static_cast<std::uint32_t>(m.slot_count);
  op.in = {m.output_slots[0], 0, 0};
  m.slot_count += 1;
  m.ops.push_back(op);
  m.level_offsets.back() += 1;
  expect_rejected(m, "orphan-op");
}

TEST_F(VerifyIrMutation, OutOfBoundsSlotIsCaught) {
  IrImage m = clean_;
  m.ops.back().out = static_cast<std::uint32_t>(m.slot_count + 7);
  expect_rejected(m, "slot-bounds");
}

TEST_F(VerifyIrMutation, CorruptLevelOffsetsAreCaught) {
  IrImage m = clean_;
  m.level_offsets.back() += 1;
  expect_rejected(m, "level-structure");

  // compile() always levelizes, so a program without a level partition is
  // malformed, not a different mode.
  IrImage cleared = clean_;
  cleared.level_offsets.clear();
  expect_rejected(cleared, "level-structure");
}

TEST_F(VerifyIrMutation, UnwrittenOutputIsCaught) {
  IrImage m = clean_;
  m.slot_count += 1;
  m.output_slots[0] = static_cast<std::uint32_t>(m.slot_count - 1);
  expect_rejected(m, "unwritten-output");
}

TEST_F(VerifyIrMutation, DistinctDiagnosticsPerClass) {
  // The acceptance bar: the invariant classes are caught with DIFFERENT
  // diagnostics. Collect the tokens the suite above relies on.
  std::vector<std::string> tokens;

  IrImage wrong_level = clean_;
  const std::size_t last = wrong_level.level_offsets[1] - 1;
  wrong_level.ops[last].in[0] = wrong_level.ops[last - 1].out;
  tokens.push_back(verify_ir(wrong_level).message());

  IrImage reuse = clean_;
  reuse_in_reading_level(reuse);
  tokens.push_back(verify_ir(reuse).message());

  IrImage const_rewrite = clean_;
  const_rewrite.const_inits.push_back({const_rewrite.ops[0].out, Trit::one});
  tokens.push_back(verify_ir(const_rewrite).message());

  IrImage output_rewrite = clean_;
  rewrite_output(output_rewrite);
  tokens.push_back(verify_ir(output_rewrite).message());

  IrImage dangling = clean_;
  dangling.slot_count += 1;
  dangling.ops[0].in[0] = static_cast<std::uint32_t>(dangling.slot_count - 1);
  tokens.push_back(verify_ir(dangling).message());

  IrImage orphan = clean_;
  CompiledOp op;
  op.kind = CellKind::inv;
  op.out = static_cast<std::uint32_t>(orphan.slot_count);
  op.in = {orphan.output_slots[0], 0, 0};
  orphan.slot_count += 1;
  orphan.ops.push_back(op);
  orphan.level_offsets.back() += 1;
  tokens.push_back(verify_ir(orphan).message());

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_FALSE(tokens[i].empty());
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      EXPECT_NE(tokens[i], tokens[j])
          << "classes " << i << " and " << j << " share a diagnostic";
    }
  }
}

}  // namespace
}  // namespace mcsn
