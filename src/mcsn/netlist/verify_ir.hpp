#pragma once
// Structural verifier for the compiled netlist IR.
//
// CompiledProgram is the trusted core of every execution path — the lane
// backends replay its instruction stream with zero per-op checking, so a
// malformed program (an out-of-range slot, an operand scheduled after its
// reader, a slot reused while its value is still needed) is silent memory
// corruption or a wrong sort, not an error message. verify_ir() makes
// those invariants checked instead of assumed:
//
//   * bounds         — every slot index (inputs, outputs, const inits, op
//                      operands and destinations) is < slot_count(), and
//                      level_offsets is a monotone partition of the ops;
//   * gate stream    — the instruction stream contains only real gates
//                      (no input/const kinds) with in-arity operands;
//   * slot reuse     — compile() hands a slot to a new value once the old
//                      one is dead: a slot is rewritten only in a level
//                      strictly after its current value was written and
//                      last read, a const-init slot is written exactly
//                      once, and a write to an output slot never lands on
//                      a value nothing has read;
//   * schedule order — every operand an op actually reads (per
//                      cell_arity) was written strictly earlier in the
//                      stream, in a strictly earlier level;
//   * no holes       — every slot has a writer;
//   * reachability   — every declared output has a writer, and every op
//                      is transitively reachable from an output, i.e.
//                      dead-node elimination left no orphan ops.
//
// compile() has one program form (levelized, dead nodes eliminated), so
// there is one strictness: a program that is not levelized, or that keeps
// an op no output needs, is rejected.
//
// Each violated invariant produces a distinct, greppable diagnostic token
// in the Status message ("slot-bounds", "level-structure", "bad-op",
// "early-reuse", "const-rewrite", "output-rewrite", "unwritten-slot",
// "dangling-read", "operand-order", "operand-level", "unwritten-output",
// "orphan-op") with the offending indices — precise enough that a failed
// CI sweep names the broken op.
//
// The IR names slots, not netlist nodes, so a read sees whatever value its
// slot holds at that point of the stream. A reuse that makes a later op
// read the new value instead of the old one is therefore a different but
// well-formed program, invisible here; the differential tests against
// NodeWalkEvaluator guard that case.
//
// The pass runs automatically at the end of CompiledProgram::compile() in
// debug builds and in sanitizer builds (MCSN_VERIFY, defined by CMake
// whenever MCSN_SANITIZE is set); release builds pay nothing. It is also
// exposed as `tool_mcsverify`, which sweeps the whole catalog plus
// composed/PPC-elaborated networks.
//
// IrImage exists for negative testing: CompiledProgram's fields are
// private and compile() only ever produces valid programs, so the
// mutation suite (tests/verify_ir_test.cpp) perturbs an owning snapshot
// instead — one mutator per invariant class proves each check actually
// fires, with its own diagnostic.

#include <cstdint>
#include <vector>

#include "mcsn/api/status.hpp"
#include "mcsn/netlist/compile.hpp"

namespace mcsn {

/// An owning, mutable snapshot of a CompiledProgram's structure — same
/// fields, public. Extract with ir_image_of(), perturb freely, verify.
struct IrImage {
  std::size_t slot_count = 0;
  std::vector<CompiledOp> ops;
  /// Level l's ops are [level_offsets[l], level_offsets[l + 1]).
  std::vector<std::size_t> level_offsets;
  std::vector<std::uint32_t> input_slots;   // kNoSlot = dead input
  std::vector<std::uint32_t> output_slots;
  std::vector<CompiledProgram::ConstInit> const_inits;
};

/// Snapshot of `prog` for mutation testing / standalone verification.
[[nodiscard]] IrImage ir_image_of(const CompiledProgram& prog);

/// Checks every invariant above; OK, or the first violation found with a
/// precise diagnostic. Runs in O(slots + ops) time and memory.
[[nodiscard]] Status verify_ir(const IrImage& ir);

/// Convenience overload over a live program (snapshots internally).
[[nodiscard]] Status verify_ir(const CompiledProgram& prog);

}  // namespace mcsn
