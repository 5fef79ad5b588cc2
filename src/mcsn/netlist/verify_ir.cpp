#include "mcsn/netlist/verify_ir.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "mcsn/netlist/cell.hpp"

namespace mcsn {
namespace {

std::string slot_str(std::uint32_t slot) { return std::to_string(slot); }

Status fail(const char* token, std::string detail) {
  return Status::internal(std::string("verify_ir: ") + token + ": " +
                          std::move(detail));
}

/// Who wrote a slot, for rewrite and read-order diagnostics. Encoded as:
/// kUnwritten, kInput + i, kConst + i, or kOp + i.
constexpr std::size_t kUnwritten = static_cast<std::size_t>(-1);

std::string writer_str(std::size_t tag, const IrImage& ir) {
  if (tag < ir.input_slots.size()) {
    return "input #" + std::to_string(tag);
  }
  tag -= ir.input_slots.size();
  if (tag < ir.const_inits.size()) {
    return "const init #" + std::to_string(tag);
  }
  tag -= ir.const_inits.size();
  return "op #" + std::to_string(tag);
}

}  // namespace

IrImage ir_image_of(const CompiledProgram& prog) {
  IrImage ir;
  ir.slot_count = prog.slot_count();
  ir.ops.assign(prog.ops().begin(), prog.ops().end());
  ir.level_offsets.push_back(0);
  for (std::size_t l = 0; l < prog.level_count(); ++l) {
    ir.level_offsets.push_back(ir.level_offsets.back() +
                               prog.level_ops(l).size());
  }
  ir.input_slots.assign(prog.input_slots().begin(), prog.input_slots().end());
  ir.output_slots.assign(prog.output_slots().begin(),
                         prog.output_slots().end());
  ir.const_inits.assign(prog.const_inits().begin(), prog.const_inits().end());
  return ir;
}

Status verify_ir(const IrImage& ir) {
  const std::size_t n_ops = ir.ops.size();

  // --- level-structure: level_offsets is a monotone partition of ops.
  if (ir.level_offsets.empty()) {
    return fail("level-structure",
                "level_offsets is empty; a levelized program has at least "
                "{0}");
  }
  if (ir.level_offsets.front() != 0) {
    return fail("level-structure",
                "level_offsets[0] = " +
                    std::to_string(ir.level_offsets.front()) + ", want 0");
  }
  if (ir.level_offsets.back() != n_ops) {
    return fail("level-structure",
                "level_offsets.back() = " +
                    std::to_string(ir.level_offsets.back()) + ", want " +
                    std::to_string(n_ops) + " (the op count)");
  }
  for (std::size_t l = 0; l + 1 < ir.level_offsets.size(); ++l) {
    if (ir.level_offsets[l] > ir.level_offsets[l + 1]) {
      return fail("level-structure",
                  "level_offsets not monotone at level " + std::to_string(l));
    }
  }

  // --- slot-bounds: every slot index anyone will dereference is in range.
  // Note the executors read all three operand pins regardless of arity
  // (branch-free replay), so even unused pins must be in bounds.
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    const std::uint32_t s = ir.input_slots[i];
    if (s != CompiledProgram::kNoSlot && s >= ir.slot_count) {
      return fail("slot-bounds", "input #" + std::to_string(i) + " slot " +
                                     slot_str(s) + " >= slot_count " +
                                     std::to_string(ir.slot_count));
    }
  }
  for (std::size_t i = 0; i < ir.const_inits.size(); ++i) {
    if (ir.const_inits[i].slot >= ir.slot_count) {
      return fail("slot-bounds",
                  "const init #" + std::to_string(i) + " slot " +
                      slot_str(ir.const_inits[i].slot) + " >= slot_count " +
                      std::to_string(ir.slot_count));
    }
  }
  for (std::size_t o = 0; o < ir.output_slots.size(); ++o) {
    if (ir.output_slots[o] >= ir.slot_count) {
      return fail("slot-bounds", "output #" + std::to_string(o) + " slot " +
                                     slot_str(ir.output_slots[o]) +
                                     " >= slot_count " +
                                     std::to_string(ir.slot_count));
    }
  }
  for (std::size_t k = 0; k < n_ops; ++k) {
    const CompiledOp& op = ir.ops[k];
    if (op.out >= ir.slot_count) {
      return fail("slot-bounds", "op #" + std::to_string(k) + " out slot " +
                                     slot_str(op.out) + " >= slot_count " +
                                     std::to_string(ir.slot_count));
    }
    for (int j = 0; j < 3; ++j) {
      if (op.in[j] >= ir.slot_count) {
        return fail("slot-bounds",
                    "op #" + std::to_string(k) + " operand pin " +
                        std::to_string(j) + " slot " + slot_str(op.in[j]) +
                        " >= slot_count " + std::to_string(ir.slot_count));
      }
    }
  }

  // --- bad-op: the instruction stream holds gates only — input/const
  // kinds have no evaluation rule in the backends.
  for (std::size_t k = 0; k < n_ops; ++k) {
    if (!is_gate(ir.ops[k].kind)) {
      return fail("bad-op", "op #" + std::to_string(k) +
                                " has non-gate kind " +
                                std::string(cell_name(ir.ops[k].kind)));
    }
  }

  // --- Slot writes, replayed in schedule order. A step is a level (1-based;
  // inputs and constants are step 0). Per slot: the current value's writer
  // and step, and the last step that read it.
  std::vector<char> ever_written(ir.slot_count, 0);
  std::vector<char> pinned_const(ir.slot_count, 0);
  std::vector<char> pinned_output(ir.slot_count, 0);
  for (const std::uint32_t s : ir.input_slots) {
    if (s != CompiledProgram::kNoSlot) ever_written[s] = 1;
  }
  for (const CompiledProgram::ConstInit& c : ir.const_inits) {
    ever_written[c.slot] = 1;
    pinned_const[c.slot] = 1;
  }
  for (const CompiledOp& op : ir.ops) ever_written[op.out] = 1;
  for (const std::uint32_t s : ir.output_slots) pinned_output[s] = 1;

  std::vector<std::size_t> writer(ir.slot_count, kUnwritten);
  std::vector<std::size_t> write_step(ir.slot_count, 0);
  std::vector<std::size_t> read_step(ir.slot_count, 0);  // 0 = unread

  // --- const-rewrite: a constant is materialized once per executor, not
  // per run(), so its slot is written exactly once. output-rewrite: an
  // output slot may hold temporaries before its output, but a write never
  // lands on a value nothing has read, so the output, once written, stays
  // to the end of run(). early-reuse: a slot is rewritten only in a step
  // strictly after its current value was written and last read, so the
  // ops of one level never clobber each other's operands.
  const auto record_write = [&](std::uint32_t slot, std::size_t tag,
                                std::size_t step) -> Status {
    if (writer[slot] != kUnwritten) {
      const auto who = [&] {
        return "slot " + slot_str(slot) + " written by " +
               writer_str(writer[slot], ir) + " and again by " +
               writer_str(tag, ir);
      };
      if (pinned_const[slot]) {
        return fail("const-rewrite", who() + "; it holds a constant");
      }
      const std::size_t busy = std::max(write_step[slot], read_step[slot]);
      if (busy >= step) {
        return fail("early-reuse",
                    who() + " in step " + std::to_string(step) +
                        ", but its value is still in use in step " +
                        std::to_string(busy) + " (want a strictly later step)");
      }
      if (pinned_output[slot] && read_step[slot] == 0) {
        return fail("output-rewrite",
                    who() + "; it is an output slot and the value it "
                            "overwrites was never read");
      }
    }
    writer[slot] = tag;
    write_step[slot] = step;
    read_step[slot] = 0;
    return Status();
  };
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    if (ir.input_slots[i] == CompiledProgram::kNoSlot) continue;
    if (Status s = record_write(ir.input_slots[i], i, 0); !s.ok()) return s;
  }
  for (std::size_t i = 0; i < ir.const_inits.size(); ++i) {
    if (Status s = record_write(ir.const_inits[i].slot,
                                ir.input_slots.size() + i, 0);
        !s.ok()) {
      return s;
    }
  }

  // --- dangling-read / operand-order / operand-level: every operand an op
  // actually reads (per cell_arity) must already hold a value — written by
  // an input, a const init, or an earlier op. A read of a slot nobody ever
  // writes is a dangling read; a read of a slot written only later is a
  // schedule-order violation; a read of a value written in the reader's
  // own level is a level violation (ops within one level must be mutually
  // independent).
  std::size_t level = 0;
  for (std::size_t k = 0; k < n_ops; ++k) {
    while (k >= ir.level_offsets[level + 1]) ++level;
    const std::size_t step = level + 1;
    const CompiledOp& op = ir.ops[k];
    const int arity = cell_arity(op.kind);
    for (int j = 0; j < arity; ++j) {
      const std::uint32_t s = op.in[j];
      if (writer[s] == kUnwritten) {
        if (!ever_written[s]) {
          return fail("dangling-read",
                      "op #" + std::to_string(k) + " reads slot " +
                          slot_str(s) + ", which is never written");
        }
        return fail("operand-order",
                    "op #" + std::to_string(k) + " reads slot " +
                        slot_str(s) + " before any writer of it runs");
      }
      if (write_step[s] >= step) {
        return fail("operand-level",
                    "op #" + std::to_string(k) + " in level " +
                        std::to_string(step - 1) + " reads slot " +
                        slot_str(s) + " written in level " +
                        std::to_string(write_step[s] - 1) +
                        " (want a strictly earlier level)");
      }
      read_step[s] = step;  // steps never decrease along the stream
    }
    if (Status s = record_write(
            op.out, ir.input_slots.size() + ir.const_inits.size() + k, step);
        !s.ok()) {
      return s;
    }
  }

  // --- unwritten-output / unwritten-slot: declared outputs must carry a
  // value, and dense slot allocation means every slot has a writer — a
  // writer-less slot is an allocation bug (or a mutation).
  for (std::size_t o = 0; o < ir.output_slots.size(); ++o) {
    if (!ever_written[ir.output_slots[o]]) {
      return fail("unwritten-output",
                  "output #" + std::to_string(o) + " slot " +
                      slot_str(ir.output_slots[o]) + " has no writer");
    }
  }
  for (std::size_t s = 0; s < ir.slot_count; ++s) {
    if (!ever_written[s]) {
      return fail("unwritten-slot",
                  "slot " + std::to_string(s) +
                      " has no writer (slot allocation left a hole)");
    }
  }

  // --- orphan-op: every op must be transitively reachable from a declared
  // output. One reverse pass over
  // the stream tracks which slots hold a needed value: an op's write ends
  // the need for its slot (earlier writers of a reused slot fed other
  // readers) and starts the need for its operands.
  std::vector<char> needed(ir.slot_count, 0);
  for (const std::uint32_t s : ir.output_slots) needed[s] = 1;
  std::size_t orphan = n_ops;
  for (std::size_t k = n_ops; k-- > 0;) {
    const CompiledOp& op = ir.ops[k];
    if (!needed[op.out]) {
      orphan = k;
      continue;
    }
    needed[op.out] = 0;
    const int arity = cell_arity(op.kind);
    for (int j = 0; j < arity; ++j) needed[op.in[j]] = 1;
  }
  if (orphan < n_ops) {
    return fail("orphan-op", "op #" + std::to_string(orphan) + " (out slot " +
                                 slot_str(ir.ops[orphan].out) +
                                 ") is unreachable from every declared "
                                 "output");
  }

  return Status();
}

Status verify_ir(const CompiledProgram& prog) {
  return verify_ir(ir_image_of(prog));
}

}  // namespace mcsn
