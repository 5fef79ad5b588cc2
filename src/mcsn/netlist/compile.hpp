#pragma once
// Compiled netlist evaluation: lowers a Netlist into a flat, levelized
// instruction stream executed by one templated engine over pluggable lane
// backends.
//
// NodeWalkEvaluator (eval.hpp) re-dispatches on CellKind per node and
// chases GateNode fanins through the full node array on every call.
// CompiledProgram pays those costs once, and every compile() produces the
// same one program form:
//
//   * dead-node elimination  — gates no output depends on are dropped;
//   * reused operand slots   — inputs, then constants, take the first slots;
//                              each gate takes a slot freed by a value whose
//                              last reader ran in an earlier level, so the
//                              buffer holds only what is live at once (772
//                              slots for 12,617 gates at 10x16). Constants
//                              and outputs keep their slots;
//   * levelization           — gates are scheduled by logic level; ops within
//                              one level are mutually independent, which
//                              level_ops() exposes;
//   * constant folding into initialization — tie cells are materialized once
//                              per executor, not re-evaluated per run.
//
// One CompiledProgram serves every backend width: the 64-lane PackedTrit
// backend and the 256-lane PackedTrit256 backend.
// BatchEvaluator packs arbitrary numbers of input vectors into wide lane
// groups and optionally shards groups across a ThreadPool it starts once,
// at construction — never a std::thread spawn per run_flat().

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mcsn/core/packed.hpp"
#include "mcsn/netlist/cell.hpp"
#include "mcsn/netlist/netlist.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace mcsn {

/// One lowered gate: dst/src are dense slot indices, not NodeIds.
struct CompiledOp {
  CellKind kind = CellKind::inv;
  std::uint32_t out = 0;
  std::array<std::uint32_t, 3> in{0, 0, 0};
};

class CompiledProgram {
 public:
  /// Slot index marking a dead (eliminated) input.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct ConstInit {
    std::uint32_t slot = 0;
    Trit value = Trit::zero;
  };

  [[nodiscard]] static CompiledProgram compile(const Netlist& nl);

  /// Size of the value buffer an executor must provide: with reused slots,
  /// the most values live at once.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  [[nodiscard]] std::size_t input_count() const noexcept {
    return input_slots_.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept {
    return output_slots_.size();
  }

  /// Lowered gates in schedule (level, creation) order.
  [[nodiscard]] std::span<const CompiledOp> ops() const noexcept {
    return ops_;
  }

  /// Number of logic levels (depth of the scheduled gate DAG).
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
  }

  /// Ops of one level (0-based). All ops within a level are independent of
  /// each other — safe to execute concurrently.
  [[nodiscard]] std::span<const CompiledOp> level_ops(
      std::size_t level) const {
    assert(level + 1 < level_offsets_.size());
    return std::span<const CompiledOp>(ops_).subspan(
        level_offsets_[level], level_offsets_[level + 1] - level_offsets_[level]);
  }

  /// Slot of primary input i (creation order); kNoSlot if the input is dead.
  [[nodiscard]] std::span<const std::uint32_t> input_slots() const noexcept {
    return input_slots_;
  }

  /// Slot of output o (mark_output order).
  [[nodiscard]] std::span<const std::uint32_t> output_slots() const noexcept {
    return output_slots_;
  }

  /// Constant cells, materialized once per executor.
  [[nodiscard]] std::span<const ConstInit> const_inits() const noexcept {
    return const_inits_;
  }

  /// Gates surviving dead-node elimination.
  [[nodiscard]] std::size_t live_gate_count() const noexcept {
    return ops_.size();
  }

 private:
  std::size_t slot_count_ = 0;
  std::vector<CompiledOp> ops_;
  std::vector<std::size_t> level_offsets_;  // level l ops: [l], [l+1])
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<ConstInit> const_inits_;
};

// --- Lane backends ----------------------------------------------------------
//
// A backend supplies the value type for one executor lane group plus splat /
// eval / lane accessors. kLanes is the number of independent input vectors
// one run evaluates.

struct Packed64Backend {
  using Value = PackedTrit;
  static constexpr int kLanes = 64;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit::splat(t);
  }
  [[nodiscard]] static constexpr Value eval(CellKind k, Value a, Value b,
                                            Value c) noexcept {
    return cell_eval_packed(k, a, b, c);
  }
  [[nodiscard]] static constexpr Trit get_lane(const Value& v,
                                               int lane) noexcept {
    return v.lane(lane);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

struct Packed256Backend {
  using Value = PackedTrit256;
  static constexpr int kLanes = PackedTrit256::kLanes;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit256::splat(t);
  }
  [[nodiscard]] static constexpr Value eval(CellKind k, const Value& a,
                                            const Value& b,
                                            const Value& c) noexcept {
    return cell_eval_wide(k, a, b, c);
  }
  [[nodiscard]] static constexpr Trit get_lane(const Value& v,
                                               int lane) noexcept {
    return v.lane(lane);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

// --- Templated executor -----------------------------------------------------

/// Executes a CompiledProgram over one lane backend. Non-owning: the program
/// must outlive the executor. Reusable; the slot buffer is allocated once.
template <class Backend>
class CompiledExecutor {
 public:
  using Value = typename Backend::Value;

  explicit CompiledExecutor(const CompiledProgram& prog)
      : prog_(&prog), slots_(prog.slot_count()) {
    for (const CompiledProgram::ConstInit& c : prog_->const_inits()) {
      slots_[c.slot] = Backend::splat(c.value);
    }
  }

  /// `inputs` are assigned to primary inputs in creation order (one Value
  /// per input, each carrying Backend::kLanes independent vectors). Returns
  /// the full slot buffer; valid until the next run().
  std::span<const Value> run(std::span<const Value> inputs) {
    const std::span<const std::uint32_t> in_slots = prog_->input_slots();
    assert(inputs.size() == in_slots.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (in_slots[i] != CompiledProgram::kNoSlot) {
        slots_[in_slots[i]] = inputs[i];
      }
    }
    Value* const s = slots_.data();
    for (const CompiledOp& op : prog_->ops()) {
      s[op.out] = Backend::eval(op.kind, s[op.in[0]], s[op.in[1]], s[op.in[2]]);
    }
    return slots_;
  }

  /// Value of output o (mark_output order) from the last run.
  [[nodiscard]] const Value& output(std::size_t o) const {
    return slots_[prog_->output_slots()[o]];
  }

  /// Lane `lane` of output o from the last run.
  [[nodiscard]] Trit output_lane(std::size_t o, int lane) const {
    return Backend::get_lane(output(o), lane);
  }

  [[nodiscard]] const CompiledProgram& program() const noexcept {
    return *prog_;
  }

 private:
  const CompiledProgram* prog_;
  std::vector<Value> slots_;
};

// --- Batch evaluation -------------------------------------------------------

struct BatchOptions {
  /// Parallelism target: 1 = serial, 0 = hardware concurrency. run_flat()
  /// shards 256-lane groups across this many threads (capped by the group
  /// count); above 1 the evaluator starts a pool of threads - 1 workers
  /// when it is constructed.
  int threads = 1;
};

/// High-throughput evaluation of many input vectors: transposes them into
/// 256-lane groups (pack_lanes), runs the compiled program per group, and
/// transposes the outputs back (unpack_lanes), distributing work over its
/// ThreadPool when it has one (one shard of lane groups per thread).
/// Thread-safe: concurrent run_flat() calls share the pool.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Netlist& nl, const BatchOptions& opt = {});

  [[nodiscard]] std::size_t input_width() const noexcept {
    return prog_.input_count();
  }
  [[nodiscard]] std::size_t output_width() const noexcept {
    return prog_.output_count();
  }
  [[nodiscard]] const CompiledProgram& program() const noexcept {
    return prog_;
  }

  /// `inputs` holds N input vectors back to back (N x input_width() trits,
  /// vector-major) and results are written into `outputs`
  /// (N x output_width() trits). Each 256-round group is transposed
  /// straight from the flat input into lanes and back into the flat
  /// output, and a trailing partial group is handled transparently.
  /// Preconditions (asserted): inputs.size() divisible by input_width(),
  /// outputs sized to match; with no inputs, outputs.size() /
  /// output_width() rows are evaluated. Thread-safe: concurrent calls
  /// share the pool.
  void run_flat(std::span<const Trit> inputs, std::span<Trit> outputs) const;

 private:
  CompiledProgram prog_;
  int parallel_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when parallel_ <= 1
};

}  // namespace mcsn
