#include "mcsn/netlist/compile.hpp"

#include <algorithm>

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
#include <cstdio>
#include <cstdlib>

#include "mcsn/netlist/verify_ir.hpp"
#endif

namespace mcsn {

CompiledProgram CompiledProgram::compile(const Netlist& nl,
                                         const CompileOptions& opt) {
  const std::vector<GateNode>& nodes = nl.nodes();
  const std::size_t n = nodes.size();
  CompiledProgram p;
  p.slot_of_node_.assign(n, kNoSlot);

  // 1. Liveness: reverse reachability from the outputs (unless disabled).
  std::vector<char> live(n, 0);
  if (opt.retain_all_nodes || !opt.eliminate_dead) {
    std::fill(live.begin(), live.end(), 1);
  } else {
    std::vector<NodeId> stack;
    stack.reserve(nl.outputs().size());
    for (const OutputPort& out : nl.outputs()) {
      if (!live[out.node]) {
        live[out.node] = 1;
        stack.push_back(out.node);
      }
    }
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      const GateNode& g = nodes[id];
      const int arity = cell_arity(g.kind);
      for (int j = 0; j < arity; ++j) {
        if (!live[g.in[j]]) {
          live[g.in[j]] = 1;
          stack.push_back(g.in[j]);
        }
      }
    }
  }

  // 2. Logic levels. Nodes are stored in topological order, so one forward
  // pass suffices: inputs and constants sit at level 0, a gate one past its
  // deepest live fanin.
  std::vector<std::uint32_t> level(n, 0);
  std::uint32_t max_level = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    if (arity == 0) continue;
    std::uint32_t lv = 0;
    for (int j = 0; j < arity; ++j) lv = std::max(lv, level[g.in[j]]);
    level[id] = lv + 1;
    max_level = std::max(max_level, level[id]);
  }

  // 3. Slot assignment. retain_all_nodes keeps the identity mapping.
  // Otherwise live inputs take the first slots, then live constants, and
  // gates draw from a free list in schedule order. A value's slot returns
  // to the list once the last step that reads it has run, where a step is
  // a level (levelized) or one op (creation order), so only a strictly
  // later step can take it: ops of one level never clobber each other's
  // operands, which keeps level_ops() slicing safe. Some values are
  // pinned, their slot never handed out again: constants (materialized
  // once per executor, not per run), outputs (read after the last op) and
  // values nothing reads (so no write ever lands on an unread value).
  std::vector<NodeId> gate_order;
  gate_order.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    if (live[id] && is_gate(nodes[id].kind)) gate_order.push_back(id);
  }
  if (opt.levelize) {
    // Stable counting sort by level (creation order within a level).
    std::vector<std::size_t> first(max_level + 2, 0);
    for (const NodeId id : gate_order) ++first[level[id] + 1];
    for (std::size_t l = 1; l < first.size(); ++l) first[l] += first[l - 1];
    std::vector<NodeId> by_level(gate_order.size());
    for (const NodeId id : gate_order) by_level[first[level[id]]++] = id;
    gate_order = std::move(by_level);
  }

  if (opt.retain_all_nodes) {
    for (NodeId id = 0; id < n; ++id) p.slot_of_node_[id] = id;
    p.slot_count_ = n;
  } else {
    constexpr std::uint32_t kPinned = 0xffffffffu;
    constexpr std::uint32_t kNone = 0xffffffffu;
    std::uint32_t next = 0;
    for (const NodeId id : nl.inputs()) {
      if (live[id]) p.slot_of_node_[id] = next++;
    }
    // step[id]: when the node's value is written (0 = before the first
    // op); last[id]: the last step that reads it, or kPinned.
    std::vector<std::uint32_t> step(n, 0);
    for (std::size_t k = 0; k < gate_order.size(); ++k) {
      step[gate_order[k]] = opt.levelize
                                ? level[gate_order[k]]
                                : static_cast<std::uint32_t>(k + 1);
    }
    std::vector<std::uint32_t> last(step);
    for (const NodeId id : gate_order) {
      const GateNode& g = nodes[id];
      for (int j = 0; j < cell_arity(g.kind); ++j) {
        last[g.in[j]] = std::max(last[g.in[j]], step[id]);
      }
    }
    for (NodeId id = 0; id < n; ++id) {
      if (last[id] == step[id]) last[id] = kPinned;  // nothing reads it
      const CellKind k = nodes[id].kind;
      if (live[id] && (k == CellKind::const0 || k == CellKind::const1)) {
        p.slot_of_node_[id] = next++;
        last[id] = kPinned;
      }
    }
    for (const OutputPort& out : nl.outputs()) last[out.node] = kPinned;

    // Values whose slot frees after step s, as intrusive lists.
    const std::size_t steps =
        opt.levelize ? max_level + 1 : gate_order.size() + 1;
    std::vector<std::uint32_t> frees_head(steps, kNone);
    std::vector<std::uint32_t> frees_next(n, kNone);
    for (NodeId id = 0; id < n; ++id) {
      if (!live[id] || last[id] == kPinned) continue;
      frees_next[id] = frees_head[last[id]];
      frees_head[last[id]] = id;
    }
    std::vector<std::uint32_t> free_slots;
    free_slots.reserve(n);
    std::uint32_t released = 0;  // steps [0, released) are on the list
    for (const NodeId id : gate_order) {
      for (; released < step[id]; ++released) {
        for (std::uint32_t d = frees_head[released]; d != kNone;
             d = frees_next[d]) {
          free_slots.push_back(p.slot_of_node_[d]);
        }
      }
      if (free_slots.empty()) {
        p.slot_of_node_[id] = next++;
      } else {
        p.slot_of_node_[id] = free_slots.back();
        free_slots.pop_back();
      }
    }
    p.slot_count_ = next;
  }

  // 4. Constant initializers.
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const CellKind k = nodes[id].kind;
    if (k == CellKind::const0 || k == CellKind::const1) {
      p.const_inits_.push_back(
          {p.slot_of_node_[id],
           k == CellKind::const1 ? Trit::one : Trit::zero});
    }
  }

  // 5. Instruction stream. Unused fanin pins point at slot 0; the cell
  // evaluators ignore operands beyond the cell's arity. Per-level offsets
  // only exist for levelized schedules (creation order interleaves levels).
  p.ops_.reserve(gate_order.size());
  if (opt.levelize) p.level_offsets_.assign(max_level + 1, 0);
  for (const NodeId id : gate_order) {
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    CompiledOp op;
    op.kind = g.kind;
    op.out = p.slot_of_node_[id];
    for (int j = 0; j < 3; ++j) {
      op.in[static_cast<std::size_t>(j)] =
          j < arity ? p.slot_of_node_[g.in[j]] : 0;
    }
    // Gate levels are 1-based; bucket l holds ops of level l+1.
    if (opt.levelize) ++p.level_offsets_[level[id] - 1 + 1];
    p.ops_.push_back(op);
  }
  for (std::size_t l = 1; l < p.level_offsets_.size(); ++l) {
    p.level_offsets_[l] += p.level_offsets_[l - 1];
  }

  // 6. Outputs (always live by construction).
  p.output_slots_.reserve(nl.outputs().size());
  for (const OutputPort& out : nl.outputs()) {
    p.output_slots_.push_back(p.slot_of_node_[out.node]);
  }
  p.input_slots_.reserve(nl.inputs().size());
  for (const NodeId id : nl.inputs()) {
    p.input_slots_.push_back(p.slot_of_node_[id]);
  }

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
  // Debug and sanitizer builds re-check every structural invariant of the
  // freshly lowered program (see verify_ir.hpp). A failure here is a
  // compiler bug, not a caller error — abort loudly instead of handing an
  // unchecked instruction stream to the branch-free executors.
  if (const Status s = verify_ir(p, verify_options_for(opt)); !s.ok()) {
    std::fprintf(stderr, "CompiledProgram::compile: %s\n",
                 s.to_string().c_str());
    std::abort();
  }
#endif
  return p;
}

BatchEvaluator::BatchEvaluator(const Netlist& nl, const BatchOptions& opt)
    : prog_(CompiledProgram::compile(nl, opt.compile)),
      parallel_(opt.threads > 0
                    ? opt.threads
                    : (opt.pool
                           ? static_cast<int>(opt.pool->parallelism())
                           : static_cast<int>(
                                 ThreadPool::hardware_parallelism()))),
      pool_(opt.pool) {}

BatchEvaluator::BatchEvaluator(BatchEvaluator&& other) noexcept
    : prog_(std::move(other.prog_)),
      parallel_(other.parallel_) {
  std::lock_guard lock(other.pool_mu_);
  pool_ = std::move(other.pool_);
}

BatchEvaluator& BatchEvaluator::operator=(BatchEvaluator&& other) noexcept {
  if (this != &other) {
    prog_ = std::move(other.prog_);
    parallel_ = other.parallel_;
    std::scoped_lock lock(pool_mu_, other.pool_mu_);
    pool_ = std::move(other.pool_);
  }
  return *this;
}

ThreadPool* BatchEvaluator::acquire_pool() const {
  std::lock_guard lock(pool_mu_);
  if (!pool_ && parallel_ > 1) {
    // Lazily owned, created once and kept: construction cost (the only
    // thread spawns this evaluator ever performs) is paid on the first
    // parallel run_flat(), never per call.
    pool_ = std::make_shared<ThreadPool>(
        static_cast<std::size_t>(parallel_ - 1));
  }
  return pool_.get();
}

void BatchEvaluator::run_flat(std::span<const Trit> inputs,
                              std::span<Trit> outputs) const {
  using Backend = Packed256Backend;
  using Value = Backend::Value;
  constexpr std::size_t kLanes = Backend::kLanes;
  const std::size_t width = prog_.input_count();
  const std::size_t outs = prog_.output_count();
  assert(width > 0 && inputs.size() % width == 0);
  const std::size_t n = width == 0 ? 0 : inputs.size() / width;
  assert(outputs.size() == n * outs);
  if (n == 0) return;
  const std::size_t groups = (n + kLanes - 1) / kLanes;

  // One shard: every stride-th lane group, each transposed from its rows
  // into lanes, evaluated, and its outputs transposed back into their rows.
  const auto shard = [&](std::size_t first_group, std::size_t stride) {
    CompiledExecutor<Backend> exec(prog_);
    std::vector<Value> packed(width);
    for (std::size_t g = first_group; g < groups; g += stride) {
      const std::size_t base = g * kLanes;
      const std::size_t active = std::min(kLanes, n - base);
      pack_lanes<4>(inputs.subspan(base * width, active * width), width,
                    std::span<Value>(packed));
      exec.run(packed);
      unpack_lanes<4>([&exec](std::size_t o) -> const Value& {
                        return exec.output(o);
                      },
                      outs, outputs.subspan(base * outs, active * outs));
    }
  };

  const std::size_t shards =
      std::min(static_cast<std::size_t>(parallel_), groups);
  if (shards <= 1) {
    shard(0, 1);
  } else {
    acquire_pool()->run_and_wait(
        shards, [&](std::size_t t) { shard(t, shards); });
  }
}

}  // namespace mcsn
