#include "mcsn/netlist/compile.hpp"

#include <algorithm>

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
#include <cstdio>
#include <cstdlib>

#include "mcsn/netlist/verify_ir.hpp"
#endif

namespace mcsn {

CompiledProgram CompiledProgram::compile(const Netlist& nl) {
  const std::vector<GateNode>& nodes = nl.nodes();
  const std::size_t n = nodes.size();
  CompiledProgram p;
  std::vector<std::uint32_t> slot_of_node(n, kNoSlot);

  // 1. Liveness: reverse reachability from the outputs.
  std::vector<char> live(n, 0);
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

  // 3. Schedule: live gates by level, creation order within a level (a
  // stable counting sort).
  std::vector<std::size_t> first(max_level + 2, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (live[id] && is_gate(nodes[id].kind)) ++first[level[id] + 1];
  }
  for (std::size_t l = 1; l < first.size(); ++l) first[l] += first[l - 1];
  std::vector<NodeId> gate_order(first.back());
  for (NodeId id = 0; id < n; ++id) {
    if (live[id] && is_gate(nodes[id].kind)) {
      gate_order[first[level[id]]++] = id;
    }
  }

  // 4. Slot assignment. Live inputs take the first slots, then live
  // constants, and gates draw from a free list in schedule order. A
  // value's slot returns to the list once the last level that reads it
  // has run, so only a strictly later level can take it: ops of one level
  // never clobber each other's operands. Some values are pinned, their
  // slot never handed out again: constants (materialized once per
  // executor, not per run), outputs (read after the last op) and values
  // nothing reads (so no write ever lands on an unread value).
  constexpr std::uint32_t kPinned = 0xffffffffu;
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t next = 0;
  for (const NodeId id : nl.inputs()) {
    if (live[id]) slot_of_node[id] = next++;
  }
  // last[id]: the last level that reads the node's value (its own level
  // when nothing does), or kPinned.
  std::vector<std::uint32_t> last(level);
  for (const NodeId id : gate_order) {
    const GateNode& g = nodes[id];
    for (int j = 0; j < cell_arity(g.kind); ++j) {
      last[g.in[j]] = std::max(last[g.in[j]], level[id]);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (last[id] == level[id]) last[id] = kPinned;  // nothing reads it
    const CellKind k = nodes[id].kind;
    if (live[id] && (k == CellKind::const0 || k == CellKind::const1)) {
      slot_of_node[id] = next++;
      last[id] = kPinned;
    }
  }
  for (const OutputPort& out : nl.outputs()) last[out.node] = kPinned;

  // Values whose slot frees after level l, as intrusive lists.
  std::vector<std::uint32_t> frees_head(max_level + 1, kNone);
  std::vector<std::uint32_t> frees_next(n, kNone);
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id] || last[id] == kPinned) continue;
    frees_next[id] = frees_head[last[id]];
    frees_head[last[id]] = id;
  }
  std::vector<std::uint32_t> free_slots;
  free_slots.reserve(n);
  std::uint32_t released = 0;  // levels [0, released) are on the list
  for (const NodeId id : gate_order) {
    for (; released < level[id]; ++released) {
      for (std::uint32_t d = frees_head[released]; d != kNone;
           d = frees_next[d]) {
        free_slots.push_back(slot_of_node[d]);
      }
    }
    if (free_slots.empty()) {
      slot_of_node[id] = next++;
    } else {
      slot_of_node[id] = free_slots.back();
      free_slots.pop_back();
    }
  }
  p.slot_count_ = next;

  // 5. Constant initializers.
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const CellKind k = nodes[id].kind;
    if (k == CellKind::const0 || k == CellKind::const1) {
      p.const_inits_.push_back(
          {slot_of_node[id], k == CellKind::const1 ? Trit::one : Trit::zero});
    }
  }

  // 6. Instruction stream. Unused fanin pins point at slot 0; the cell
  // evaluators ignore operands beyond the cell's arity. Gate levels are
  // 1-based, so level l's ops are [first[l - 1], first[l]).
  p.ops_.reserve(gate_order.size());
  for (const NodeId id : gate_order) {
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    CompiledOp op;
    op.kind = g.kind;
    op.out = slot_of_node[id];
    for (int j = 0; j < 3; ++j) {
      op.in[static_cast<std::size_t>(j)] =
          j < arity ? slot_of_node[g.in[j]] : 0;
    }
    p.ops_.push_back(op);
  }
  p.level_offsets_.assign(first.begin(), first.end() - 1);

  // 7. Outputs (always live by construction).
  p.output_slots_.reserve(nl.outputs().size());
  for (const OutputPort& out : nl.outputs()) {
    p.output_slots_.push_back(slot_of_node[out.node]);
  }
  p.input_slots_.reserve(nl.inputs().size());
  for (const NodeId id : nl.inputs()) {
    p.input_slots_.push_back(slot_of_node[id]);
  }

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
  // Debug and sanitizer builds re-check every structural invariant of the
  // freshly lowered program (see verify_ir.hpp). A failure here is a
  // compiler bug, not a caller error — abort loudly instead of handing an
  // unchecked instruction stream to the branch-free executors.
  if (const Status s = verify_ir(p); !s.ok()) {
    std::fprintf(stderr, "CompiledProgram::compile: %s\n",
                 s.to_string().c_str());
    std::abort();
  }
#endif
  return p;
}

BatchEvaluator::BatchEvaluator(const Netlist& nl, const BatchOptions& opt)
    : prog_(CompiledProgram::compile(nl)),
      parallel_(opt.threads > 0
                    ? opt.threads
                    : static_cast<int>(ThreadPool::hardware_parallelism())) {
  if (parallel_ > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(parallel_ - 1));
  }
}

void BatchEvaluator::run_flat(std::span<const Trit> inputs,
                              std::span<Trit> outputs) const {
  using Backend = Packed256Backend;
  using Value = Backend::Value;
  constexpr std::size_t kLanes = Backend::kLanes;
  const std::size_t width = prog_.input_count();
  const std::size_t outs = prog_.output_count();
  // Without inputs the rows are counted by the output buffer: each one is
  // a run of the (constant) program.
  const std::size_t n = width > 0 ? inputs.size() / width
                        : outs > 0 ? outputs.size() / outs
                                   : 0;
  assert(inputs.size() == n * width && outputs.size() == n * outs);
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
    pool_->run_and_wait(
        shards, [&](std::size_t t) { shard(t, shards); });
  }
}

}  // namespace mcsn
