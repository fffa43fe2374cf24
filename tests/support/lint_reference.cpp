#include "support/lint_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "model/components.hpp"
#include "model/operation.hpp"

namespace cohls::oracles {

namespace {

using analysis::AnalysisOptions;
using analysis::LintReport;
using diag::Diagnostic;
using diag::Note;
using diag::Severity;
using diag::Span;

/// The map-based pass state: an ordered map from id to first definition and
/// one adjacency vector per operation.
struct PassContext {
  const io::AssaySource& source;
  const AnalysisOptions& options;
  std::map<long, std::size_t> index_of;
  bool graph_ok = false;
  std::vector<std::vector<std::size_t>> parents;
  std::vector<std::vector<std::size_t>> children;
  std::vector<int> dependency_layer;
};

std::string op_label(const io::SourceOperation& op) {
  return "operation " + std::to_string(op.id) + " ('" + op.spec.name + "')";
}

Span op_span(const io::SourceOperation& op) { return Span{op.line, op.column}; }

// -- structure: E101 duplicates, E102 undefined refs, E106 density, W104 ----

void structure_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const auto& ops = ctx.source.operations;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto [it, inserted] = ctx.index_of.emplace(ops[i].id, i);
    if (!inserted) {
      Diagnostic d;
      d.code = diag::codes::kDuplicateOperationId;
      d.message = "duplicate operation id " + std::to_string(ops[i].id) +
                  " ('" + ops[i].spec.name + "')";
      d.span = op_span(ops[i]);
      const auto& first = ops[it->second];
      d.notes.push_back(Note{"first defined here as '" + first.spec.name + "'",
                             op_span(first)});
      d.fixit = "renumber the operation; ids must be dense and ascending";
      out.push_back(std::move(d));
    }
  }

  bool has_duplicates = false;
  for (const Diagnostic& d : out) {
    has_duplicates |= d.code == diag::codes::kDuplicateOperationId;
  }
  if (!has_duplicates) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].id != static_cast<long>(i)) {
        Diagnostic d;
        d.code = diag::codes::kNonDenseIds;
        d.message = "operation ids must be dense and ascending (expected " +
                    std::to_string(i) + ", got " + std::to_string(ops[i].id) +
                    ")";
        d.span = op_span(ops[i]);
        out.push_back(std::move(d));
        break;  // every later id mismatches too; one diagnostic is enough
      }
    }
  }

  for (const io::SourceOperation& op : ops) {
    std::set<long> seen;
    for (const long parent : ctx.source.parents(op)) {
      if (!seen.insert(parent).second) {
        Diagnostic d;
        d.code = diag::codes::kDuplicateParent;
        d.severity = Severity::Warning;
        d.message = op_label(op) + " lists parent " + std::to_string(parent) +
                    " more than once";
        d.span = op_span(op);
        d.fixit = "drop the repeated id from parents=";
        out.push_back(std::move(d));
        continue;
      }
      if (ctx.index_of.find(parent) == ctx.index_of.end()) {
        Diagnostic d;
        d.code = diag::codes::kUndefinedReference;
        d.message = op_label(op) + " references undefined parent " +
                    std::to_string(parent);
        d.span = op_span(op);
        out.push_back(std::move(d));
      }
    }
  }
}

// -- cycles: E103 (with reported path) and forward-reference E106 -----------
//
// Runs over raw references, so it works even when build() would refuse the
// document. On success it publishes the graph facts every later graph pass
// consumes (adjacency + Algorithm 1 dependency layers).

struct CycleFinder {
  const std::vector<io::SourceOperation>& ops;
  const std::vector<std::vector<std::size_t>>& children;
  std::vector<int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> cycles;

  void dfs(std::size_t u) {
    color[u] = 1;
    stack.push_back(u);
    for (const std::size_t v : children[u]) {
      if (color[v] == 0) {
        dfs(v);
      } else if (color[v] == 1) {
        // Back edge u -> v: the cycle is the stack suffix starting at v.
        const auto begin =
            std::find(stack.begin(), stack.end(), v);
        cycles.emplace_back(begin, stack.end());
      }
    }
    stack.pop_back();
    color[u] = 2;
  }
};

void cycles_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const auto& ops = ctx.source.operations;
  const std::size_t n = ops.size();

  // Resolved adjacency over first definitions; unresolved refs were already
  // reported by the structure pass and are simply dropped here.
  std::vector<std::vector<std::size_t>> parents(n);
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const long parent : ctx.source.parents(ops[i])) {
      const auto it = ctx.index_of.find(parent);
      if (it == ctx.index_of.end() || it->second == i) {
        continue;  // undefined (E102) or self edge, handled below
      }
      parents[i].push_back(it->second);
      children[it->second].push_back(i);
    }
  }

  // Self references are one-edge cycles.
  for (std::size_t i = 0; i < n; ++i) {
    for (const long parent : ctx.source.parents(ops[i])) {
      const auto it = ctx.index_of.find(parent);
      if (it != ctx.index_of.end() && it->second == i) {
        Diagnostic d;
        d.code = diag::codes::kDependencyCycle;
        d.message = "dependency cycle: " + std::to_string(ops[i].id) + " -> " +
                    std::to_string(ops[i].id) + " (operation is its own parent)";
        d.span = op_span(ops[i]);
        d.fixit = "remove " + std::to_string(ops[i].id) + " from its own parents=";
        out.push_back(std::move(d));
      }
    }
  }

  CycleFinder finder{ops, children, std::vector<int>(n, 0), {}, {}};
  for (std::size_t i = 0; i < n; ++i) {
    if (finder.color[i] == 0) {
      finder.dfs(i);
    }
  }
  // Operations known to sit on some cycle, so plain forward references can
  // be told apart from cyclic ones.
  std::set<std::size_t> on_cycle;
  for (const std::vector<std::size_t>& cycle : finder.cycles) {
    Diagnostic d;
    d.code = diag::codes::kDependencyCycle;
    std::ostringstream path;
    for (const std::size_t member : cycle) {
      path << ops[member].id << " -> ";
      on_cycle.insert(member);
    }
    path << ops[cycle.front()].id;
    d.message = "dependency cycle: " + path.str();
    // Anchor the diagnostic at the member whose parents= edge closes the
    // cycle (the deepest stack entry).
    d.span = op_span(ops[cycle.back()]);
    for (const std::size_t member : cycle) {
      d.notes.push_back(
          Note{op_label(ops[member]) + " defined here", op_span(ops[member])});
    }
    d.fixit = "break the cycle by removing one of the listed parent edges";
    out.push_back(std::move(d));
  }

  // Forward references that are not part of a cycle still violate the
  // parents-first contract of the text format.
  for (std::size_t i = 0; i < n; ++i) {
    for (const long parent : ctx.source.parents(ops[i])) {
      const auto it = ctx.index_of.find(parent);
      if (it == ctx.index_of.end() || it->second <= i) {
        continue;
      }
      if (on_cycle.count(i) != 0 && on_cycle.count(it->second) != 0) {
        continue;  // already reported as part of a cycle
      }
      Diagnostic d;
      d.code = diag::codes::kNonDenseIds;
      d.message = op_label(ops[i]) + " references parent " +
                  std::to_string(parent) +
                  ", which is defined later; parents must come first";
      d.span = op_span(ops[i]);
      d.notes.push_back(Note{"parent defined here", op_span(ops[it->second])});
      d.fixit = "move the parent definition above its children";
      out.push_back(std::move(d));
    }
  }

  for (const Diagnostic& d : out) {
    if (d.code == diag::codes::kDuplicateOperationId) {
      return;  // operation identity is ambiguous; no graph to dry-run
    }
  }

  // Publish the graph facts, best-effort: forward edges (which every cycle
  // in a dense-ascending file must contain) are dropped, so the remaining
  // backward edges always form a DAG in file order and the dependency-phase
  // layers of Algorithm 1 (the indeterminate-ancestor depth) fall out of
  // one forward sweep even when cycle errors were reported above.
  ctx.graph_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    auto& ps = parents[i];
    ps.erase(std::remove_if(ps.begin(), ps.end(),
                            [i](std::size_t p) { return p > i; }),
             ps.end());
    auto& cs = children[i];
    cs.erase(std::remove_if(cs.begin(), cs.end(),
                            [i](std::size_t c) { return c < i; }),
             cs.end());
  }
  ctx.parents = std::move(parents);
  ctx.children = std::move(children);
  ctx.dependency_layer.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int layer = 0;
    for (const std::size_t p : ctx.parents[i]) {
      const int via = ctx.dependency_layer[p] + (ops[p].spec.indeterminate ? 1 : 0);
      layer = std::max(layer, via);
    }
    ctx.dependency_layer[i] = layer;
  }
}

// -- durations: E105 --------------------------------------------------------

void durations_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  for (const io::SourceOperation& op : ctx.source.operations) {
    if (op.spec.duration.count() > 0) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kNonPositiveDuration;
    d.message = op_label(op) + " has non-positive " +
                (op.spec.indeterminate ? "minimum duration " : "duration ") +
                std::to_string(op.spec.duration.count());
    d.span = op_span(op);
    d.fixit = "set duration to a positive number of minutes";
    out.push_back(std::move(d));
  }
}

// -- binding: E104, with a nearest-device note ------------------------------
//
// Mirrors model::admissible_configs over the raw spec (an Operation cannot
// be constructed from an unbindable spec — its ctor enforces constraint
// (3)/(4) — which is exactly why the linter re-derives this here).

bool spec_bindable(const model::OperationSpec& spec) {
  for (const model::ContainerKind kind :
       {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
    if (spec.container.has_value() && *spec.container != kind) {
      continue;
    }
    for (const model::Capacity cap : model::kAllCapacities) {
      if (!model::capacity_allowed(kind, cap)) {
        continue;
      }
      if (spec.capacity.has_value() && *spec.capacity != cap) {
        continue;
      }
      return true;
    }
  }
  return false;
}

void binding_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  for (const io::SourceOperation& op : ctx.source.operations) {
    const model::OperationSpec& spec = op.spec;
    if (spec_bindable(spec)) {
      continue;
    }
    // The only statically unbindable combination: both container and
    // capacity pinned, and that capacity outside the container's range
    // (constraints (3)-(4)); accessories are an open set and always
    // satisfiable by some device.
    const model::ContainerKind kind = *spec.container;
    const model::Capacity want = *spec.capacity;
    model::Capacity nearest = want;
    int best = static_cast<int>(model::kAllCapacities.size()) + 1;
    for (const model::Capacity cap : model::kAllCapacities) {
      if (!model::capacity_allowed(kind, cap)) {
        continue;
      }
      const int dist = std::abs(static_cast<int>(cap) - static_cast<int>(want));
      if (dist < best) {
        best = dist;
        nearest = cap;
      }
    }
    const model::ContainerKind other = kind == model::ContainerKind::Ring
                                           ? model::ContainerKind::Chamber
                                           : model::ContainerKind::Ring;

    Diagnostic d;
    d.code = diag::codes::kUnbindableOperation;
    d.message = "no device can execute " + op_label(op) + ": a " +
                std::string(model::to_string(kind)) + " cannot provide " +
                std::string(model::to_string(want)) +
                " capacity (constraints (3)-(4))";
    d.span = op_span(op);
    std::string accessories =
        spec.accessories.empty()
            ? std::string("no accessories")
            : "accessories " + model::to_string(spec.accessories, ctx.source.registry);
    d.notes.push_back(Note{
        "nearest device: a " + std::string(model::to_string(kind)) + " at " +
            std::string(model::to_string(nearest)) + " capacity with " +
            accessories + " — it is missing only the requested " +
            std::string(model::to_string(want)) + " capacity",
        op_span(op)});
    std::string fix = "use capacity=" + std::string(model::to_string(nearest));
    if (model::capacity_allowed(other, want)) {
      fix += " or container=" + std::string(model::to_string(other));
    }
    d.fixit = std::move(fix);
    out.push_back(std::move(d));
  }
}

// -- threshold: E108 --------------------------------------------------------

void threshold_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  if (ctx.options.indeterminate_threshold > 0) {
    return;
  }
  for (const io::SourceOperation& op : ctx.source.operations) {
    if (!op.spec.indeterminate) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kNonPositiveThreshold;
    d.message = "layer threshold t = " +
                std::to_string(ctx.options.indeterminate_threshold) +
                " is not positive, but the assay contains indeterminate "
                "operations; Algorithm 1 cannot place " + op_label(op);
    d.span = op_span(op);
    d.fixit = "raise the layer threshold above zero";
    out.push_back(std::move(d));
    return;  // one diagnostic covers the whole document
  }
}

// -- accessories: W103 ------------------------------------------------------

void accessories_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  for (const io::SourceAccessory& accessory : ctx.source.accessories) {
    const model::AccessoryId id = ctx.source.registry.find(accessory.name);
    bool used = false;
    for (const io::SourceOperation& op : ctx.source.operations) {
      used |= op.spec.accessories.contains(id);
    }
    if (used) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kUnusedAccessory;
    d.severity = Severity::Warning;
    d.message = "accessory '" + accessory.name +
                "' is registered but never required by any operation";
    d.span = Span{accessory.line, 0};
    d.fixit = "remove the accessory directive or reference it in an "
              "operation's accessories={}";
    out.push_back(std::move(d));
  }
}

/// Indeterminate operations grouped by dependency layer, file order within
/// each group.
std::map<int, std::vector<std::size_t>> indeterminate_clusters(
    const PassContext& ctx) {
  std::map<int, std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < ctx.source.operations.size(); ++i) {
    if (ctx.source.operations[i].spec.indeterminate) {
      clusters[ctx.dependency_layer[i]].push_back(i);
    }
  }
  return clusters;
}

// -- layering: W101 (dry run of Algorithm 1's dependency phase) -------------

void layering_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const int t = ctx.options.indeterminate_threshold;
  if (t <= 0) {
    return;  // E108 already covers this configuration
  }
  const auto& ops = ctx.source.operations;
  for (const auto& [layer, members] : indeterminate_clusters(ctx)) {
    const int n = static_cast<int>(members.size());
    if (n <= t) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kOverThresholdCluster;
    d.severity = Severity::Warning;
    d.message = "dependency layer " + std::to_string(layer) + " holds " +
                std::to_string(n) +
                " indeterminate operations, above the layer threshold t = " +
                std::to_string(t) + "; the resource phase will evict " +
                std::to_string(n - t) +
                " of them into later layers and store their intermediates";
    d.span = op_span(ops[members.front()]);
    for (const std::size_t member : members) {
      d.notes.push_back(Note{op_label(ops[member]) + " is indeterminate in "
                             "dependency layer " + std::to_string(layer),
                             op_span(ops[member])});
    }
    d.fixit = "raise the threshold to at least " + std::to_string(n) +
              " or serialize the cluster with dependencies";
    out.push_back(std::move(d));
  }
}

// -- device-demand: E107 ----------------------------------------------------
//
// Same-layer indeterminate operations must occupy pairwise-distinct devices
// (constraint (14) family), and eviction only trims a cluster down to t. So
// min(cluster, t) concurrent devices is a sound static lower bound; when it
// exceeds |D|, no schedule exists regardless of what the solver tries.

void device_demand_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const int t = ctx.options.indeterminate_threshold;
  if (t <= 0) {
    return;
  }
  const auto& ops = ctx.source.operations;
  for (const auto& [layer, members] : indeterminate_clusters(ctx)) {
    const int n = static_cast<int>(members.size());
    const int concurrent = std::min(n, t);
    if (concurrent <= ctx.options.max_devices) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kDeviceDemandExceedsBudget;
    d.message = "dependency layer " + std::to_string(layer) +
                " needs at least " + std::to_string(concurrent) +
                " concurrent devices for its indeterminate operations "
                "(cluster of " + std::to_string(n) + ", threshold t = " +
                std::to_string(t) + "), but the device budget |D| is " +
                std::to_string(ctx.options.max_devices);
    d.span = op_span(ops[members.front()]);

    // Per-capacity-class breakdown of the cluster's demand.
    std::map<std::string, int> by_class;
    for (const std::size_t member : members) {
      const model::OperationSpec& spec = ops[member].spec;
      std::string cls =
          (spec.container.has_value()
               ? std::string(model::to_string(*spec.container))
               : std::string("any")) +
          "/" +
          (spec.capacity.has_value()
               ? std::string(model::to_string(*spec.capacity))
               : std::string("any"));
      ++by_class[cls];
    }
    std::ostringstream breakdown;
    breakdown << "demand by device class:";
    for (const auto& [cls, cnt] : by_class) {
      breakdown << ' ' << cls << " x" << cnt << ',';
    }
    std::string text = breakdown.str();
    text.pop_back();  // trailing comma
    d.notes.push_back(Note{std::move(text), op_span(ops[members.front()])});
    d.fixit = "raise the device budget to at least " +
              std::to_string(concurrent) + " or lower the layer threshold";
    out.push_back(std::move(d));
  }
}

// -- storage: W102 ----------------------------------------------------------
//
// Every operation whose child lands in a later layer leaves an intermediate
// that must sit in storage while the boundary's cyberphysical decisions run.
// Distinct producing operations each occupy a container, so the per-boundary
// count of crossing producers is a storage lower bound against |D|.

void storage_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const auto& ops = ctx.source.operations;
  int layer_count = 0;
  for (const int layer : ctx.dependency_layer) {
    layer_count = std::max(layer_count, layer + 1);
  }
  for (int boundary = 0; boundary + 1 < layer_count; ++boundary) {
    std::vector<std::size_t> producers;
    for (std::size_t p = 0; p < ops.size(); ++p) {
      if (ctx.dependency_layer[p] > boundary) {
        continue;
      }
      for (const std::size_t c : ctx.children[p]) {
        if (ctx.dependency_layer[c] > boundary) {
          producers.push_back(p);
          break;
        }
      }
    }
    const int stored = static_cast<int>(producers.size());
    if (stored <= ctx.options.max_devices) {
      continue;
    }
    Diagnostic d;
    d.code = diag::codes::kStoragePressure;
    d.severity = Severity::Warning;
    d.message = "at least " + std::to_string(stored) +
                " intermediates must be stored across the boundary between "
                "dependency layers " + std::to_string(boundary) + " and " +
                std::to_string(boundary + 1) + ", above the device budget "
                "|D| = " + std::to_string(ctx.options.max_devices);
    d.span = op_span(ops[producers.front()]);
    d.fixit = "raise the device budget or restructure dependencies to "
              "reduce crossing intermediates";
    out.push_back(std::move(d));
  }
}

}  // namespace

LintReport lint_assay_reference(const io::AssaySource& source,
                                const AnalysisOptions& options) {
  using PassFn = void (*)(PassContext&, std::vector<Diagnostic>&);
  struct Step {
    bool needs_graph;
    PassFn run;
  };
  const Step steps[] = {{false, structure_pass},   {false, cycles_pass},
                        {false, durations_pass},   {false, binding_pass},
                        {false, threshold_pass},   {false, accessories_pass},
                        {true, layering_pass},     {true, device_demand_pass},
                        {true, storage_pass}};
  LintReport report;
  PassContext ctx{source, options, {}, false, {}, {}, {}};
  for (const Step& step : steps) {
    if (step.needs_graph && !ctx.graph_ok) {
      continue;
    }
    step.run(ctx, report.diagnostics);
  }
  diag::sort_by_location(report.diagnostics);
  return report;
}

std::string lint_difference(const LintReport& a, const LintReport& b) {
  const auto same_note = [](const Note& x, const Note& y) {
    return x.message == y.message && x.span == y.span;
  };
  if (a.diagnostics.size() != b.diagnostics.size()) {
    return std::to_string(a.diagnostics.size()) + " diagnostics against " +
           std::to_string(b.diagnostics.size());
  }
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    const Diagnostic& x = a.diagnostics[i];
    const Diagnostic& y = b.diagnostics[i];
    if (x.code != y.code || x.severity != y.severity || !(x.span == y.span) ||
        x.message != y.message || x.fixit != y.fixit ||
        !std::equal(x.notes.begin(), x.notes.end(), y.notes.begin(), y.notes.end(),
                    same_note)) {
      return "diagnostic " + std::to_string(i) + " differs: '" + x.message + "' against '" +
             y.message + "'";
    }
  }
  return "";
}

}  // namespace cohls::oracles
