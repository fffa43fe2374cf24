#include "analysis/linter.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "model/components.hpp"
#include "model/operation.hpp"

namespace cohls::analysis {

namespace {

using diag::Diagnostic;
using diag::Note;
using diag::Severity;
using diag::Span;

std::string op_label(const io::SourceOperation& op) {
  return "operation " + std::to_string(op.id) + " ('" + op.spec.name + "')";
}

Span op_span(const io::SourceOperation& op) { return Span{op.line, op.column}; }

// -- structure: E101 duplicates, E102 undefined refs, E106 density, W104 ----

void structure_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const auto& ops = ctx.source.operations;
  bool has_duplicates = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t first_index = ctx.index_of.find(ops[i].id);
    if (first_index != i) {
      Diagnostic d;
      d.code = diag::codes::kDuplicateOperationId;
      d.message = "duplicate operation id " + std::to_string(ops[i].id) +
                  " ('" + ops[i].spec.name + "')";
      d.span = op_span(ops[i]);
      const auto& first = ops[first_index];
      d.notes.push_back(Note{"first defined here as '" + first.spec.name + "'",
                             op_span(first)});
      d.fixit = "renumber the operation; ids must be dense and ascending";
      out.push_back(std::move(d));
      has_duplicates = true;
    }
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

  // An operation's repeated parents: its references as (id, position),
  // sorted, so each repeat sits right after an equal id at a smaller
  // position. One buffer serves every operation.
  std::vector<std::pair<long, std::size_t>> sorted;
  std::vector<char> repeated;
  for (const io::SourceOperation& op : ops) {
    const std::span<const long> refs = ctx.source.parents(op);
    repeated.assign(refs.size(), 0);
    if (refs.size() > 1) {
      sorted.clear();
      for (std::size_t k = 0; k < refs.size(); ++k) {
        sorted.emplace_back(refs[k], k);
      }
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t k = 1; k < sorted.size(); ++k) {
        repeated[sorted[k].second] = sorted[k].first == sorted[k - 1].first;
      }
    }
    for (std::size_t k = 0; k < refs.size(); ++k) {
      if (repeated[k] != 0) {
        Diagnostic d;
        d.code = diag::codes::kDuplicateParent;
        d.severity = Severity::Warning;
        d.message = op_label(op) + " lists parent " + std::to_string(refs[k]) +
                    " more than once";
        d.span = op_span(op);
        d.fixit = "drop the repeated id from parents=";
        out.push_back(std::move(d));
        continue;
      }
      if (ctx.parent_index[op.first_parent + k] == IdIndex::npos) {
        Diagnostic d;
        d.code = diag::codes::kUndefinedReference;
        d.message = op_label(op) + " references undefined parent " +
                    std::to_string(refs[k]);
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

/// The compressed rows of the resolved references `keep(child, parent)`
/// accepts, as edges parent -> child (`reversed` false) or child -> parent,
/// in file order of the child and then of its parents= list.
template <class Keep>
Adjacency resolved_edges(const PassContext& ctx, bool reversed, Keep keep) {
  const auto& ops = ctx.source.operations;
  Adjacency adjacency;
  adjacency.offsets.assign(ops.size() + 1, 0);
  // Two sweeps over the same edges: count each row's size, then fill it.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::uint32_t k = 0; k < ops[i].parent_count; ++k) {
        const std::size_t p = ctx.parent_index[ops[i].first_parent + k];
        if (p == IdIndex::npos || !keep(i, p)) {
          continue;
        }
        const std::size_t from = reversed ? i : p;
        if (sweep == 0) {
          ++adjacency.offsets[from + 1];
        } else {
          adjacency.items[adjacency.offsets[from]++] = reversed ? p : i;
        }
      }
    }
    if (sweep == 0) {
      // offsets[i] becomes the start of row i; the fill then advances it
      // to the start of row i + 1.
      std::partial_sum(adjacency.offsets.begin(), adjacency.offsets.end(),
                       adjacency.offsets.begin());
      adjacency.items.resize(adjacency.offsets.back());
    }
  }
  std::copy_backward(adjacency.offsets.begin(), adjacency.offsets.end() - 1,
                     adjacency.offsets.end());
  adjacency.offsets.front() = 0;
  return adjacency;
}

void cycles_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const auto& ops = ctx.source.operations;
  const std::size_t n = ops.size();

  // Self references are one-edge cycles.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t k = 0; k < ops[i].parent_count; ++k) {
      if (ctx.parent_index[ops[i].first_parent + k] == i) {
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

  // Depth-first search over every resolved edge but self references, in
  // file order. A back edge u -> v closes the cycle formed by the path's
  // suffix from v; `path` holds the search's nodes with their next edge.
  const Adjacency children =
      resolved_edges(ctx, false, [](std::size_t child, std::size_t parent) {
        return child != parent;
      });
  std::vector<char> color(n, 0);  // 0 white, 1 on the path, 2 done
  std::vector<char> on_cycle(n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> path;  // (node, next item)
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != 0) {
      continue;
    }
    color[root] = 1;
    path.emplace_back(root, children.offsets[root]);
    while (!path.empty()) {
      auto& [u, next] = path.back();
      if (next == children.offsets[u + 1]) {
        color[u] = 2;
        path.pop_back();
        continue;
      }
      const std::size_t v = children.items[next++];
      if (color[v] == 0) {
        color[v] = 1;
        path.emplace_back(v, children.offsets[v]);
        continue;
      }
      if (color[v] != 1) {
        continue;
      }
      const auto begin = std::find_if(path.begin(), path.end(),
                                       [v](const auto& step) { return step.first == v; });
      Diagnostic d;
      d.code = diag::codes::kDependencyCycle;
      std::ostringstream text;
      for (auto step = begin; step != path.end(); ++step) {
        text << ops[step->first].id << " -> ";
        on_cycle[step->first] = 1;
      }
      text << ops[v].id;
      d.message = "dependency cycle: " + text.str();
      // Anchor the diagnostic at the member whose parents= edge closes the
      // cycle (the deepest path entry).
      d.span = op_span(ops[path.back().first]);
      for (auto step = begin; step != path.end(); ++step) {
        d.notes.push_back(Note{op_label(ops[step->first]) + " defined here",
                               op_span(ops[step->first])});
      }
      d.fixit = "break the cycle by removing one of the listed parent edges";
      out.push_back(std::move(d));
    }
  }

  // Forward references that are not part of a cycle still violate the
  // parents-first contract of the text format.
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const long> refs = ctx.source.parents(ops[i]);
    for (std::size_t k = 0; k < refs.size(); ++k) {
      const std::size_t p = ctx.parent_index[ops[i].first_parent + k];
      if (p == IdIndex::npos || p <= i) {
        continue;
      }
      if (on_cycle[i] != 0 && on_cycle[p] != 0) {
        continue;  // already reported as part of a cycle
      }
      Diagnostic d;
      d.code = diag::codes::kNonDenseIds;
      d.message = op_label(ops[i]) + " references parent " +
                  std::to_string(refs[k]) +
                  ", which is defined later; parents must come first";
      d.span = op_span(ops[i]);
      d.notes.push_back(Note{"parent defined here", op_span(ops[p])});
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
  const auto backward = [](std::size_t child, std::size_t parent) { return parent < child; };
  ctx.parents = resolved_edges(ctx, true, backward);
  ctx.children = resolved_edges(ctx, false, backward);
  ctx.dependency_layer.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int layer = 0;
    for (const std::size_t p : ctx.parents[i]) {
      const int via = ctx.dependency_layer[p] + (ops[p].spec.indeterminate ? 1 : 0);
      layer = std::max(layer, via);
    }
    ctx.dependency_layer[i] = layer;
  }
  ctx.indeterminate_by_layer.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].spec.indeterminate) {
      ctx.indeterminate_by_layer.push_back(i);
    }
  }
  std::stable_sort(ctx.indeterminate_by_layer.begin(), ctx.indeterminate_by_layer.end(),
                   [&ctx](std::size_t a, std::size_t b) {
                     return ctx.dependency_layer[a] < ctx.dependency_layer[b];
                   });
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
  if (ctx.source.accessories.empty()) {
    return;
  }
  model::AccessorySet used;
  for (const io::SourceOperation& op : ctx.source.operations) {
    used = used.united_with(op.spec.accessories);
  }
  for (const io::SourceAccessory& accessory : ctx.source.accessories) {
    if (used.contains(ctx.source.registry.find(accessory.name))) {
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

/// Calls `visit(layer, members)` for each dependency layer holding
/// indeterminate operations, in ascending layer order; `members` lists them
/// in file order.
template <class Visit>
void for_each_cluster(const PassContext& ctx, Visit visit) {
  const std::span<const std::size_t> all(ctx.indeterminate_by_layer);
  for (std::size_t begin = 0; begin < all.size();) {
    const int layer = ctx.dependency_layer[all[begin]];
    std::size_t end = begin + 1;
    while (end < all.size() && ctx.dependency_layer[all[end]] == layer) {
      ++end;
    }
    visit(layer, all.subspan(begin, end - begin));
    begin = end;
  }
}

// -- layering: W101 (dry run of Algorithm 1's dependency phase) -------------

void layering_pass(PassContext& ctx, std::vector<Diagnostic>& out) {
  const int t = ctx.options.indeterminate_threshold;
  if (t <= 0) {
    return;  // E108 already covers this configuration
  }
  const auto& ops = ctx.source.operations;
  for_each_cluster(ctx, [&](int layer, std::span<const std::size_t> members) {
    const int n = static_cast<int>(members.size());
    if (n <= t) {
      return;
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
  });
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
  for_each_cluster(ctx, [&](int layer, std::span<const std::size_t> members) {
    const int n = static_cast<int>(members.size());
    const int concurrent = std::min(n, t);
    if (concurrent <= ctx.options.max_devices) {
      return;
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
  });
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
  if (layer_count < 2) {
    return;
  }
  // Operation p leaves an intermediate across boundary b (between layers b
  // and b + 1) exactly when layer(p) <= b < the deepest layer of its
  // children.
  std::vector<int> deepest_child(ops.size(), -1);
  for (std::size_t p = 0; p < ops.size(); ++p) {
    for (const std::size_t c : ctx.children[p]) {
      deepest_child[p] = std::max(deepest_child[p], ctx.dependency_layer[c]);
    }
  }
  for (int boundary = 0; boundary + 1 < layer_count; ++boundary) {
    int stored = 0;
    std::size_t first_producer = 0;
    for (std::size_t p = 0; p < ops.size(); ++p) {
      if (ctx.dependency_layer[p] <= boundary && boundary < deepest_child[p]) {
        first_producer = stored == 0 ? p : first_producer;
        ++stored;
      }
    }
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
    d.span = op_span(ops[first_producer]);
    d.fixit = "raise the device budget or restructure dependencies to "
              "reduce crossing intermediates";
    out.push_back(std::move(d));
  }
}

}  // namespace

IdIndex::IdIndex(const std::vector<io::SourceOperation>& operations) {
  sorted_.reserve(operations.size());
  for (std::size_t i = 0; i < operations.size(); ++i) {
    sorted_.emplace_back(operations[i].id, i);
  }
  // Sorted by (id, index), the first entry of each id is its first
  // definition.
  std::sort(sorted_.begin(), sorted_.end());
  sorted_.erase(std::unique(sorted_.begin(), sorted_.end(),
                            [](const auto& a, const auto& b) { return a.first == b.first; }),
                sorted_.end());
}

std::size_t IdIndex::find(long id) const {
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), id,
                                   [](const auto& entry, long key) { return entry.first < key; });
  return it != sorted_.end() && it->first == id ? it->second : npos;
}

void PassManager::add(Pass pass) { passes_.push_back(std::move(pass)); }

LintReport PassManager::run(const io::AssaySource& source,
                            const AnalysisOptions& options) const {
  LintReport report;
  PassContext ctx{source, options, IdIndex(source.operations), {}, false, {}, {}, {}, {}};
  ctx.parent_index.reserve(source.parent_ids.size());
  for (const long parent : source.parent_ids) {
    ctx.parent_index.push_back(ctx.index_of.find(parent));
  }
  for (const Pass& pass : passes_) {
    if (pass.needs_graph && !ctx.graph_ok) {
      continue;
    }
    pass.run(ctx, report.diagnostics);
  }
  diag::sort_by_location(report.diagnostics);
  return report;
}

PassManager PassManager::default_passes() {
  PassManager manager;
  manager.add(Pass{"structure", false, structure_pass});
  manager.add(Pass{"cycles", false, cycles_pass});
  manager.add(Pass{"durations", false, durations_pass});
  manager.add(Pass{"binding", false, binding_pass});
  manager.add(Pass{"threshold", false, threshold_pass});
  manager.add(Pass{"accessories", false, accessories_pass});
  manager.add(Pass{"layering", true, layering_pass});
  manager.add(Pass{"device-demand", true, device_demand_pass});
  manager.add(Pass{"storage", true, storage_pass});
  return manager;
}

LintReport lint_assay(const io::AssaySource& source,
                      const AnalysisOptions& options) {
  static const PassManager pipeline = PassManager::default_passes();
  return pipeline.run(source, options);
}

Diagnostic parse_error_diagnostic(const io::ParseError& error) {
  Diagnostic d;
  d.code = diag::codes::kParseError;
  d.span = Span{error.line(), error.column()};
  d.message = error.message();
  return d;
}

LintReport lint_assay_text(const std::string& text,
                           const AnalysisOptions& options) {
  try {
    return lint_assay(io::parse_assay_source(text), options);
  } catch (const io::ParseError& e) {
    LintReport report;
    report.diagnostics.push_back(parse_error_diagnostic(e));
    return report;
  }
}

}  // namespace cohls::analysis
