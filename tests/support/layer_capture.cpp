#include "support/layer_capture.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"

namespace cohls::oracles {

namespace {

constexpr int kBoxOps = 12;
constexpr int kBoxDevices = 10;

class Recorder final : public core::LayerSolveCache {
 public:
  Recorder(std::string tag, std::shared_ptr<const model::Assay> assay, std::size_t cap,
           std::vector<LayerCapture>& out)
      : tag_(std::move(tag)), assay_(std::move(assay)), cap_(cap), out_(out) {}

  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& ctx) override {
    if (captured_ >= cap_ || static_cast<int>(ctx.request.ops.size()) > kBoxOps ||
        !ctx.request.usable_devices.empty() || ctx.request.binds || ctx.request.new_config) {
      return std::nullopt;
    }
    // Indeterminate operations run on pairwise-distinct devices, so a layer
    // with k of them needs k visible devices to be feasible.
    int indeterminate = 0;
    for (const OperationId id : ctx.request.ops) {
      indeterminate += ctx.assay.operation(id).indeterminate() ? 1 : 0;
    }
    const int room = ctx.inventory.max_devices() - ctx.inventory.size();
    const int base = ctx.request.allow_new_devices ? std::min(ctx.engine.ilp_new_slots, room) : 0;
    const int slots = std::max(base, indeterminate);
    const int visible = static_cast<int>(ctx.request.hints.size()) + slots;
    if (slots > room || visible > kBoxDevices) {
      return std::nullopt;
    }
    LayerCapture capture{tag_ + "-L" + std::to_string(ctx.request.layer.value()) + "#" +
                             std::to_string(captured_ + 1),
                         assay_, {}, ctx.transport, ctx.costs};
    capture.inputs.layer = ctx.request.layer;
    capture.inputs.ops = ctx.request.ops;
    capture.inputs.hints = ctx.request.hints;
    capture.inputs.new_slots = ctx.request.allow_new_devices ? slots : 0;
    capture.inputs.prior_binding = ctx.request.prior_binding;
    capture.inputs.existing_paths = ctx.request.existing_paths;
    capture.inputs.pinned = ctx.request.pinned;
    out_.push_back(std::move(capture));
    ++captured_;
    return std::nullopt;
  }

  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

 private:
  std::string tag_;
  std::shared_ptr<const model::Assay> assay_;
  std::size_t cap_;
  std::size_t captured_ = 0;
  std::vector<LayerCapture>& out_;
};

}  // namespace

std::vector<LayerCapture> capture_layers(const std::string& tag, model::Assay assay,
                                         int threshold, std::size_t cap) {
  const auto shared = std::make_shared<const model::Assay>(std::move(assay));
  core::SynthesisOptions options;
  options.layering.indeterminate_threshold = threshold;
  std::vector<LayerCapture> out;
  Recorder recorder(tag + "-t" + std::to_string(threshold), shared, cap, out);
  options.layer_cache = &recorder;
  (void)core::synthesize(*shared, options);
  return out;
}

std::vector<LayerCapture> capture_closure_layers() {
  std::vector<LayerCapture> out;
  for (const int threshold : {10, 5, 3, 2}) {
    for (auto& capture : capture_layers("case2", assays::gene_expression_assay(), threshold, 2)) {
      out.push_back(std::move(capture));
    }
    for (auto& capture : capture_layers("case3", assays::rt_qpcr_assay(), threshold, 2)) {
      out.push_back(std::move(capture));
    }
  }
  return out;
}

}  // namespace cohls::oracles
