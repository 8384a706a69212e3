#include "opt/pipeline.hpp"

#include "obs/trace.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/opt_merge.hpp"
#include "opt/opt_muxtree.hpp"

#include <algorithm>

namespace smartly::opt {

sweep::FraigStats fraig_stage(rtlil::Module& module, const sweep::FraigOptions& options,
                              RecoveryContext* recovery) {
  const obs::Span span("pipeline", "opt.fraig_stage");
  sweep::FraigStats stats;
  const StageBody body = [&](rtlil::Module& m, int max_rounds, util::ResourceGuard& guard) {
    sweep::FraigOptions run = options;
    run.guard = &guard;
    if (max_rounds >= 0)
      run.max_rounds = std::min(run.max_rounds, static_cast<size_t>(max_rounds));
    stats = sweep::fraig_sweep(m, run); // overwrite: retries must not accumulate
    opt_clean(m);
  };
  const StageOutcome out = run_protected_stage(module, "fraig", recovery, options.guard, body);
  if (!out.committed)
    stats = sweep::FraigStats{}; // skipped: module holds the pre-stage image
  return stats;
}

rewrite::RewriteStats rewrite_stage(rtlil::Module& module,
                                    const rewrite::RewriteOptions& options,
                                    RecoveryContext* recovery) {
  const obs::Span span("pipeline", "opt.rewrite_stage");
  rewrite::RewriteStats stats;
  const StageBody body = [&](rtlil::Module& m, int max_rounds, util::ResourceGuard& guard) {
    rewrite::RewriteOptions run = options;
    run.guard = &guard;
    if (max_rounds >= 0)
      run.max_rounds = std::min(run.max_rounds, static_cast<size_t>(max_rounds));
    stats = rewrite::rewrite_sweep(m, run); // overwrite: retries must not accumulate
    opt_clean(m);
  };
  const StageOutcome out = run_protected_stage(module, "rewrite", recovery, options.guard, body);
  if (!out.committed)
    stats = rewrite::RewriteStats{}; // skipped: module holds the pre-stage image
  return stats;
}

DeepOptStats fraig_rewrite_loop(rtlil::Module& module, const DeepOptOptions& options) {
  // Both stage options normally carry the same governor; either is enough to
  // stop the loop once a halt is observed (the stages themselves degrade
  // internally — this only avoids dispatching stages that would no-op).
  util::ResourceGuard* guard =
      options.fraig.guard != nullptr ? options.fraig.guard : options.rewrite.guard;
  const obs::Span span("pipeline", "opt.fraig_rewrite_loop");
  DeepOptStats stats;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    stats.fraig += fraig_stage(module, options.fraig, options.recovery);
    if (guard != nullptr && guard->halted())
      return stats;
    const rewrite::RewriteStats rw = rewrite_stage(module, options.rewrite, options.recovery);
    const bool committed = rw.rewrites > 0;
    stats.rewrite += rw;
    ++stats.iterations;
    if (guard != nullptr && guard->halted())
      return stats;
    if (!committed)
      return stats; // nothing restructured: the closing fraig would be idle
  }
  stats.fraig += fraig_stage(module, options.fraig, options.recovery);
  return stats;
}

void coarse_opt(rtlil::Module& module) {
  const obs::Span span("pipeline", "opt.coarse_opt");
  for (int iter = 0; iter < 8; ++iter) {
    const OptExprStats es = opt_expr(module);
    const size_t merged = opt_merge(module);
    const size_t cleaned = opt_clean(module);
    if (es.folded_cells + es.simplified_cells + merged + cleaned == 0)
      break;
  }
}

MuxtreeStats yosys_flow(rtlil::Module& module) {
  const obs::Span span("pipeline", "opt.yosys_flow");
  coarse_opt(module);
  const MuxtreeStats stats = opt_muxtree(module);
  coarse_opt(module);
  return stats;
}

void original_flow(rtlil::Module& module) { opt_clean(module); }

} // namespace smartly::opt
