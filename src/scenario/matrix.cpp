#include "scenario/matrix.hpp"

#include <algorithm>
#include <string>

#include "scenario/report.hpp"
#include "scenario/spec_io.hpp"
#include "util/hash.hpp"

namespace chainckpt::scenario {

namespace {

/// One failure-regime axis value, pre-tagged for cell names.
struct Regime {
  const char* tag;
  FailureSpec failure;
};

FailureSpec exp_recall(double recall) {
  FailureSpec f;
  f.law = FailureLaw::kExponential;
  f.modeled_recall = recall;
  f.actual_recall = recall;
  return f;
}

FailureSpec exp_mismatch(double modeled, double actual) {
  FailureSpec f;
  f.law = FailureLaw::kExponential;
  f.modeled_recall = modeled;
  f.actual_recall = actual;
  return f;
}

FailureSpec weibull(double shape, double modeled, double actual) {
  FailureSpec f;
  f.law = FailureLaw::kWeibull;
  f.weibull_shape = shape;
  f.modeled_recall = modeled;
  f.actual_recall = actual;
  return f;
}

FailureSpec weibull_planned(double shape, double recall) {
  FailureSpec f = weibull(shape, recall, recall);
  f.plan_under_law = true;
  return f;
}

/// The honest regimes: everything the DP assumes holds, so the sim lane
/// must agree within its CI.  Recall sweep per the imperfect-verification
/// axis (Table I default is 0.8).
std::vector<Regime> honest_regimes(bool smoke) {
  if (smoke) {
    return {{"exp-r1.0", exp_recall(1.0)}, {"exp-r0.8", exp_recall(0.8)}};
  }
  return {{"exp-r1.0", exp_recall(1.0)},
          {"exp-r0.95", exp_recall(0.95)},
          {"exp-r0.8", exp_recall(0.8)},
          {"exp-r0.5", exp_recall(0.5)}};
}

/// Heavy-tail regimes planned under their ACTUAL law: honest-recall
/// Weibull cells whose DP integrates the Weibull segment expectations, so
/// the sim lane asserts CI agreement (in-model) instead of flagging.  The
/// "weib0.7"/"weib0.5" tags are the PR 7 divergence-lane names on purpose:
/// the same cells (same name-keyed seeds) flipped from flagged to
/// in-model.
std::vector<Regime> planned_regimes(bool smoke) {
  if (smoke) {
    return {{"weib0.7", weibull_planned(0.7, 0.8)}};
  }
  return {{"weib0.7", weibull_planned(0.7, 0.8)},
          {"weib0.5", weibull_planned(0.5, 0.8)}};
}

/// The divergence-lane regimes: each breaks a DP assumption on purpose.
/// "weib0.7-expplan" keeps the old exponential-planned heavy-tail row as
/// the divergence detector (and the restart-vs-checkpoint comparison
/// column makes the cost of planning under the wrong law visible).
std::vector<Regime> broken_regimes(bool smoke) {
  if (smoke) {
    return {{"exp-mis0.95a0.5", exp_mismatch(0.95, 0.5)}};
  }
  return {{"exp-mis0.95a0.5", exp_mismatch(0.95, 0.5)},
          {"weib0.7-expplan", weibull(0.7, 0.8, 0.8)},
          {"weib0.5-mis", weibull(0.5, 0.95, 0.5)}};
}

struct ShapeAxis {
  const char* tag;
  ChainSpec chain;  ///< n filled in per size
};

ChainSpec shaped(ChainShape shape) {
  ChainSpec c;
  c.shape = shape;
  return c;
}

ChainSpec traced(const char* name) {
  ChainSpec c;
  c.shape = ChainShape::kTraced;
  c.trace = name;
  return c;
}

std::vector<ShapeAxis> shape_axis(bool smoke) {
  if (smoke) {
    return {{"uniform", shaped(ChainShape::kUniform)},
            {"pareto", shaped(ChainShape::kPareto)},
            {"genomics", traced("genomics")}};
  }
  return {{"uniform", shaped(ChainShape::kUniform)},
          {"decrease", shaped(ChainShape::kDecrease)},
          {"highlow", shaped(ChainShape::kHighLow)},
          {"pareto", shaped(ChainShape::kPareto)},
          {"ramp", shaped(ChainShape::kRamp)},
          {"genomics", traced("genomics")}};
}

}  // namespace

std::uint64_t derive_cell_seed(std::uint64_t master_seed,
                               const std::string& cell_name) {
  // Name-keyed, not index-keyed: adding or removing an axis value leaves
  // every other cell's stream untouched.
  const std::uint64_t mixed =
      util::fnv1a(cell_name.data(), cell_name.size(),
                  master_seed ^ 0x9E3779B97F4A7C15ULL);
  return mixed == 0 ? 0x1234567ULL : mixed;
}

std::vector<ScenarioSpec> build_matrix(const MatrixOptions& options) {
  if (!options.spec_dir.empty()) {
    // User-supplied corpus: every *.json in the directory, sorted by
    // filename; the generated cross is skipped entirely.
    return load_spec_dir(options.spec_dir);
  }

  std::vector<ScenarioSpec> cells;

  const std::vector<ShapeAxis> shapes = shape_axis(options.smoke);
  const std::vector<Regime> honest = honest_regimes(options.smoke);
  const std::vector<Regime> planned = planned_regimes(options.smoke);
  const std::vector<Regime> broken = broken_regimes(options.smoke);
  const std::vector<std::size_t> sizes =
      options.smoke ? std::vector<std::size_t>{24} : options.sizes;
  const std::vector<std::string> platforms =
      options.smoke
          ? std::vector<std::string>(
                options.platforms.begin(),
                options.platforms.begin() +
                    std::min<std::size_t>(2, options.platforms.size()))
          : options.platforms;
  const std::size_t replicas = options.smoke
                                   ? std::min<std::size_t>(400, options.replicas)
                                   : options.replicas;

  auto push = [&](const std::string& name, const ChainSpec& chain,
                  const PlatformSpec& platform, const Regime& regime,
                  std::size_t n) {
    ScenarioSpec spec;
    spec.name = name;
    spec.seed = derive_cell_seed(options.master_seed, name);
    spec.chain = chain;
    spec.chain.n = n;
    spec.platform = platform;
    spec.failure = regime.failure;
    spec.failure.rate_scale = options.rate_scale;
    spec.replicas = replicas;
    cells.push_back(std::move(spec));
  };

  auto cell_name = [](const char* shape_tag, std::size_t n,
                      const std::string& platform, bool perturbed,
                      const char* regime_tag) {
    std::string name = shape_tag;
    name += "-n" + std::to_string(n);
    name += "-" + platform;
    if (perturbed) name += "~";
    name += "-";
    name += regime_tag;
    return name;
  };

  // Main cross: every shape x size x base platform x honest regime.
  for (const ShapeAxis& shape : shapes) {
    for (std::size_t n : sizes) {
      for (const std::string& platform : platforms) {
        PlatformSpec p;
        p.base = platform;
        for (const Regime& regime : honest) {
          push(cell_name(shape.tag, n, platform, false, regime.tag),
               shape.chain, p, regime, n);
        }
      }
    }
  }

  // Heavy-tail planned cross + divergence cross: every shape x base
  // platform at the small size (heavy-tail replicas are slow; one size
  // suffices to exercise each regime).  Planned regimes are in-model;
  // broken regimes are measured and flagged.
  const std::size_t small_n = sizes.front();
  for (const ShapeAxis& shape : shapes) {
    for (const std::string& platform : platforms) {
      PlatformSpec p;
      p.base = platform;
      for (const Regime& regime : planned) {
        push(cell_name(shape.tag, small_n, platform, false, regime.tag),
             shape.chain, p, regime, small_n);
      }
      for (const Regime& regime : broken) {
        push(cell_name(shape.tag, small_n, platform, false, regime.tag),
             shape.chain, p, regime, small_n);
      }
    }
  }

  // Per-position-cost rider: uniform weights, jittered verification and
  // checkpoint costs, across sizes and platforms at the Table I recall.
  {
    ChainSpec ppc = shaped(ChainShape::kUniform);
    ppc.per_position_costs = true;
    const Regime regime{"exp-r0.8", exp_recall(0.8)};
    for (std::size_t n : sizes) {
      for (const std::string& platform : platforms) {
        PlatformSpec p;
        p.base = platform;
        push(cell_name("uniform-ppc", n, platform, false, regime.tag), ppc, p,
             regime, n);
      }
    }
  }

  // Perturbed-platform rider: seeded Table I jitter on two shapes.
  if (options.perturbed_per_platform > 0 && !options.smoke) {
    const Regime regime{"exp-r0.8", exp_recall(0.8)};
    const ShapeAxis perturb_shapes[] = {
        {"uniform", shaped(ChainShape::kUniform)},
        {"pareto", shaped(ChainShape::kPareto)},
    };
    for (const ShapeAxis& shape : perturb_shapes) {
      for (const std::string& platform : platforms) {
        PlatformSpec p;
        p.base = platform;
        p.perturb = options.perturb_magnitude;
        push(cell_name(shape.tag, small_n, platform, true, regime.tag),
             shape.chain, p, regime, small_n);
      }
    }
  }

  // ADMV rider: the heavyweight per-segment-verification-count DP joins
  // the paper's three patterns on the reference platform.
  if (!options.smoke) {
    for (ScenarioSpec& spec : cells) {
      const bool paper_shape = spec.chain.shape == ChainShape::kUniform ||
                               spec.chain.shape == ChainShape::kDecrease ||
                               spec.chain.shape == ChainShape::kHighLow;
      if (paper_shape && !spec.chain.per_position_costs &&
          spec.chain.n <= options.admv_max_n && spec.platform.base == "Hera" &&
          spec.platform.perturb == 0.0 &&
          spec.failure.law == FailureLaw::kExponential &&
          spec.failure.modeled_recall == 0.8 &&
          spec.failure.actual_recall == 0.8) {
        spec.algorithms.push_back(core::Algorithm::kADMV);
      }
    }
  }

  // Traffic cells: Poisson and bursty arrival traces replayed through the
  // service on the reference shape/regime.
  if (options.traffic_cells) {
    const Regime regime{"exp-r0.8", exp_recall(0.8)};
    const ChainSpec chain = shaped(ChainShape::kUniform);
    const std::size_t traffic_platforms =
        std::min<std::size_t>(2, platforms.size());
    for (std::size_t pi = 0; pi < traffic_platforms; ++pi) {
      for (TrafficKind kind : {TrafficKind::kPoisson, TrafficKind::kBursty}) {
        PlatformSpec p;
        p.base = platforms[pi];
        const std::string name =
            cell_name("uniform", small_n, platforms[pi], false, regime.tag) +
            "-" + to_string(kind);
        ScenarioSpec spec;
        spec.name = name;
        spec.seed = derive_cell_seed(options.master_seed, name);
        spec.chain = chain;
        spec.chain.n = small_n;
        spec.platform = p;
        spec.failure = regime.failure;
        spec.failure.rate_scale = options.rate_scale;
        spec.replicas = replicas;
        spec.traffic.kind = kind;
        if (options.smoke) spec.traffic.jobs = 16;
        cells.push_back(std::move(spec));
      }
    }
  }

  return cells;
}

}  // namespace chainckpt::scenario
