// activeiter_cli — command-line front end for the library.
//
//   activeiter_cli generate <out.pair> [--seed N] [--scale tiny|bench|large]
//       Generates a synthetic aligned pair and saves it.
//   activeiter_cli stats <in.pair>
//       Prints the Table II-style statistics of a saved pair.
//   activeiter_cli align <in.pair> [--method NAME] [--np-ratio F]
//                  [--sample-ratio F] [--folds N] [--seed N]
//       Runs one comparison method over the fold protocol and prints the
//       aggregate metrics. Methods: ActiveIter-<b>, ActiveIter-Rand-<b>,
//       Iter-MPMD, SVM-MPMD, SVM-MP.
//   activeiter_cli catalog
//       Prints the meta-diagram feature catalog.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/string_util.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/datagen/stats.h"
#include "src/eval/report.h"
#include "src/eval/runners.h"
#include "src/graph/io.h"
#include "src/metadiagram/features.h"

namespace activeiter {
namespace {

struct Flags {
  std::vector<std::string> positional;
  uint64_t seed = 42;
  std::string scale = "tiny";
  std::string method = "ActiveIter-50";
  double np_ratio = 10.0;
  double sample_ratio = 0.6;
  size_t folds = 3;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      flags->scale = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return false;
      flags->method = v;
    } else if (arg == "--np-ratio") {
      const char* v = next();
      if (!v) return false;
      flags->np_ratio = std::strtod(v, nullptr);
    } else if (arg == "--sample-ratio") {
      const char* v = next();
      if (!v) return false;
      flags->sample_ratio = std::strtod(v, nullptr);
    } else if (arg == "--folds") {
      const char* v = next();
      if (!v) return false;
      flags->folds = std::strtoull(v, nullptr, 10);
    } else if (StartsWith(arg, "--")) {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    } else {
      flags->positional.push_back(arg);
    }
  }
  return true;
}

GeneratorConfig ConfigFor(const Flags& flags) {
  if (flags.scale == "bench" || flags.scale == "large") {
    GeneratorConfig cfg = FoursquareTwitterPreset(flags.seed);
    if (flags.scale == "large") cfg.shared_users = 800;
    return cfg;
  }
  return TinyPreset(flags.seed);
}

Result<MethodSpec> SpecFor(const std::string& name) {
  if (name == "Iter-MPMD") return IterMpmdSpec();
  if (name == "SVM-MPMD") return SvmSpec(FeatureSet::kMetaPathAndDiagram);
  if (name == "SVM-MP") return SvmSpec(FeatureSet::kMetaPathOnly);
  const std::string rand_prefix = "ActiveIter-Rand-";
  const std::string prefix = "ActiveIter-";
  if (StartsWith(name, rand_prefix)) {
    size_t budget = std::strtoull(name.c_str() + rand_prefix.size(),
                                  nullptr, 10);
    return ActiveIterSpec(budget, QueryStrategyKind::kRandom);
  }
  if (StartsWith(name, prefix)) {
    size_t budget = std::strtoull(name.c_str() + prefix.size(), nullptr, 10);
    return ActiveIterSpec(budget);
  }
  return Status::InvalidArgument("unknown method: " + name);
}

int CmdGenerate(const Flags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "usage: activeiter_cli generate <out.pair> [--seed N] "
                 "[--scale tiny|bench|large]\n";
    return 2;
  }
  auto pair = AlignedNetworkGenerator(ConfigFor(flags)).Generate();
  if (!pair.ok()) {
    std::cerr << "generation failed: " << pair.status() << "\n";
    return 1;
  }
  Status st = SaveAlignedPairToFile(pair.value(), flags.positional[0]);
  if (!st.ok()) {
    std::cerr << "save failed: " << st << "\n";
    return 1;
  }
  std::cout << "wrote " << flags.positional[0] << "\n"
            << RenderDatasetTable(pair.value());
  return 0;
}

int CmdStats(const Flags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "usage: activeiter_cli stats <in.pair>\n";
    return 2;
  }
  auto pair = LoadAlignedPairFromFile(flags.positional[0]);
  if (!pair.ok()) {
    std::cerr << "load failed: " << pair.status() << "\n";
    return 1;
  }
  std::cout << RenderDatasetTable(pair.value());
  return 0;
}

int CmdAlign(const Flags& flags) {
  if (flags.positional.empty()) {
    std::cerr << "usage: activeiter_cli align <in.pair> [--method NAME] "
                 "[--np-ratio F] [--sample-ratio F] [--folds N]\n";
    return 2;
  }
  auto pair = LoadAlignedPairFromFile(flags.positional[0]);
  if (!pair.ok()) {
    std::cerr << "load failed: " << pair.status() << "\n";
    return 1;
  }
  auto spec = SpecFor(flags.method);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  // Fold-parallel / feature-extraction / kernel threads, same knob as the
  // benches: the sweep dispatches whole folds onto this pool and each fold
  // task runs its kernels inline. A non-numeric value parses to 0 and runs
  // serially; absurd values are clamped so a typo cannot spawn a thread
  // storm. Results are identical at any thread count.
  size_t threads = 4;
  const char* threads_env = std::getenv("ACTIVEITER_THREADS");
  if (threads_env != nullptr && *threads_env != '\0') {
    threads = std::strtoull(threads_env, nullptr, 10);
    const size_t hw = std::thread::hardware_concurrency();
    const size_t cap = hw > 0 ? hw * 4 : 64;
    if (threads > cap) {
      std::cerr << "# ACTIVEITER_THREADS=" << threads_env << " clamped to "
                << cap << "\n";
      threads = cap;
    }
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  SweepOptions options;
  options.num_folds = 10;
  options.folds_to_run = flags.folds;
  options.seed = flags.seed;
  options.pool = pool.get();
  auto result = RunNpRatioSweep(pair.value(), {flags.np_ratio},
                                flags.sample_ratio, {spec.value()}, options);
  if (!result.ok()) {
    std::cerr << "run failed: " << result.status() << "\n";
    return 1;
  }
  PrintSweepTables(std::cout, result.value());
  return 0;
}

int CmdCatalog() {
  auto catalog = StandardDiagramCatalog(FeatureSet::kMetaPathAndDiagram);
  TextTable table;
  table.SetHeader({"id", "semantics", "signature"});
  for (const auto& d : catalog) {
    table.AddRow({d.id(), d.semantics(), d.Signature()});
  }
  table.Print(std::cout);
  std::cout << catalog.size() << " features (+1 bias column)\n";
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: activeiter_cli <generate|stats|align|catalog> ...\n";
    return 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  std::string command = argv[1];
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "align") return CmdAlign(flags);
  if (command == "catalog") return CmdCatalog();
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}

}  // namespace
}  // namespace activeiter

int main(int argc, char** argv) { return activeiter::Main(argc, argv); }
