// pup benchmark driver.
//
//   pup_bench --workload <fig4_pack|cyclic2d_unpack|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//   pup_bench --inputs-digest --workload <w> --seed <n>
//   pup_bench --list-metrics
//
// Runs one workload, checks its results against the serial F90 oracle,
// prints every metric with its unit and, as the last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 on any oracle mismatch or failed operation, 2 on a
// usage error or a PUP_* variable in the environment.  See README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "report.hpp"

namespace {

// The library reads these at its edges; any of them would change what the
// benchmark measures behind its back.
constexpr const char* kForbiddenEnv[] = {"PUP_THREADS", "PUP_BACKEND",
                                         "PUP_SIMD",    "PUP_FAULTS",
                                         "PUP_RECOVERY", "PUP_RELIABLE"};

int usage(const std::string& why) {
  std::cerr << "pup_bench: " << why << "\n"
            << "usage: pup_bench --workload <fig4_pack|cyclic2d_unpack|"
               "service_mix> --seed <n> --seconds <s> --trace <0|1>\n"
            << "       pup_bench --inputs-digest --workload <w> --seed <n>\n"
            << "       pup_bench --list-metrics\n";
  return 2;
}

bool known_workload(const std::string& w) {
  return w == "fig4_pack" || w == "cyclic2d_unpack" || w == "service_mix";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.process_start = perfbench::Clock::now();
  bool inputs_digest = false;
  bool list_metrics = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
        args.trace = t == "1";
      } else if (a == "--inputs-digest") {
        inputs_digest = true;
      } else if (a == "--list-metrics") {
        list_metrics = true;
      } else if (a == "--corrupt-oracle") {
        args.corrupt_oracle = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (list_metrics) {
    for (const auto& m : perfbench::end_to_end_metrics()) {
      std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    }
    for (const auto& m : perfbench::per_layer_metrics()) {
      std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    }
    return 0;
  }
  if (!known_workload(args.workload)) {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "pup_bench: refusing to run with " << var
                << " set; the benchmark fixes the machine configuration "
                   "itself\n";
      return 2;
    }
  }

  if (inputs_digest) {
    const std::uint64_t h =
        args.workload == "service_mix"
            ? perfbench::service_inputs_digest(args.seed)
            : perfbench::direct_inputs_digest(args.workload, args.seed);
    std::cout << std::hex << h << std::endl;
    return 0;
  }

  perfbench::print_stamp(std::cout, args);
  perfbench::Sheet sheet;
  try {
    if (args.workload == "service_mix") {
      perfbench::run_service_mix(args, sheet);
    } else {
      perfbench::run_direct(args, sheet);
    }
  } catch (const std::exception& e) {
    std::cerr << "pup_bench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (!perfbench::print_result(std::cout, args, sheet)) return 3;
  if (sheet.mismatches > 0 || sheet.failed > 0) {
    std::cerr << "pup_bench: " << sheet.failed << " of " << sheet.attempted
              << " operations failed (" << sheet.mismatches
              << " oracle mismatches)\n";
    return 1;
  }
  return 0;
}
