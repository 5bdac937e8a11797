// Spangle benchmark binary: runs one workload for a fixed time and prints
// one JSON result line (see perfbench/README.md).
//
//   perfbench --workload raster --seed 1 --seconds 10 --trace 0
//             [--scale 1.0] [--out-dir DIR] [--corrupt]

#include <cstdio>
#include <exception>
#include <memory>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  Args args;
  const std::string error = ParseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "raster") {
    workload = MakeRasterWorkload();
  } else if (args.workload == "ml") {
    workload = MakeMlWorkload();
  } else if (args.workload == "shuffle") {
    workload = MakeShuffleWorkload();
  } else if (args.workload == "serving") {
    workload = MakeServingWorkload();
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    Harness harness(args, workload.get());
    return harness.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
