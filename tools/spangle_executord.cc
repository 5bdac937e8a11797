// Executor daemon entry point. The fleet spawns one of these per
// executor; it binds an ephemeral port by default, announces it on
// stdout as "SPANGLE_EXECUTORD PORT=<port> PID=<pid>" (the line the
// fleet's spawn path parses), then serves block/task RPCs until a
// Shutdown RPC — or until its driver kills it, which is the distributed
// failure model under test.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/executor_daemon.h"

namespace {

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  spangle::net::ExecutorDaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (ParseFlag(argv[i], "--executor-id", &value)) {
      options.executor_id = static_cast<int>(std::strtol(value, nullptr, 10));
    } else if (ParseFlag(argv[i], "--memory-budget", &value)) {
      options.memory_budget_bytes = std::strtoull(value, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: spangle_executord [--port=N] [--executor-id=N] "
                   "[--memory-budget=BYTES]\n");
      return 2;
    }
  }

  spangle::net::ExecutorDaemon daemon(options);
  const spangle::Status st = daemon.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "spangle_executord: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("SPANGLE_EXECUTORD PORT=%u PID=%d\n",
              static_cast<unsigned>(daemon.port()),
              static_cast<int>(::getpid()));
  std::fflush(stdout);
  daemon.Wait();
  return 0;
}
