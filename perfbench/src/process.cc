#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common.h"
#include "net/shard_server.h"

namespace perfbench {
namespace {

std::string SelfExecutable() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw SetupFailure("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

// Reads one line from `fd`, waiting at most `timeout_s` in total.
std::string ReadLine(int fd, double timeout_s) {
  std::string line;
  const double deadline = NowSeconds() + timeout_s;
  while (line.empty() || line.back() != '\n') {
    const double left = deadline - NowSeconds();
    if (left <= 0.0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    char c = 0;
    const ssize_t got = read(fd, &c, 1);
    if (got <= 0) break;
    line.push_back(c);
  }
  return line;
}

}  // namespace

ShardFleet::ShardFleet(const std::string& index_dir, uint32_t count,
                       uint64_t cache_bytes) {
  const std::string exe = SelfExecutable();
  const std::string cache_arg = std::to_string(cache_bytes);
  try {
    for (uint32_t i = 0; i < count; ++i) {
      int fds[2];
      if (pipe2(fds, O_CLOEXEC) != 0) throw SetupFailure("pipe2 failed");
      std::vector<std::string> args = {exe, "--shard", "--dir", index_dir,
                                       "--cache-bytes", cache_arg};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t parent = getpid();
      const pid_t pid = fork();
      if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) _exit(1);
        dup2(fds[1], STDOUT_FILENO);
        execv(argv[0], argv.data());
        _exit(127);
      }
      close(fds[1]);
      if (pid < 0) {
        close(fds[0]);
        throw SetupFailure("fork failed");
      }
      pids_.push_back(pid);
      pipes_.push_back(fds[0]);
      const std::string line = ReadLine(fds[0], 60.0);
      unsigned port = 0;
      if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 ||
          port == 0 || port > 65535) {
        throw SetupFailure("shard " + std::to_string(i) +
                           " did not start (got '" + line + "')");
      }
      addresses_.push_back({"127.0.0.1", static_cast<uint16_t>(port)});
    }
  } catch (...) {
    Stop();
    throw;
  }
}

ShardFleet::~ShardFleet() { Stop(); }

double ShardFleet::CpuSeconds() const {
  double total = 0.0;
  for (pid_t pid : pids_) total += ProcessCpuSeconds(pid);
  return total;
}

double ShardFleet::Stop() {
  for (pid_t pid : pids_) kill(pid, SIGTERM);
  const double deadline = NowSeconds() + 10.0;
  for (pid_t pid : pids_) {
    int status = 0;
    rusage usage{};
    for (;;) {
      const pid_t done = wait4(pid, &status, WNOHANG, &usage);
      if (done == pid || (done < 0 && errno != EINTR)) break;
      if (NowSeconds() > deadline) {
        kill(pid, SIGKILL);
        while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    peak_rss_mb_ += static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  for (int fd : pipes_) close(fd);
  pids_.clear();
  pipes_.clear();
  return peak_rss_mb_;
}

int ShardMain(const std::string& index_dir, uint64_t cache_bytes) {
  // Block the stop signals before any thread starts, so every thread
  // inherits the mask and sigwait below is the one place they arrive.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  kbtim::net::ShardServerOptions options;
  options.service.num_workers = 1;
  options.service.cache.block_cache_bytes = cache_bytes;
  auto server = kbtim::net::ShardServer::Start(index_dir, options);
  if (!server.ok()) {
    std::fprintf(stderr, "shard start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  return 0;
}

}  // namespace perfbench
