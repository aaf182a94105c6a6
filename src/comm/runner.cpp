#include "comm/runner.hpp"

#include <sched.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "comm/context.hpp"
#include "comm/inproc_transport.hpp"
#include "comm/tcp_transport.hpp"
#include "common/log.hpp"

namespace v6d::comm {

namespace {

/// Fresh rendezvous directory for an unnamed local TCP world.
std::string make_temp_rendezvous() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base && *base ? base : "/tmp") +
                     "/v6d-tcp-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (!::mkdtemp(buf.data()))
    throw TransportError("cannot create rendezvous directory " + tmpl);
  return std::string(buf.data());
}

}  // namespace

int rank_cpu_share(int ranks) {
  if (std::getenv("OMP_NUM_THREADS")) return 0;
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::max(1, cpus / std::max(1, ranks));
}

void run_transport(int nranks, const LaunchOptions& options,
                   const std::function<void(Communicator&)>& fn) {
  const bool tcp = options.backend == "tcp";
  if (!tcp && options.backend != "inproc")
    throw std::invalid_argument("comm: unknown transport backend '" +
                                options.backend + "'");

  // Shared state per backend: the Context for thread ranks, a rendezvous
  // directory (possibly temporary) for loopback TCP ranks.
  std::optional<Context> ctx;
  if (!tcp) ctx.emplace(nranks);
  std::string rendezvous = options.rendezvous;
  bool temp_rendezvous = false;
  if (tcp && rendezvous.empty()) {
    rendezvous = make_temp_rendezvous();
    temp_rendezvous = true;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::exception_ptr first_error;
  std::mutex error_mutex;
  [[maybe_unused]] const int team = rank_cpu_share(nranks);

  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      log::set_rank(r);
#ifdef _OPENMP
      if (team > 0) omp_set_num_threads(team);
#endif
      std::unique_ptr<Transport> transport;
      try {
        if (tcp) {
          TcpOptions tcp_options;
          tcp_options.rank = r;
          tcp_options.world = nranks;
          tcp_options.hosts = rendezvous;
          tcp_options.timeout_s = options.timeout_s;
          tcp_options.liveness_timeout_s = options.liveness_timeout_s;
          tcp_options.heartbeat_interval_s = options.heartbeat_interval_s;
          transport = std::make_unique<TcpTransport>(tcp_options);
        } else {
          transport = std::make_unique<InProcTransport>(&*ctx, r);
        }
        if (options.wrap) transport = options.wrap(std::move(transport), r);
        Communicator comm(*transport);
        fn(comm);
        transport->shutdown();
      } catch (const AbortedError&) {
        // A peer already failed and aborted the world; its error is the
        // one worth reporting, so secondary unwind noise is dropped —
        // unless THIS rank's endpoint diagnosed the primary failure (a
        // lost peer, a liveness deadline): then the diagnosis is the
        // report, since the dead rank will never speak for itself.
        try {
          if (transport) transport->rethrow_diagnosis();
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Wake peers blocked in Mailbox::pop (a collective's included) on
        // this rank's never-coming messages so join() below returns.  Transport
        // construction itself may have failed; peers then time out of
        // their own rendezvous.
        if (transport) transport->abort();
      }
      log::set_rank(-1);
    });
  }
  for (auto& t : threads) t.join();
  if (temp_rendezvous) {
    std::error_code ec;
    std::filesystem::remove_all(rendezvous, ec);
  }
  if (first_error) std::rethrow_exception(first_error);
}

void run(int nranks, const std::function<void(Communicator&)>& fn) {
  run_transport(nranks, LaunchOptions{}, fn);
}

}  // namespace v6d::comm
