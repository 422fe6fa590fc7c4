#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The perfbench workloads. Each one builds its data from the run's seed,
// names the statements its closed-loop clients send over HTTP, and
// checks every response: against reference answers that are themselves
// checked by oracles written without the engine (tpch_olap,
// wide_results), or against invariants and a client-side model of every
// write (mixed_rw).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace perfbench {

/// One statement a client sends.
struct Request {
  size_t kind = 0;       // index into Workload::classes()
  std::string sql;
  size_t variant = 0;    // which reference answer applies (read workloads)
  std::array<int64_t, 3> args{};  // statement parameters the check needs
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Statement classes; latency percentiles are taken per class.
  virtual std::vector<std::string> classes() const = 0;
  /// Closed-loop clients, each with its own keep-alive connection.
  virtual int clients() const = 0;
  /// Worker tasks per parallel pipeline (Database::set_execution_threads).
  virtual int execution_threads() const = 0;

  /// Loads the data into an empty database. Timed as set-up, and run
  /// several times per process on the same seed.
  virtual agora::Status Load(agora::Database* db) = 0;
  /// Runs once, after the last Load: computes reference answers with a
  /// serial engine configuration and checks them against oracles that do
  /// not use the engine.
  virtual agora::Status Prepare(agora::Database* db) = 0;

  /// The `i`-th request of `client`; called only from that client's
  /// thread.
  virtual Request Next(int client, uint64_t i) = 0;
  /// Checks one 200 response and records the effect of a write; called
  /// only from `client`'s thread.
  virtual agora::Status Check(int client, const Request& request,
                              const std::string& body) = 0;
  /// Read statements the traced run replays layer by layer.
  virtual std::vector<Request> ReplaySet() = 0;
  /// Checks the final database state once every client has stopped.
  virtual agora::Status Finish(agora::Database* db) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
