// serve_mixed: mcs_serve as a child process, driven over its Unix socket as
// a closed loop (kClients connections, one request outstanding on each),
// with its request log on.
//
// Every client runs whole rounds.  A round is kSeededPerRound requests drawn
// from the seed for the client's own cores, followed by a fixed block that
// reproduces the `two-task-bound` fault (see two_task_block), so the share of
// failed requests is the same in every run.
// The seeded stream is adaptive only through `committed` flags of exact
// (budget-free) verdicts, which are deterministic, so a seed always yields
// the same request stream.  Checks run after the timed region.
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/engine.hpp"
#include "bench.hpp"
#include "gen/generator.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "svc/json.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace analysis = mcs::analysis;
namespace rt = mcs::rt;
using mcs::svc::Json;

constexpr std::size_t kClients = 4;
// Named cores per client, driven round-robin one request pair at a time:
// a core whose membership stays hard for long slows only its share of a
// client's requests.
constexpr std::size_t kCoresPerClient = 4;
constexpr std::size_t kSeededPerRound = 48;
// Members per core: verdicts speak of 3 or 4 tasks, never of 2 (README,
// `two-task-bound`).
constexpr std::size_t kMinMembers = 3;
constexpr std::size_t kMaxMembers = 4;
constexpr std::size_t kCacheEntries = 256;
constexpr int kSetupSamples = 40;

enum class Mode { kGreedy, kMarked, kWp };
const char* mode_name(Mode m) {
  return m == Mode::kGreedy ? "greedy" : m == Mode::kMarked ? "marked" : "wp";
}

// ---------------------------------------------------------------- requests

/// What a check found wrong with one response.
enum class Problem {
  kNone,
  kNotOk,          ///< not answered ok
  kCommit,         ///< committed does not match schedulable
  kFresh,          ///< differs from a fresh single-shot analysis
  kDegraded,       ///< degraded verdict schedulable where exact is not
  kUnsound,        ///< a simulated response exceeds a bound
};

/// One request as sent plus what the checks need to re-derive its verdict.
struct Exchange {
  std::string line;
  bool analyzes = false;        ///< carries a verdict
  bool commits = false;         ///< admit or mark_ls
  bool zero_budget = false;     ///< budget_ms:0
  const char* fault = nullptr;  ///< reproducer block this belongs to
  Problem shows = Problem::kNone;  ///< the problem that fault produces
  std::string op;
  Mode mode = Mode::kGreedy;
  std::vector<rt::Task> tasks;  ///< membership the verdict speaks of
  /// Release pattern that must also meet the verdict's bounds (the
  /// reproducer's witness schedule); empty for seeded requests.
  std::vector<mcs::sim::Release> witness;
  // Filled in by the client.
  std::string response;
  double latency = 0.0;
};

Json task_json(const rt::Task& t) {
  Json::Object o;
  o.emplace_back("name", Json(t.name));
  o.emplace_back("exec", Json(static_cast<std::int64_t>(t.exec)));
  o.emplace_back("copy_in", Json(static_cast<std::int64_t>(t.copy_in)));
  o.emplace_back("copy_out", Json(static_cast<std::int64_t>(t.copy_out)));
  o.emplace_back("period", Json(static_cast<std::int64_t>(t.period)));
  o.emplace_back("deadline", Json(static_cast<std::int64_t>(t.deadline)));
  o.emplace_back("prio", Json(static_cast<std::int64_t>(t.priority)));
  o.emplace_back("ls", Json(t.latency_sensitive));
  return Json(std::move(o));
}

/// The `two-task-bound` reproducer: on a core holding exactly these two
/// tasks, the bound of `hi` (5504 under wp) is exceeded by a reachable
/// schedule (5594 with lo released at 0 and hi at 100).
std::vector<rt::Task> repro_tasks() {
  rt::Task hi{"hi", 1063, 266, 266, 19389, 12810, 1, false, nullptr};
  rt::Task lo{"lo", 3492, 873, 873, 57100, 32081, 2, false, nullptr};
  return {hi, lo};
}

/// The witness schedule of the reproducer: lo released at 0 and hi at 100,
/// both periodic from there.
std::vector<mcs::sim::Release> repro_witness() {
  const rt::TaskSet set(repro_tasks());
  const rt::Time horizon = check_horizon(set);
  std::vector<mcs::sim::Release> releases;
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::uint64_t seq = 0;
    for (rt::Time t = i == 0 ? 100 : 0; t < horizon; t += set[i].period) {
      releases.push_back({mcs::sim::JobId{i, seq++}, t});
    }
  }
  mcs::sim::sort_releases(releases);
  return releases;
}

/// Per-core request generator.  Tracks the core's membership from the
/// `committed` flags the service returns.
class CoreStream {
 public:
  CoreStream(std::size_t core, std::uint64_t seed)
      : name_("c" + std::to_string(core)),
        rng_(mcs::support::derive_seed(seed, 0x5e7e, core)) {}

  std::size_t size() const { return members_.size(); }

  /// A fresh task for this core (gen-drawn, deadline-monotonic priority).
  rt::Task draw_task() {
    mcs::gen::GeneratorConfig g;
    g.num_tasks = 4;
    g.utilization = rng_.uniform(0.1, 0.3);
    g.gamma = 0.1;
    g.beta = 0.3;
    const rt::TaskSet set = mcs::gen::generate_task_set(g, rng_);
    rt::Task t = set[static_cast<std::size_t>(rng_.uniform_int(0, 3))];
    t.name = name_ + "_t" + std::to_string(next_name_++);
    t.latency_sensitive = rng_.bernoulli(0.3);
    auto prio = static_cast<rt::Priority>(t.deadline / 1000);
    while (used_prio(prio)) ++prio;
    t.priority = prio;
    return t;
  }

  Exchange admit(const rt::Task& t) {
    Exchange ex = base("admit", Mode::kGreedy);
    ex.commits = true;
    ex.tasks = members_;
    ex.tasks.push_back(t);
    ex.line = envelope("admit", {{"task", task_json(t)}});
    return ex;
  }

  /// When the core holds fewer than kMinMembers tasks: remove requests for
  /// all of them, so set-up can start over from an empty core.
  std::vector<std::string> clear_if_short() {
    std::vector<std::string> lines;
    if (members_.size() >= kMinMembers) return lines;
    for (const rt::Task& t : members_) {
      lines.push_back(envelope("remove", {{"name", Json(t.name)}}));
    }
    members_.clear();
    return lines;
  }

  /// The next seeded request.  Requests come in pairs: first a what-if
  /// analysis with a new task (on a full core, a remove), then an admit, a
  /// remove, a `mark_ls` flip or an analysis of the current membership.
  /// So the core's engine never analyzes one set of task parameters twice
  /// in a row, whichever requests the verdict cache answers: verdicts of
  /// that path differ from a fresh run now and then (README,
  /// `session-drift`).  Every verdict speaks of 3 or 4 tasks: a core drops
  /// to kMinMembers - 1 tasks only between a remove and the next admit.
  Exchange next() {
    const bool zero_budget = rng_.bernoulli(0.2);
    if (first_of_pair_) {
      first_of_pair_ = false;
      if (size() == kMaxMembers) return remove();
      return analyze(random_mode(), zero_budget, true);
    }
    first_of_pair_ = true;
    const double pick = rng_.uniform01();
    if (size() < kMinMembers || (pick < 0.4 && size() < kMaxMembers)) {
      return admit(draw_task());
    }
    if (pick < 0.7) return remove();
    if (pick < 0.85) return mark_ls();
    return analyze(random_mode(), zero_budget, false);
  }

  /// Applies a response's `committed` flag to the tracked membership.
  void observe(const Exchange& ex, const Json& response) {
    if (!ex.commits) return;
    const Json* committed = response.find("committed");
    const bool ok = committed != nullptr && committed->as_bool();
    if (ok && ex.op == "admit") members_.push_back(ex.tasks.back());
    if (ok && ex.op == "mark_ls") members_ = ex.tasks;
  }

 private:
  /// An analysis of the current membership, or a what-if with a new task.
  Exchange analyze(Mode mode, bool zero_budget, bool what_if) {
    Exchange ex = base("analyze", mode);
    ex.tasks = members_;
    ex.zero_budget = zero_budget;
    Json::Object fields;
    fields.emplace_back("mode", Json(std::string(mode_name(mode))));
    if (what_if) {
      ex.tasks.push_back(draw_task());
      fields.emplace_back("task", task_json(ex.tasks.back()));
    }
    ex.line = envelope("analyze", with_budget(std::move(fields), zero_budget));
    return ex;
  }

  /// Flips the LS flag of one member; the service analyzes the new marking
  /// under `marked` and commits it when schedulable.  Always exact.
  Exchange mark_ls() {
    const std::size_t i = pick_member();
    Exchange ex = base("mark_ls", Mode::kMarked);
    ex.commits = true;
    ex.tasks = members_;
    ex.tasks[i].latency_sensitive = !ex.tasks[i].latency_sensitive;
    Json::Object fields;
    fields.emplace_back("name", Json(ex.tasks[i].name));
    fields.emplace_back("ls", Json(ex.tasks[i].latency_sensitive));
    ex.line = envelope("mark_ls", std::move(fields));
    return ex;
  }

  Exchange remove() {
    const std::size_t i = pick_member();
    Exchange ex = base("remove", Mode::kGreedy);
    ex.analyzes = false;
    ex.line = envelope("remove", {{"name", Json(members_[i].name)}});
    members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
    return ex;
  }

  Exchange base(const char* op, Mode mode) {
    Exchange ex;
    ex.op = op;
    ex.analyzes = true;
    ex.mode = mode;
    return ex;
  }

  static Json::Object with_budget(Json::Object fields, bool zero_budget) {
    if (zero_budget) {
      fields.emplace_back("budget_ms", Json(static_cast<std::int64_t>(0)));
    }
    return fields;
  }

  std::string envelope(const char* op, Json::Object fields) {
    Json::Object o;
    o.emplace_back("id", Json(static_cast<std::int64_t>(seq_++)));
    o.emplace_back("op", Json(std::string(op)));
    o.emplace_back("core", Json(name_));
    for (auto& f : fields) o.push_back(std::move(f));
    return Json(std::move(o)).dump();
  }

  Mode random_mode() {
    return static_cast<Mode>(rng_.uniform_int(0, 2));
  }
  std::size_t pick_member() {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(members_.size()) - 1));
  }
  bool used_prio(rt::Priority p) const {
    for (const rt::Task& t : members_) {
      if (t.priority == p) return true;
    }
    return false;
  }

  std::string name_;
  mcs::support::Rng rng_;
  std::vector<rt::Task> members_;
  std::uint64_t next_name_ = 0;
  std::uint64_t seq_ = 0;
  bool first_of_pair_ = true;
};

Exchange block_request(const char* fault, Problem shows,
                       const std::string& core, const std::string& op,
                       Json::Object fields, Mode mode,
                       std::vector<rt::Task> tasks) {
  Exchange ex;
  Json::Object o;
  o.emplace_back("op", Json(op));
  o.emplace_back("core", Json(core));
  for (auto& f : fields) o.push_back(std::move(f));
  ex.line = Json(std::move(o)).dump();
  ex.op = op;
  ex.analyzes = op != "remove";
  ex.commits = op == "admit";
  ex.fault = fault;
  ex.shows = shows;
  ex.mode = mode;
  ex.tasks = std::move(tasks);
  return ex;
}

Json::Object mode_field(Mode m) {
  Json::Object o;
  o.emplace_back("mode", Json(std::string(mode_name(m))));
  return o;
}

Json::Object name_field(const std::string& name) {
  Json::Object o;
  o.emplace_back("name", Json(name));
  return o;
}

Json::Object task_field(const rt::Task& t) {
  Json::Object o;
  o.emplace_back("task", task_json(t));
  return o;
}

/// The `two-task-bound` block of client `c`, on core repro<c>: admit hi,
/// admit lo, analyze under wp / marked / greedy, remove both.  Its verdicts
/// are shared through the verdict cache across clients and rounds; they are
/// the same either way, since the fault is in the analysis itself.  Only an
/// unsound bound is put down to the fault.
std::vector<Exchange> two_task_block(std::size_t c) {
  static const char* const kFault = "two-task-bound";
  constexpr Problem kShows = Problem::kUnsound;
  std::vector<Exchange> block;
  const std::string core = "repro" + std::to_string(c);
  const std::vector<rt::Task> both = repro_tasks();
  block.push_back(block_request(kFault, kShows, core, "admit",
                                task_field(both[0]), Mode::kGreedy,
                                {both[0]}));
  block.push_back(block_request(kFault, kShows, core, "admit",
                                task_field(both[1]), Mode::kGreedy, both));
  for (const Mode m : {Mode::kWp, Mode::kMarked, Mode::kGreedy}) {
    block.push_back(block_request(kFault, kShows, core, "analyze",
                                  mode_field(m), m, both));
  }
  for (Exchange& ex : block) {
    if (ex.tasks.size() == 2) ex.witness = repro_witness();
  }
  for (const rt::Task& t : both) {
    block.push_back(block_request(kFault, kShows, core, "remove",
                                  name_field(t.name), Mode::kGreedy, {}));
  }
  return block;
}

// ------------------------------------------------------------- transport

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect failed");
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string call(const std::string& line) {
    std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("socket write failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("service closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// mcs_serve as a child process.
class ServeProcess {
 public:
  ServeProcess(const Options& options, bool telemetry,
               const std::string& log_path,
               const std::string& telemetry_path)
      : socket_(options.out_dir + "/serve.sock") {
    std::filesystem::remove(socket_);
    std::vector<std::string> args = {
        options.serve_binary,
        "--no-stdio",
        "--socket=" + socket_,
        "--threads=" + std::to_string(std::max(1u, std::thread::hardware_concurrency())),
        "--cache=" + std::to_string(kCacheEntries),
        "--log=" + log_path,
        "--log-truncate"};
    if (telemetry) args.push_back("--telemetry=" + telemetry_path);
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MCS_", 4) != 0) env.emplace_back(*e);
    }
    env.push_back(telemetry ? "MCS_TELEMETRY=1" : "MCS_TELEMETRY=0");
    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const std::string err_path = options.out_dir + "/serve.stderr";
    // vfork: until execve the child borrows the harness's memory, so a start
    // costs the same however much the harness holds (fork would copy its
    // page tables).  The child makes only system calls before execve.
    pid_ = ::vfork();
    if (pid_ < 0) throw std::runtime_error("vfork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the harness
      const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
      const int null = ::open("/dev/null", O_RDWR);
      if (null >= 0) {
        ::dup2(null, 0);
        ::dup2(null, 1);
      }
      if (err >= 0) ::dup2(err, 2);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
  }

  /// Connects, retrying while the service starts up.
  std::unique_ptr<Connection> connect() {
    const double deadline = now_seconds() + 20.0;
    for (;;) {
      try {
        return std::make_unique<Connection>(socket_);
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("mcs_serve exited during start-up");
        }
        if (now_seconds() > deadline) throw;
        ::usleep(100);
      }
    }
  }

  /// Sends shutdown and waits for the process; returns its peak RSS in MB.
  double stop() {
    if (pid_ < 0) return 0.0;
    try {
      Connection c(socket_);
      c.call(R"({"op":"shutdown"})");
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    int status = 0;
    rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ----------------------------------------------------------------- phases

struct Client {
  std::vector<CoreStream> streams;
  std::unique_ptr<Connection> conn;
  std::vector<Exchange> done;
};

/// Starts the service and brings every core to kMinMembers tasks.
struct Session {
  std::unique_ptr<ServeProcess> serve;
  std::vector<Client> clients;
};

Session set_up(const Options& options, bool telemetry,
               const std::string& tag) {
  Session s;
  s.serve = std::make_unique<ServeProcess>(
      options, telemetry, options.out_dir + "/" + tag + ".log.jsonl",
      options.out_dir + "/" + tag + ".telemetry.json");
  for (std::size_t c = 0; c < kClients; ++c) {
    Client client{{}, s.serve->connect(), {}};
    for (std::size_t k = 0; k < kCoresPerClient; ++k) {
      client.streams.emplace_back(c * kCoresPerClient + k, options.seed);
    }
    s.clients.push_back(std::move(client));
  }
  // Initial membership: kMinMembers tasks admitted one by one, retried
  // with a fresh draw until all of them commit.  These set-up verdicts are
  // not operations of the workload.
  for (Client& client : s.clients) {
    for (CoreStream& stream : client.streams) {
      for (int attempt = 0; stream.size() < kMinMembers; ++attempt) {
        if (attempt == 100) throw std::runtime_error("initial admits refused");
        for (std::size_t i = 0; i < kMinMembers; ++i) {
          const Exchange ex = stream.admit(stream.draw_task());
          stream.observe(ex, mcs::svc::parse_json(client.conn->call(ex.line)));
          if (stream.size() <= i) break;
        }
        for (const std::string& line : stream.clear_if_short()) {
          client.conn->call(line);
        }
      }
    }
  }
  return s;
}

/// Runs whole rounds on every client until `seconds` passed, or exactly
/// (*fixed_rounds)[c] rounds on client c when given.  Returns wall time.
double run_rounds(Session& s, double seconds,
                  const std::vector<std::size_t>* fixed_rounds,
                  std::vector<std::size_t>& rounds_done) {
  rounds_done.assign(s.clients.size(), 0);
  const double start = now_seconds();
  std::vector<std::thread> threads;
  std::vector<std::string> errors(s.clients.size());
  for (std::size_t c = 0; c < s.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = s.clients[c];
      try {
        for (std::size_t r = 0;; ++r) {
          if (fixed_rounds != nullptr
                  ? r >= (*fixed_rounds)[c]
                  : (r > 0 && now_seconds() - start >= seconds)) {
            break;
          }
          for (std::size_t i = 0; i < kSeededPerRound; ++i) {
            CoreStream& stream =
                client.streams[(i / 2) % client.streams.size()];
            Exchange ex = stream.next();
            const double t0 = now_seconds();
            ex.response = client.conn->call(ex.line);
            ex.latency = now_seconds() - t0;
            stream.observe(ex, mcs::svc::parse_json(ex.response));
            client.done.push_back(std::move(ex));
          }
          for (Exchange& ex : two_task_block(c)) {
            const double t0 = now_seconds();
            ex.response = client.conn->call(ex.line);
            ex.latency = now_seconds() - t0;
            client.done.push_back(std::move(ex));
          }
          rounds_done[c] = r + 1;
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("client: " + e);
  }
  return now_seconds() - start;
}

// ----------------------------------------------------------------- checks

struct VerdictView {
  bool schedulable = false;
  bool degraded = false;
  std::map<std::string, std::pair<rt::Time, bool>> tasks;  // wcrt, ls
};

VerdictView parse_verdict(const Json& v) {
  VerdictView out;
  out.schedulable = v.find("schedulable")->as_bool();
  out.degraded = v.find("degraded")->as_bool();
  for (const Json& t : v.find("tasks")->as_array()) {
    const Json* w = t.find("wcrt");
    out.tasks[t.find("name")->as_string()] = {
        w->is_null() ? rt::kTimeMax : w->as_int64(), t.find("ls")->as_bool()};
  }
  return out;
}

std::string key_of(Mode mode, const std::vector<rt::Task>& tasks) {
  std::vector<rt::Task> sorted = tasks;
  std::sort(sorted.begin(), sorted.end(),
            [](const rt::Task& a, const rt::Task& b) {
              return a.priority < b.priority;
            });
  std::ostringstream k;
  k << mode_name(mode);
  for (const rt::Task& t : sorted) {
    k << '|' << t.name << ',' << t.exec << ',' << t.copy_in << ','
      << t.copy_out << ',' << t.period << ',' << t.deadline << ','
      << t.priority << ',' << (mode == Mode::kMarked && t.latency_sensitive);
  }
  return k.str();
}

VerdictView fresh_verdict(Mode mode, const std::vector<rt::Task>& tasks) {
  rt::TaskSet set(tasks);
  analysis::AnalysisEngine engine;
  const analysis::AnalysisOptions options;  // the service's defaults
  VerdictView v;
  if (mode == Mode::kGreedy) {
    const auto r = engine.analyze_proposed(set, options);
    v.schedulable = r.schedulable;
    for (std::size_t i = 0; i < set.size(); ++i) {
      v.tasks[set[i].name] = {r.per_task[i].wcrt, r.ls_flags[i]};
    }
  } else {
    const auto r = mode == Mode::kMarked ? engine.analyze_marked(set, options)
                                         : engine.analyze_wp(set, options);
    v.schedulable = r.schedulable;
    for (std::size_t i = 0; i < set.size(); ++i) {
      v.tasks[set[i].name] = {r.per_task[i].wcrt,
                              mode == Mode::kMarked && set[i].latency_sensitive};
    }
  }
  return v;
}

struct CheckOutcome {
  std::size_t failed = 0;
  std::map<std::string, std::size_t> by_fault;
  std::size_t fresh_runs = 0;
  std::size_t simulations = 0;
  double fresh_seconds = 0.0;
  double sim_seconds = 0.0;
  std::vector<std::string> problems;
};

CheckOutcome check_exchanges(const std::vector<Exchange*>& all,
                             std::uint64_t seed) {
  // Distinct memberships needing a fresh exact run.
  std::map<std::string, std::pair<Mode, const std::vector<rt::Task>*>> todo;
  for (const Exchange* ex : all) {
    if (ex->analyzes) todo.emplace(key_of(ex->mode, ex->tasks),
                                   std::make_pair(ex->mode, &ex->tasks));
  }
  std::vector<std::pair<std::string, VerdictView>> fresh(todo.size());
  CheckOutcome out;
  {
    const double t0 = now_seconds();
    mcs::support::ThreadPool pool(
        std::max(1u, std::thread::hardware_concurrency()));
    std::size_t i = 0;
    for (const auto& [key, job] : todo) {
      fresh[i].first = key;
      pool.submit([&fresh, i, job = job] {
        fresh[i].second = fresh_verdict(job.first, *job.second);
      });
      ++i;
    }
    pool.wait_idle();
    out.fresh_seconds = now_seconds() - t0;
    out.fresh_runs = todo.size();
  }
  std::map<std::string, const VerdictView*> fresh_by_key;
  for (const auto& [key, v] : fresh) fresh_by_key[key] = &v;

  struct Finding {
    Problem kind = Problem::kNone;
    std::string detail;
  };
  std::map<std::string, Finding> sim_memo;  // key+bounds -> finding
  const double sim_t0 = now_seconds();
  for (const Exchange* ex : all) {
    Finding f;
    const Json reply = mcs::svc::parse_json(ex->response);
    if (!reply.find("ok")->as_bool()) {
      f = {Problem::kNotOk, "not ok: " + ex->response};
    } else if (ex->analyzes) {
      const VerdictView got = parse_verdict(*reply.find("verdict"));
      const VerdictView& want = *fresh_by_key.at(key_of(ex->mode, ex->tasks));
      if (ex->commits) {
        const Json* committed = reply.find("committed");
        if (committed == nullptr || committed->as_bool() != got.schedulable) {
          f = {Problem::kCommit, "committed does not match schedulable"};
        }
      }
      if (f.kind == Problem::kNone && !got.degraded &&
          (got.schedulable != want.schedulable || got.tasks != want.tasks)) {
        std::ostringstream d;
        d << "verdict differs from a fresh single-shot analysis:";
        for (const auto& [name, bound] : got.tasks) {
          d << ' ' << name << '=' << bound.first << " (fresh "
            << want.tasks.at(name).first << ')';
        }
        f = {Problem::kFresh, d.str()};
      }
      if (f.kind == Problem::kNone && got.degraded && got.schedulable &&
          !want.schedulable) {
        f = {Problem::kDegraded,
             "degraded verdict schedulable where the exact one is not"};
      }
      if (f.kind == Problem::kNone && got.schedulable) {
        // Simulate under the mode's protocol with the verdict's marking.
        std::vector<rt::Task> tasks = ex->tasks;
        std::vector<rt::Time> bounds;
        std::ostringstream memo_key;
        memo_key << key_of(ex->mode, ex->tasks);
        for (rt::Task& t : tasks) {
          const auto& [wcrt, ls] = got.tasks.at(t.name);
          t.latency_sensitive = ex->mode != Mode::kWp && ls;
          bounds.push_back(wcrt);
          memo_key << ';' << wcrt << (t.latency_sensitive ? "L" : "");
        }
        const auto it = sim_memo.find(memo_key.str());
        if (it != sim_memo.end()) {
          f = it->second;
        } else {
          const rt::TaskSet set(tasks);
          const auto protocol = ex->mode == Mode::kWp
                                    ? mcs::sim::Protocol::kWasilyPellizzoni
                                    : mcs::sim::Protocol::kProposed;
          const SoundnessReport rep = check_by_simulation(
              set, protocol, bounds,
              mcs::support::derive_seed(
                  seed, std::hash<std::string>{}(memo_key.str())),
              3);
          ++out.simulations;
          if (!rep.ok) f = {Problem::kUnsound, "simulation: " + rep.detail};
          if (f.kind == Problem::kNone && !ex->witness.empty()) {
            const SoundnessReport w =
                check_releases(set, protocol, bounds, ex->witness);
            if (!w.ok) f = {Problem::kUnsound, "witness schedule: " + w.detail};
          }
          sim_memo[memo_key.str()] = f;
        }
      }
    }
    if (f.kind == Problem::kNone) continue;
    ++out.failed;
    if (ex->fault != nullptr && f.kind == ex->shows) {
      ++out.by_fault[ex->fault];
    } else if (out.problems.size() < 20) {
      out.problems.push_back(f.detail + " | " + ex->line);
    }
  }
  out.sim_seconds = now_seconds() - sim_t0;
  return out;
}

}  // namespace

int run_serve_workload(const Options& options) {
  if (options.workload != "serve_mixed") {
    std::cerr << "unknown serve workload " << options.workload << "\n";
    return 2;
  }
  if (options.serve_binary.empty()) {
    std::cerr << "serve_mixed needs --serve-binary=<mcs_serve>\n";
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  Session session = set_up(options, false, "untraced");

  std::vector<std::size_t> rounds;
  const double wall = run_rounds(session, options.seconds, nullptr, rounds);
  for (Client& c : session.clients) c.conn.reset();
  const double rss = session.serve->stop();

  // Set-up: starting mcs_serve until all kClients connections are open and
  // one status request was answered, then stopping it; CPU seconds of the
  // service from exec to exit, median of kSetupSamples starts.  (The
  // benchmark's own side is left out: it polls connect() until the socket
  // is up, and the number of polls follows the host's load.)
  // Sampled right after the timed rounds, so that every run finds the host
  // in the same state, as the sweep's samples between its rounds do.
  std::vector<double> setup_samples;
  for (int rep = 0; rep < kSetupSamples; ++rep) {
    const double t0 = children_cpu_seconds();
    ServeProcess serve(options, false, options.out_dir + "/setup.log.jsonl",
                       "");
    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < kClients; ++c) conns.push_back(serve.connect());
    conns.front()->call(R"({"op":"status"})");
    conns.clear();
    serve.stop();
    setup_samples.push_back(children_cpu_seconds() - t0);
  }

  LayerNumbers layers;
  if (options.trace) {
    // The same rounds against a fresh service with telemetry on; per-layer
    // numbers and the checks come from this pass.
    Session traced = set_up(options, true, "traced");
    std::vector<std::size_t> traced_rounds;
    const double traced_wall =
        run_rounds(traced, options.seconds, &rounds, traced_rounds);
    for (Client& c : traced.clients) c.conn.reset();
    traced.serve->stop();
    layers.trace_overhead_ratio = traced_wall / wall;
    std::ifstream in(options.out_dir + "/traced.telemetry.json");
    std::stringstream text;
    text << in.rdbuf();
    load_telemetry_json(text.str(), layers);
    session.clients = std::move(traced.clients);
  }

  std::vector<Exchange*> all;
  std::vector<double> latencies, fresh_latencies;
  double latency_sum = 0.0;
  for (Client& c : session.clients) {
    for (Exchange& ex : c.done) all.push_back(&ex);
  }
  for (const Exchange* ex : all) {
    latencies.push_back(ex->latency);
    latency_sum += ex->latency;
    const bool fresh =
        ex->response.find("\"cached\":false") != std::string::npos;
    const bool degraded =
        ex->response.find("\"degraded\":true") != std::string::npos;
    if (ex->analyzes && fresh && !degraded) {
      fresh_latencies.push_back(ex->latency);
    }
    if (ex->zero_budget && degraded) layers.root_lp_s += ex->latency;
  }
  const double n = static_cast<double>(all.size());
  const auto handle = layers.histogram_sums.find("svc.request_seconds");
  if (handle != layers.histogram_sums.end()) {
    layers.svc_wait_mean_ms = 1e3 * (latency_sum - handle->second) / n;
  }

  const CheckOutcome checks = check_exchanges(all, options.seed);
  Result result;
  result.attempted = all.size();
  result.failed = checks.failed;
  // Correct while every failure is one of the named faults.
  std::size_t explained = 0;
  for (const auto& [fault, count] : checks.by_fault) explained += count;
  result.correct = explained == checks.failed;
  for (const auto& p : checks.problems) std::cerr << "FAILED " << p << "\n";
  std::cerr << "# serve_mixed: " << all.size() << " requests, timed wall "
            << wall << " s; failed " << checks.failed;
  for (const auto& [fault, count] : checks.by_fault) {
    std::cerr << " (" << fault << " " << count << ")";
  }
  std::cerr << "; fresh runs " << checks.fresh_runs
            << " in " << checks.fresh_seconds << " s; simulations "
            << checks.simulations << " in " << checks.sim_seconds << " s\n";
  if (options.trace) {
    add_layer_metrics(result, layers);
  } else {
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("peak_rss_mb", rss, "MB");
    result.metric("throughput_per_s", n / wall, "1/s");
    result.metric("busy_ms_per_op", 1e3 * latency_sum / n, "ms");
    result.metric("fresh_p50_ms", 1e3 * percentile(fresh_latencies, 0.5),
                  "ms");
    result.metric("op_p99_ms", 1e3 * percentile(latencies, 0.99), "ms");
  }
  std::cout << result.json() << std::endl;
  return 0;
}

}  // namespace perfbench
