// Input generators and shared helpers.  Every input is a pure function of
// (workload, seed): heavy-tailed graphs come from the library's
// deterministic power-law degree sequence wired by gen::matching_1k,
// flat ones from builders::gnm, and the service's cache-hit requests
// are byte-distinct shuffled copies of already-extracted content.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/vfs.h>

#include "bench.hpp"
#include "gen/matching.hpp"
#include "graph/builders.hpp"
#include "io/edge_list.hpp"
#include "topo/as_level.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace pipebench {

using orbis::Graph;
using orbis::util::Rng;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double current_rss_mb() {
  const auto bytes = orbis::util::current_rss_bytes();
  return bytes ? static_cast<double>(*bytes) / (1024.0 * 1024.0) : 0.0;
}

double peak_rss_mb() {
  const auto bytes = orbis::util::peak_rss_bytes();
  return bytes ? static_cast<double>(*bytes) / (1024.0 * 1024.0) : 0.0;
}

bool ram_backed(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return false;
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kRamfsMagic = 0x858458f6;
  return info.f_type == kTmpfsMagic || info.f_type == kRamfsMagic;
}

bool is_pipeline_workload(const std::string& name) {
  return name == "hub-pipeline" || name == "flat-pipeline";
}

bool is_session_workload(const std::string& name) {
  return name == "svc-session";
}

namespace {

// Heavy-tailed graph: the library's quantile power-law degree sequence
// (no clustering pass) wired into a simple graph by loop-repaired
// matching, so the degree sequence is fixed and the seed varies only
// the wiring.
Graph power_law_graph(orbis::NodeId n, double gamma, std::size_t cap,
                      Rng rng) {
  orbis::topo::AsLevelOptions options;
  options.num_nodes = n;
  options.gamma = gamma;
  options.max_degree_cap = cap;
  const auto degrees = orbis::topo::power_law_degree_sequence(options);
  return orbis::gen::matching_1k(
      orbis::dk::DegreeDistribution::from_sequence(degrees), rng);
}

void write_input(const std::string& dir, const std::string& name,
                 const Graph& g) {
  orbis::io::write_edge_list_file(dir + "/" + name, g);
  std::printf("input %s: n=%u m=%zu max_degree=%zu\n", name.c_str(),
              static_cast<unsigned>(g.num_nodes()), g.num_edges(),
              g.max_degree());
}

// Same edge multiset as `source`, different bytes: header comments kept,
// a copy marker added, data lines shuffled and each edge's endpoint
// order flipped at random.  The dK cache keys on content, so the copy
// must hit.
void write_shuffled_copy(const std::string& dir, const std::string& source,
                         const std::string& name, Rng rng) {
  std::ifstream in(dir + "/" + source);
  if (!in) throw std::runtime_error("cannot read " + source);
  std::vector<std::string> comments;
  std::vector<std::pair<std::string, std::string>> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      comments.push_back(line);
      continue;
    }
    std::istringstream fields(line);
    std::string u;
    std::string v;
    fields >> u >> v;
    edges.emplace_back(u, v);
  }
  rng.shuffle(edges);
  std::ofstream out(dir + "/" + name);
  out << "# pipebench copy " << name << " of " << source << '\n';
  for (const auto& comment : comments) out << comment << '\n';
  for (const auto& [u, v] : edges) {
    if (rng.bernoulli(0.5)) {
      out << u << ' ' << v << '\n';
    } else {
      out << v << ' ' << u << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + name);
}

// The service session's inputs.  The generate target has skitter's node
// count with a lighter tail (γ = 2.1, cap 800: hubs of degree ~700), so
// the job's 2K stage reaches D2 = 0 well inside its attempt budget.
constexpr orbis::NodeId kTargetNodes = 9204;
constexpr orbis::NodeId kRequestNodes = 8000;  // hit bases and misses
constexpr orbis::NodeId kMetricsNodes = 4000;

}  // namespace

SessionPlan session_plan() {
  SessionPlan plan;
  plan.target = "target.edges";
  for (int i = 0; i < 4; ++i) {
    plan.bases.push_back("base" + std::to_string(i) + ".edges");
  }
  for (int i = 0; i < 2; ++i) {
    plan.metrics_inputs.push_back("metrics" + std::to_string(i) + ".edges");
  }
  // 120 closed-loop requests: per 10, 7 cache hits, 2 misses, 1 metrics.
  const std::string pattern = "HHMHHXHHMH";
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t metrics = 0;
  char name[32];
  for (std::size_t i = 0; i < 120; ++i) {
    PlannedRequest request;
    switch (pattern[i % pattern.size()]) {
      case 'H':
        request.kind = RequestKind::hit;
        std::snprintf(name, sizeof(name), "hit%03zu.edges", hits);
        request.file = name;
        request.content = plan.bases[hits % plan.bases.size()];
        ++hits;
        break;
      case 'M':
        request.kind = RequestKind::miss;
        std::snprintf(name, sizeof(name), "miss%03zu.edges", misses++);
        request.file = name;
        request.content = request.file;
        break;
      default:
        request.kind = RequestKind::metrics;
        request.file =
            plan.metrics_inputs[metrics++ % plan.metrics_inputs.size()];
        request.content = request.file;
        break;
    }
    plan.requests.push_back(request);
  }
  return plan;
}

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  const Rng root(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  if (workload == "hub-pipeline") {
    // γ = 1.93 with a 2400 cap: ~95.5k edges, hubs of degree ~2300.
    write_input(dir, "input.edges",
                power_law_graph(30000, 1.93, 2400, root.stream(1)));
  } else if (workload == "flat-pipeline") {
    Rng rng = root.stream(2);
    write_input(dir, "input.edges", orbis::builders::gnm(300000, 900000, rng));
  } else if (workload == "svc-session") {
    const SessionPlan plan = session_plan();
    std::uint64_t stream = 100;
    write_input(dir, plan.target, power_law_graph(kTargetNodes, 2.1, 800,
                                                  root.stream(stream++)));
    for (const auto& base : plan.bases) {
      write_input(dir, base, power_law_graph(kRequestNodes, 2.1, 300,
                                             root.stream(stream++)));
    }
    for (const auto& input : plan.metrics_inputs) {
      write_input(dir, input, power_law_graph(kMetricsNodes, 2.1, 300,
                                              root.stream(stream++)));
    }
    for (const auto& request : plan.requests) {
      const Rng rng = root.stream(stream++);
      if (request.kind == RequestKind::hit) {
        write_shuffled_copy(dir, request.content, request.file, rng);
      } else if (request.kind == RequestKind::miss) {
        orbis::io::write_edge_list_file(
            dir + "/" + request.file,
            power_law_graph(kRequestNodes, 2.1, 300, rng));
      }
    }
    std::printf("input requests: %zu (copies and fresh graphs of n=%u)\n",
                plan.requests.size(), kRequestNodes);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
}

}  // namespace pipebench
