// perfbench — the end-to-end benchmark program behind BENCHMARK.json.
//
//   perfbench gen --workload W --seed S --dir D [--size full|tiny]
//   perfbench run --workload W --seed S --dir D [--size full|tiny]
//                 --seconds T [--trace-file F] [--git-sha X --git-dirty 0|1]
//
// `gen` builds the seeded inputs (lognormal mock, survey mask, randoms) and
// writes them as catalog files. `run` then times the path a CLI run takes —
// catalog file(s) read -> [data_minus_randoms] -> index or partition ->
// traversal -> reduce -> zeta/xi CSV write — through the same public
// library calls, in repetitions until T seconds have been measured, checks
// the results, and prints one JSON object with the raw figures on stdout
// (perfbench/run.py turns it into the benchmark's result line).
//
// With --trace-file the run is the traced run: repetitions alternate
// untraced and traced (the medians give trace.overhead_frac), spans are
// recorded around every library call of the traced repetitions and around
// probes of each layer's public functions, and the spans are written as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing). All
// instrumentation lives in this file; the library is measured as built.
//
// Every performance knob stays at its library default: the workloads set
// only science inputs (bins, lmax, LOS and observer, kMixed precision as the
// CLI does, threads, ranks).
#include <omp.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/brute3pcf.hpp"
#include "core/alm.hpp"
#include "core/engine.hpp"
#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "dist/runner.hpp"
#include "io/catalog_io.hpp"
#include "io/zeta_io.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"
#include "mocks/lognormal.hpp"
#include "sim/generators.hpp"
#include "sim/mask.hpp"
#include "tree/kdtree.hpp"
#include "util/argparse.hpp"

using namespace galactos;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Boxes are scaled down from 120 / 150 / 180 Mpc/h so one
// repetition takes about two seconds on a 4-core host: a run then holds
// several repetitions and its median is steady. `tiny` shrinks every box
// for the smoke test.
// ---------------------------------------------------------------------------
enum class Kind { kBox, kSurvey, kDist };

struct Workload {
  std::string name;
  Kind kind = Kind::kBox;
  double box = 0.0;     // mock box side [Mpc/h]
  int grid_n = 32;      // lognormal FFT grid (cells of ~2.5 Mpc/h)
  double rmax = 0.0;    // bins are linear in [rmax / nbins, rmax]
  int nbins = 10;
  int lmax = 10;
  int threads = 4;      // OpenMP threads (kDist: threads per rank)
  int ranks = 4;        // kDist: timed ranks; elsewhere: the dist probe
  double check_side = 0.0;  // side of the oracle sub-catalog cube
};

Workload make_workload(const std::string& name, const std::string& size) {
  const bool tiny = size == "tiny";
  if (!tiny && size != "full")
    throw std::runtime_error("--size must be full | tiny");
  Workload w;
  w.name = name;
  if (name == "box-l10") {
    w.kind = Kind::kBox;
    w.box = tiny ? 30.0 : 80.0;
    w.rmax = tiny ? 8.0 : 24.0;
    w.lmax = 10;
    w.check_side = tiny ? 14.0 : 30.0;
  } else if (name == "survey-l10") {
    w.kind = Kind::kSurvey;
    w.box = tiny ? 30.0 : 72.0;
    w.rmax = 6.0;
    w.lmax = 10;
    w.check_side = tiny ? 12.0 : 18.0;
  } else if (name == "dist4-l5") {
    w.kind = Kind::kDist;
    w.box = tiny ? 36.0 : 108.0;
    w.grid_n = tiny ? 16 : 32;
    w.rmax = tiny ? 6.0 : 12.0;
    w.lmax = 5;
    w.threads = 1;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (box-l10 | survey-l10 | dist4-l5)");
  }
  if (tiny) w.grid_n = 16;
  return w;
}

core::EngineConfig engine_config(const Workload& w) {
  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(w.rmax / w.nbins, w.rmax, w.nbins);
  cfg.lmax = w.lmax;
  cfg.threads = w.threads;
  cfg.tree.precision = core::TreePrecision::kMixed;  // as the CLI does
  if (w.kind == Kind::kSurvey) {
    cfg.los = core::LineOfSight::kRadial;
    cfg.observer = {0.5 * w.box, 0.5 * w.box, -0.5 * w.box};
  }
  return cfg;
}

dist::DistRunConfig dist_config(const Workload& w, core::EngineConfig cfg) {
  dist::DistRunConfig d;
  cfg.threads = 1;
  d.engine = cfg;
  d.ranks = w.ranks;
  return d;
}

// Survey footprint: a shell sector seen from the observer below the box,
// with one "bright star" hole punched into it.
sim::ShellSectorMask survey_mask(const Workload& w) {
  const sim::Vec3 obs = engine_config(w).observer;
  sim::ShellSectorMask m(obs, 0.55 * w.box, 1.45 * w.box, 0.55);
  m.add_hole(sim::Vec3{0.15, 0.1, 1.0}.normalized(), 0.12);
  return m;
}

std::string path_in(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

// ---------------------------------------------------------------------------
// gen: seeded inputs written as files before any timing.
// ---------------------------------------------------------------------------
//
// The density field is one fixed lognormal realization, as the paper
// measures one Outer Rim snapshot; the seed draws the galaxies from it.
// A lognormal mock at kThin x the target density, thinned with keep
// probability 1/kThin, is a Poisson sample of the same field at the target
// density. In boxes this small the pair count of independent field
// realizations scatters by ~25% (cosmic variance), which would swamp any
// timing difference between two commits; thinning one field keeps the
// problem size fixed to within sampling noise.
constexpr std::uint64_t kFieldSeed = 20170901;
constexpr int kThin = 4;

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  mocks::LognormalParams mp;
  mp.grid_n = static_cast<std::size_t>(w.grid_n);
  mp.box_side = w.box;
  mp.nbar = kThin * sim::kOuterRimDensity;
  mp.seed = kFieldSeed;
  const sim::Catalog parent =
      mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies;
  math::Rng rng(seed);
  sim::Catalog mock;
  for (std::size_t i = 0; i < parent.size(); ++i)
    if (rng.uniform() * kThin < 1.0)
      mock.push_back(parent.x[i], parent.y[i], parent.z[i], parent.w[i]);
  if (w.kind == Kind::kSurvey) {
    const sim::ShellSectorMask mask = survey_mask(w);
    const sim::Catalog data = sim::apply_mask(mock, mask);
    const sim::Catalog randoms = sim::random_in_mask(
        2 * data.size(), sim::Aabb::cube(w.box), mask, seed ^ 0x5eedull);
    io::write_catalog_text(data, path_in(dir, "data.txt"));
    io::write_catalog_text(randoms, path_in(dir, "randoms.txt"));
    std::printf("{\"data\": %zu, \"randoms\": %zu}\n", data.size(),
                randoms.size());
  } else {
    io::write_catalog_binary(mock, path_in(dir, "data.bin"));
    std::printf("{\"data\": %zu}\n", mock.size());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once as Chrome trace-event JSON.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  double t0 = 0, t1 = 0;  // seconds since the trace origin
  int parent = -1;
  std::vector<std::pair<std::string, double>> counts;
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}
  int open(const std::string& name) {
    spans_.push_back(Span{name, now(), 0.0, current_, {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[id].t1 = now();
    current_ = spans_[id].parent;
  }
  void count(int id, const std::string& key, double v) {
    spans_[id].counts.emplace_back(key, v);
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Span duration minus the part of it its children cover (children are
  // sequential on the benchmark's thread, so their durations add).
  double self_seconds(int id) const {
    double child = 0;
    for (const Span& s : spans_)
      if (s.parent == id) child += s.t1 - s.t0;
    return spans_[id].t1 - spans_[id].t0 - child;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; a null trace makes it a no-op (the untraced repetitions).
class Scope {
 public:
  Scope(Trace* t, const std::string& name)
      : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_) t_->close(id_);
  }
  void count(const std::string& key, double v) {
    if (t_) t_->count(id_, key, v);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// One repetition of the timed path.
// ---------------------------------------------------------------------------
struct RepResult {
  double wall_s = 0, setup_s = 0;
  double read_s = 0, build_s = 0, traverse_s = 0, write_s = 0;
  std::uint64_t bytes_read = 0, bytes_written = 0;
  std::uint64_t pairs = 0;
  core::EngineStats stats;                // single-process workloads
  std::vector<dist::RankReport> reports;  // kDist
  core::ZetaResult result;
};

RepResult run_rep(const Workload& w, const core::EngineConfig& cfg,
                  const std::string& dir, Trace* tr) {
  RepResult r;
  Scope rep(tr, "rep");
  const auto t0 = Clock::now();
  sim::Catalog cat, randoms;
  {
    Scope s(tr, "io.catalog_read");
    const auto t = Clock::now();
    if (w.kind == Kind::kSurvey) {
      // As the CLI's --randoms path: both text, then the D - R contrast.
      const std::string dp = path_in(dir, "data.txt");
      const std::string rp = path_in(dir, "randoms.txt");
      r.bytes_read = file_bytes(dp) + file_bytes(rp);
      cat = io::read_catalog_text(dp);
      randoms = io::read_catalog_text(rp);
    } else {
      const std::string p = path_in(dir, "data.bin");
      r.bytes_read = file_bytes(p);
      cat = io::read_catalog_binary(p);
    }
    r.read_s = seconds_since(t);
    s.count("bytes", static_cast<double>(r.bytes_read));
  }
  if (w.kind == Kind::kSurvey) {
    Scope s(tr, "sim.data_minus_randoms");
    cat = sim::data_minus_randoms(cat, randoms);
    s.count("points", static_cast<double>(cat.size()));
  }
  if (w.kind == Kind::kDist) {
    Scope s(tr, "dist.run_distributed");
    const auto t = Clock::now();
    r.result = dist::run_distributed(cat, dist_config(w, cfg), &r.reports);
    r.traverse_s = seconds_since(t);
    double setup_max = 0;
    for (const auto& rep_r : r.reports)
      setup_max = std::max(setup_max, rep_r.partition_seconds +
                                          rep_r.index_build_seconds);
    r.setup_s = r.read_s + setup_max;
    s.count("pairs", static_cast<double>(r.result.n_pairs));
  } else {
    core::Engine engine(cfg);
    core::Engine::Staged staged;
    {
      Scope s(tr, "engine.build_index");
      const auto t = Clock::now();
      staged = engine.build_index(std::move(cat));
      r.build_s = seconds_since(t);
    }
    r.setup_s = seconds_since(t0);
    Scope s(tr, "engine.run_indexed");
    const auto t = Clock::now();
    r.result = staged.run_indexed(nullptr, &r.stats);
    r.traverse_s = seconds_since(t);
    s.count("pairs", static_cast<double>(r.stats.pairs));
    s.count("candidates", static_cast<double>(r.stats.candidates));
    s.count("primaries", static_cast<double>(r.result.n_primaries));
  }
  {
    Scope s(tr, "io.zeta_write");
    const auto t = Clock::now();
    const std::string zp = path_in(dir, "out_zeta.csv");
    const std::string xp = path_in(dir, "out_xi.csv");
    io::write_zeta_csv(r.result, zp);
    io::write_xi_csv(r.result, xp);
    r.write_s = seconds_since(t);
    r.bytes_written = file_bytes(zp) + file_bytes(xp);
    s.count("bytes", static_cast<double>(r.bytes_written));
  }
  r.wall_s = seconds_since(t0);
  r.pairs = r.result.n_pairs;
  rep.count("pairs", static_cast<double>(r.pairs));
  return r;
}

// The catalog the timed path indexes (data - randoms for surveys), read
// outside any timing for the checks and probes.
sim::Catalog indexed_catalog(const Workload& w, const std::string& dir) {
  if (w.kind == Kind::kSurvey)
    return sim::data_minus_randoms(
        io::read_catalog_text(path_in(dir, "data.txt")),
        io::read_catalog_text(path_in(dir, "randoms.txt")));
  return io::read_catalog_binary(path_in(dir, "data.bin"));
}

// ---------------------------------------------------------------------------
// Result checks (each one counts as an operation; a failure fails it).
// ---------------------------------------------------------------------------
struct Check {
  std::string name;
  bool ok = false;
  double value = 0, limit = 0;
};

// Oracle check: the workload's engine config on a seeded sub-catalog (a
// cube around a random point) against baseline::direct_summation. kMixed
// stores positions in float by design, so the oracle is given the same
// float-rounded positions; what remains is float arithmetic on the
// separations (~1e-7 relative per unit vector, amplified where data and
// negative-weight randoms cancel) and a pair on a bin edge that may change
// bin (seen at 1e-5). Tolerance: pair count and zeta (relative L2) within
// 1e-3; typical zeta errors are 1e-9 to 1e-7.
std::vector<Check> oracle_checks(const Workload& w,
                                 const core::EngineConfig& cfg,
                                 const sim::Catalog& cat, std::uint64_t seed) {
  math::Rng rng(seed ^ 0xc0ffeeull);
  const std::size_t pick =
      static_cast<std::size_t>(rng.uniform() * static_cast<double>(cat.size()));
  const sim::Vec3 c = cat.position(std::min(pick, cat.size() - 1));
  const double h = 0.5 * w.check_side;
  sim::Catalog sub, sub_f32;
  auto f32 = [](double v) {
    return static_cast<double>(static_cast<float>(v));
  };
  for (std::size_t i = 0; i < cat.size(); ++i)
    if (std::abs(cat.x[i] - c.x) <= h && std::abs(cat.y[i] - c.y) <= h &&
        std::abs(cat.z[i] - c.z) <= h) {
      sub.push_back(cat.x[i], cat.y[i], cat.z[i], cat.w[i]);
      sub_f32.push_back(f32(cat.x[i]), f32(cat.y[i]), f32(cat.z[i]),
                        cat.w[i]);
    }

  baseline::OracleConfig oc;
  oc.bins = cfg.bins;
  oc.lmax = cfg.lmax;
  oc.los = cfg.los;
  oc.observer = cfg.observer;
  const core::ZetaResult ref = baseline::direct_summation(sub_f32, oc);
  const core::ZetaResult got = core::Engine(cfg).run(sub);
  const double pair_rel =
      std::abs(static_cast<double>(got.n_pairs) -
               static_cast<double>(ref.n_pairs)) /
      std::max(1.0, static_cast<double>(ref.n_pairs));
  const double l2 = core::l2_rel_err(ref, got);
  return {{"oracle.pairs_rel", ref.n_pairs > 0 && pair_rel <= 1e-3, pair_rel,
           1e-3},
          {"oracle.zeta_l2_rel", std::isfinite(l2) && l2 <= 1e-3, l2, 1e-3}};
}

// Distributed check: the reduced result against an untimed single-process
// Engine::run of the same catalog.
double payload_rel_diff(const core::ZetaResult& ref,
                        const core::ZetaResult& got) {
  const std::vector<double> a = ref.reduce_payload();
  const std::vector<double> b = got.reduce_payload();
  if (a.size() != b.size()) return INFINITY;
  double dmax = 0, amax = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dmax = std::max(dmax, std::abs(a[i] - b[i]));
    amax = std::max(amax, std::abs(a[i]));
  }
  return amax > 0 ? dmax / amax : dmax;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only).
// ---------------------------------------------------------------------------

// Bucket kernel on full 128-pair buckets at `lmax`, on `threads` threads
// each with its own bucket and accumulator; aggregate GFLOP/s.
double probe_kernel_gflops(int lmax, int threads) {
  constexpr int kBucket = 128;
  const int n_mono = math::monomial_count(lmax);
  const double flop_per_iter = core::kernel_flops_per_pair(lmax) * kBucket;
  const int iters = std::max(1000, static_cast<int>(2e9 / flop_per_iter));
  double best = INFINITY;
  for (int trial = 0; trial < 3; ++trial) {
    double wall = 0;
#pragma omp parallel num_threads(threads)
    {
      math::Rng rng(42 + static_cast<std::uint64_t>(omp_get_thread_num()));
      std::vector<double> ux(kBucket), uy(kBucket), uz(kBucket), wt(kBucket);
      for (int i = 0; i < kBucket; ++i) {
        rng.unit_vector(ux[i], uy[i], uz[i]);
        wt[i] = rng.uniform(0.5, 1.5);
      }
      std::vector<double> acc(static_cast<std::size_t>(n_mono) * core::kLanes,
                              0.0);
      for (int it = 0; it < iters / 4; ++it)  // warm up
        core::kernel_running_product(ux.data(), uy.data(), uz.data(),
                                     wt.data(), kBucket, lmax, acc.data(), 4);
#pragma omp barrier
      const auto t0 = Clock::now();
      for (int it = 0; it < iters; ++it)
        core::kernel_running_product(ux.data(), uy.data(), uz.data(),
                                     wt.data(), kBucket, lmax, acc.data(), 4);
#pragma omp barrier
#pragma omp master
      wall = seconds_since(t0);
      volatile double sink = acc[0];
      (void)sink;
    }
    best = std::min(best, wall);
  }
  return flop_per_iter * static_cast<double>(iters) * threads / best / 1e9;
}

// compute_alm + ZetaAccumulator::add_primary with every bin touched.
double probe_alm_zeta_us(int lmax, int nbins) {
  core::KernelConfig kc;
  kc.lmax = lmax;
  kc.nbins = nbins;
  core::MultipoleAccumulator acc(kc);
  math::Rng rng(7);
  acc.start_primary();
  for (int b = 0; b < nbins; ++b)
    for (int i = 0; i < 64; ++i) {
      double x, y, z;
      rng.unit_vector(x, y, z);
      acc.push(b, x, y, z, rng.uniform(0.5, 1.5));
    }
  acc.finish_primary();
  const math::SphHarmTable table(lmax);
  core::ZetaAccumulator zacc(lmax, nbins);
  std::vector<std::complex<double>> alm(
      static_cast<std::size_t>(nbins) * math::nlm(lmax));
  std::vector<std::uint8_t> touched(static_cast<std::size_t>(nbins), 0);
  const int iters = 2000;
  double best = INFINITY;
  for (int trial = 0; trial < 3; ++trial) {
    const auto t0 = Clock::now();
    for (int it = 0; it < iters; ++it) {
      core::compute_alm(table, acc, alm.data(), touched.data());
      zacc.add_primary(1.0, alm.data(), touched.data());
    }
    best = std::min(best, seconds_since(t0));
  }
  return best / iters * 1e6;
}

struct TreeProbe {
  double build_s = 0, gather_s = 0;
  double scanned = 0;  // sum over leaves of block size x leaf points
};

// KdTree<float> as the kMixed engine builds it (library-default leaf size
// and layout, interaction lists at R_max), then gather_leaf_neighbors over
// every leaf on one thread.
TreeProbe probe_tree(const sim::Catalog& cat, const core::EngineConfig& cfg) {
  TreeProbe p;
  tree::KdTree<float>::BuildParams bp;
  bp.leaf_size = cfg.tree.leaf_size;
  bp.morton = cfg.tree.morton_order;
  bp.interaction_rmax = cfg.tree.interaction_lists ? cfg.bins.rmax() : 0.0;
  std::vector<double> builds, gathers;
  for (int trial = 0; trial < 3; ++trial) {
    auto t = Clock::now();
    const tree::KdTree<float> kd(cat, bp);
    builds.push_back(seconds_since(t));
    tree::NeighborBlock<float> blk;
    double scanned = 0;
    t = Clock::now();
    for (std::size_t l = 0; l < kd.leaf_count(); ++l) {
      blk.clear();
      kd.gather_leaf_neighbors(l, cfg.bins.rmax(), blk);
      scanned += static_cast<double>(blk.size()) *
                 static_cast<double>(kd.leaf_end(l) - kd.leaf_begin(l));
    }
    gathers.push_back(seconds_since(t));
    p.scanned = scanned;
  }
  p.build_s = median(builds);
  p.gather_s = median(gathers);
  return p;
}

// Pairs/s of run_indexed over a fixed primary subset (every 8th point) on
// `threads` threads.
double probe_pairs_per_s(const sim::Catalog& cat, core::EngineConfig cfg,
                         int threads) {
  cfg.threads = threads;
  std::vector<std::int64_t> subset;
  for (std::size_t i = 0; i < cat.size(); i += 8)
    subset.push_back(static_cast<std::int64_t>(i));
  const core::Engine::Staged staged = core::Engine(cfg).build_index(cat);
  core::EngineStats st;
  const auto t = Clock::now();
  staged.run_indexed(&subset, &st);
  return static_cast<double>(st.pairs) / seconds_since(t);
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void add(const std::string& name, double v, const std::string& unit) {
    items.emplace_back(name, v, unit);
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& [n, v, u] = items[i];
      out += (i ? ", " : "") + json_str(n) + ": {\"value\": " + json_num(v) +
             ", \"unit\": " + json_str(u) + "}";
    }
    return out + "}";
  }
};

struct DistFigures {
  double partition_s = 0, halo_wait_s = 0, hidden_frac = 0, index_build_s = 0,
         pass1_s = 0, pass2_s = 0, reduce_s = 0, imbalance = 0;
  double halo_bytes = 0, halo_points = 0, comm_bytes = 0;
};

DistFigures dist_figures(const std::vector<dist::RankReport>& reports) {
  DistFigures f;
  double hidden = 0, wait = 0;
  for (const auto& r : reports) {
    f.partition_s = std::max(f.partition_s, r.partition_seconds);
    f.halo_wait_s = std::max(f.halo_wait_s, r.halo_seconds);
    f.index_build_s = std::max(f.index_build_s, r.index_build_seconds);
    f.pass1_s = std::max(f.pass1_s, r.owned_pass_seconds);
    f.pass2_s = std::max(f.pass2_s, r.secondary_pass_seconds);
    f.reduce_s = std::max(f.reduce_s, r.reduce_seconds);
    f.imbalance = r.pair_imbalance;
    hidden += r.halo_hidden_seconds;
    wait += r.halo_seconds;
    f.halo_bytes += static_cast<double>(r.halo_bytes_sent);
    f.halo_points += static_cast<double>(r.halo_points_shipped);
    for (int p = 0; p < dist::kPhaseCount; ++p)
      f.comm_bytes += static_cast<double>(r.phase_bytes_sent[p]);
  }
  f.hidden_frac = hidden + wait > 0 ? hidden / (hidden + wait) : 0.0;
  return f;
}

void write_trace(const std::string& path, const Trace& tr,
                 const std::string& provenance, const Metrics& m) {
  std::ofstream f(path);
  if (!f.good()) throw std::runtime_error("cannot write " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
       "\"args\": {\"name\": \"perfbench\"}}";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << ",\n{\"name\": " << json_str(s.name)
      << ", \"cat\": " << json_str(s.name.substr(0, s.name.find('.')))
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << json_num(s.t0 * 1e6) << ", \"dur\": " << json_num((s.t1 - s.t0) * 1e6)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << ", \"self_us\": "
      << json_num(tr.self_seconds(static_cast<int>(i)) * 1e6);
    for (const auto& [k, v] : s.counts)
      f << ", " << json_str(k) << ": " << json_num(v);
    f << "}}";
  }
  f << "\n], \"otherData\": {\"provenance\": " << provenance
    << ", \"metrics\": " << m.json() << "}}\n";
  if (!f.good()) throw std::runtime_error("write failed: " + path);
}

int cmd_run(const Workload& w, std::uint64_t seed, const std::string& dir,
            double seconds, const std::string& trace_file,
            const std::string& git_sha, int git_dirty) {
  const core::EngineConfig cfg = engine_config(w);
  const bool traced = !trace_file.empty();

  const std::string prov =
      "{\"git_sha\": " + json_str(git_sha) +
      ", \"git_dirty\": " + std::to_string(git_dirty) +
      ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
      ", \"flags\": " + json_str(PERFBENCH_FLAGS) +
      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
      ", \"kernel_isa\": " +
      json_str(core::kernel_isa_name(core::kernel_isa())) +
      ", \"omp_max_threads\": " + std::to_string(omp_get_max_threads()) +
      ", \"usable_cores\": " + std::to_string(usable_cores()) +
      ", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"workload\": " + json_str(w.name) + "}";

  int attempted = 0, failed = 0;
  std::vector<Check> checks;

  // Warm-up repetition: fills the page cache and the allocator, and fixes
  // the pair count every timed repetition must reproduce exactly. (The CSV
  // byte count may differ by a few digits: threads sum in varying order.)
  const RepResult warm = run_rep(w, cfg, dir, nullptr);
  ++attempted;
  const std::uint64_t pairs = warm.pairs;
  if (pairs == 0) ++failed;

  Trace trace;
  std::vector<RepResult> plain, traced_reps;
  const auto window = Clock::now();
  for (int i = 0; seconds_since(window) < seconds || plain.size() < 3 ||
                  (traced && traced_reps.size() < 3);
       ++i) {
    const bool with_trace = traced && i % 2 == 1;
    RepResult r = run_rep(w, cfg, dir, with_trace ? &trace : nullptr);
    ++attempted;
    if (r.pairs != pairs) ++failed;
    r.result = core::ZetaResult{};  // keep memory flat across repetitions
    (with_trace ? traced_reps : plain).push_back(std::move(r));
  }
  const double rss = peak_rss_mb();

  auto med = [](const std::vector<RepResult>& v, double RepResult::*f) {
    std::vector<double> x;
    for (const auto& r : v) x.push_back(r.*f);
    return median(x);
  };

  // Result checks, untimed.
  const sim::Catalog cat = indexed_catalog(w, dir);
  core::EngineStats ref_stats;
  core::ZetaResult ref;
  double ref_build_s = 0, ref_traverse_s = 0;
  if (w.kind == Kind::kDist) {
    {
      Scope s(traced ? &trace : nullptr, "check.engine_reference");
      core::EngineConfig ref_cfg = cfg;
      ref_cfg.threads = w.ranks;
      auto t = Clock::now();
      const core::Engine::Staged staged =
          core::Engine(ref_cfg).build_index(cat);
      ref_build_s = seconds_since(t);
      t = Clock::now();
      ref = staged.run_indexed(nullptr, &ref_stats);
      ref_traverse_s = seconds_since(t);
    }
    const double d = payload_rel_diff(ref, warm.result);
    checks.push_back({"dist.vs_engine_rel", d <= 1e-10, d, 1e-10});
    checks.push_back({"dist.pairs_equal", ref.n_pairs == pairs,
                      static_cast<double>(ref.n_pairs) -
                          static_cast<double>(pairs),
                      0});
  } else {
    Scope s(traced ? &trace : nullptr, "check.oracle");
    for (Check& c : oracle_checks(w, cfg, cat, seed)) checks.push_back(c);
  }
  for (const Check& c : checks) {
    ++attempted;
    if (!c.ok) ++failed;
  }

  Metrics m;
  if (!traced) {
    const double wall = med(plain, &RepResult::wall_s);
    m.add("wall_s", wall, "s");
    m.add("setup_s", med(plain, &RepResult::setup_s), "s");
    m.add("pairs_per_s", static_cast<double>(pairs) / wall, "1/s");
    m.add("peak_rss_mb", rss, "MB");
  } else {
    // --- probes ---
    const int nt = w.kind == Kind::kDist ? w.ranks : w.threads;
    double k1 = 0, kn = 0, us_primary = 0, pps1 = 0, ppsn = 0;
    TreeProbe tp;
    {
      Scope s(&trace, "probe.kernel");
      k1 = probe_kernel_gflops(w.lmax, 1);
      kn = probe_kernel_gflops(w.lmax, nt);
    }
    {
      Scope s(&trace, "probe.alm_zeta");
      us_primary = probe_alm_zeta_us(w.lmax, w.nbins);
    }
    {
      Scope s(&trace, "probe.tree");
      tp = probe_tree(cat, cfg);
      s.count("scanned", tp.scanned);
    }
    {
      Scope s(&trace, "probe.thread_efficiency");
      pps1 = probe_pairs_per_s(cat, cfg, 1);
      ppsn = probe_pairs_per_s(cat, cfg, nt);
    }
    // dist.* come from the timed path on dist4-l5; elsewhere the dist
    // layer is probed once on the same catalog (4 ranks x 1 thread).
    std::vector<std::vector<dist::RankReport>> dist_reports;
    if (w.kind == Kind::kDist) {
      for (const auto& r : traced_reps) dist_reports.push_back(r.reports);
    } else {
      Scope s(&trace, "probe.dist");
      std::vector<dist::RankReport> reps;
      dist::run_distributed(cat, dist_config(w, cfg), &reps);
      dist_reports.push_back(reps);
    }

    // Engine figures: from the traced repetitions, or (dist4-l5) from the
    // single-process reference run the check already made.
    double eng_build = 0, eng_trav = 0, q = 0, kt = 0, az = 0, mg = 0,
           cand = 0, flops = 0, eng_pairs = 0, prim = 0;
    if (w.kind == Kind::kDist) {
      eng_build = ref_build_s;
      eng_trav = ref_traverse_s;
      q = ref_stats.phases.get("neighbor query");
      kt = ref_stats.phases.get("multipole kernel");
      az = ref_stats.phases.get("alm+zeta");
      mg = ref_stats.phases.get("imbalance+merge");
      cand = static_cast<double>(ref_stats.candidates);
      flops = ref_stats.kernel_flop_count;
      eng_pairs = static_cast<double>(ref_stats.pairs);
      prim = static_cast<double>(ref.n_primaries);
    } else {
      eng_build = med(traced_reps, &RepResult::build_s);
      eng_trav = med(traced_reps, &RepResult::traverse_s);
      std::vector<double> vq, vk, va, vm;
      for (const auto& r : traced_reps) {
        vq.push_back(r.stats.phases.get("neighbor query"));
        vk.push_back(r.stats.phases.get("multipole kernel"));
        va.push_back(r.stats.phases.get("alm+zeta"));
        vm.push_back(r.stats.phases.get("imbalance+merge"));
      }
      q = median(vq);
      kt = median(vk);
      az = median(va);
      mg = median(vm);
      const core::EngineStats& st = traced_reps.front().stats;
      cand = static_cast<double>(st.candidates);
      flops = st.kernel_flop_count;
      eng_pairs = static_cast<double>(st.pairs);
      prim = static_cast<double>(warm.result.n_primaries);
    }

    const double read_s = med(traced_reps, &RepResult::read_s);
    m.add("io.catalog_read_s", read_s, "s");
    m.add("io.catalog_read_mb_per_s",
          static_cast<double>(warm.bytes_read) / 1e6 / read_s, "MB/s");
    m.add("io.zeta_write_s", med(traced_reps, &RepResult::write_s), "s");
    m.add("io.bytes_read", static_cast<double>(warm.bytes_read), "bytes");
    m.add("io.bytes_written", static_cast<double>(warm.bytes_written), "bytes");

    m.add("tree.build_s", tp.build_s, "s");
    m.add("tree.gather_s", tp.gather_s, "s");
    m.add("tree.candidates", cand, "count");
    m.add("tree.candidates_per_pair", cand / eng_pairs, "ratio");

    const double gf_engine = kt > 0 ? flops / kt / 1e9 : 0.0;
    m.add("kernel.gflops_bucket_1t", k1, "GF/s");
    m.add("kernel.gflops_bucket_nt", kn, "GF/s");
    m.add("kernel.gflops_engine", gf_engine, "GF/s");
    m.add("kernel.engine_efficiency", gf_engine / kn, "ratio");
    m.add("kernel.flops", flops, "count");

    m.add("alm_zeta.us_per_primary", us_primary, "us");
    m.add("alm_zeta.primaries", prim, "count");

    // What the probes predict for the traversal: kernel time per pair at
    // the 1-thread bucket rate, a_lm+zeta per primary, gather per scanned
    // candidate; spread over the workload's threads.
    const double kernel_s_per_pair =
        core::kernel_flops_per_pair(w.lmax) / (k1 * 1e9);
    const double gather_s_per_cand = tp.scanned > 0 ? tp.gather_s / tp.scanned
                                                    : 0.0;
    const double predicted = (eng_pairs * kernel_s_per_pair +
                              prim * us_primary * 1e-6 +
                              cand * gather_s_per_cand) /
                             nt;
    m.add("engine.index_build_s", eng_build, "s");
    m.add("engine.traverse_s", eng_trav, "s");
    m.add("engine.query_s", q, "s");
    m.add("engine.kernel_s", kt, "s");
    m.add("engine.alm_zeta_s", az, "s");
    m.add("engine.merge_s", mg, "s");
    m.add("engine.pairs", eng_pairs, "count");
    m.add("engine.thread_efficiency", ppsn / pps1 / nt, "ratio");
    m.add("engine.unexplained_frac", (eng_trav - predicted) / eng_trav,
          "ratio");

    std::vector<DistFigures> dfs;
    for (const auto& reps : dist_reports) dfs.push_back(dist_figures(reps));
    auto dmed = [&](double DistFigures::*f) {
      std::vector<double> x;
      for (const auto& d : dfs) x.push_back(d.*f);
      return median(x);
    };
    m.add("dist.partition_s", dmed(&DistFigures::partition_s), "s");
    m.add("dist.halo_wait_s", dmed(&DistFigures::halo_wait_s), "s");
    m.add("dist.halo_hidden_frac", dmed(&DistFigures::hidden_frac), "ratio");
    m.add("dist.index_build_s", dmed(&DistFigures::index_build_s), "s");
    m.add("dist.pass1_s", dmed(&DistFigures::pass1_s), "s");
    m.add("dist.pass2_s", dmed(&DistFigures::pass2_s), "s");
    m.add("dist.reduce_s", dmed(&DistFigures::reduce_s), "s");
    m.add("dist.pair_imbalance", dmed(&DistFigures::imbalance), "ratio");
    m.add("dist.halo_bytes", dmed(&DistFigures::halo_bytes), "bytes");
    m.add("dist.halo_points", dmed(&DistFigures::halo_points), "count");
    m.add("dist.comm_bytes", dmed(&DistFigures::comm_bytes), "bytes");

    const double wall_plain = med(plain, &RepResult::wall_s);
    const double wall_traced = med(traced_reps, &RepResult::wall_s);
    m.add("trace.overhead_frac", wall_traced / wall_plain - 1.0, "ratio");

    write_trace(trace_file, trace, prov, m);
  }

  // Raw record for run.py.
  std::string checks_json = "[";
  for (std::size_t i = 0; i < checks.size(); ++i)
    checks_json += std::string(i ? ", " : "") + "{\"name\": " +
                   json_str(checks[i].name) + ", \"ok\": " +
                   (checks[i].ok ? "true" : "false") + ", \"value\": " +
                   json_num(checks[i].value) + ", \"limit\": " +
                   json_num(checks[i].limit) + "}";
  checks_json += "]";
  std::string walls = "[";
  for (std::size_t i = 0; i < plain.size(); ++i)
    walls += (i ? ", " : "") + json_num(plain[i].wall_s);
  std::printf(
      "{\"attempted\": %d, \"failed\": %d, \"traced_reps\": %zu, "
      "\"pairs\": %llu, \"walls_s\": %s], "
      "\"checks\": %s, \"provenance\": %s, \"metrics\": %s}\n",
      attempted, failed, traced_reps.size(),
      static_cast<unsigned long long>(pairs), walls.c_str(),
      checks_json.c_str(), prov.c_str(), m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::fprintf(stderr, "usage: perfbench gen|run --workload W ...\n");
      return 2;
    }
    const std::string cmd = argv[1];
    ArgParser args(argc - 1, argv + 1);
    const std::string name = args.get_str("workload", "");
    const std::uint64_t seed = args.get<std::uint64_t>("seed", 1);
    const std::string dir = args.get_str("dir", ".");
    const std::string size = args.get_str("size", "full");
    const double seconds = args.get<double>("seconds", 10.0);
    const std::string trace_file = args.get_str("trace-file", "");
    const std::string git_sha = args.get_str("git-sha", "unknown");
    const int git_dirty = args.get<int>("git-dirty", -1);
    args.finish();
    const Workload w = make_workload(name, size);
    if (cmd == "gen") return cmd_gen(w, seed, dir);
    if (cmd == "run")
      return cmd_run(w, seed, dir, seconds, trace_file, git_sha, git_dirty);
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
