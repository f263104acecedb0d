#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "compress/robust.hpp"
#include "net/bandwidth.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace saps::scenario {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Seed of the benches' shared uniform bandwidth environment (historical
// constant; the derived default keeps spec-driven runs bit-identical to the
// pre-refactor bench wiring).
constexpr std::uint64_t kBandwidthSalt = 0xf16;
// Seed salt of the per-round cohort draw (mirrors the bandwidth-seed
// derivation: filled from the top-level seed when never set explicitly).
constexpr std::uint64_t kSampleSalt = 0x5a3d;
// Seed salt of the fault-injection schedule (same derivation pattern; also
// the stream salt inside sim::FaultyFabric).
constexpr std::uint64_t kFaultSalt = 0xfa17;

// `partition=dirichlet:ALPHA` selects the Dirichlet partition AND its
// concentration, so one sweep axis covers the non-IID knob.
constexpr std::string_view kDirichlet = "dirichlet:";

/// The ALPHA text of a `partition=dirichlet:ALPHA` shorthand, which sets
/// both partition and dirichlet-alpha; nullopt for any other entry.
std::optional<std::string> dirichlet_shorthand(const std::string& key,
                                               const std::string& value) {
  if (key != "partition" || !value.starts_with(kDirichlet)) return {};
  return value.substr(kDirichlet.size());
}

// --- Grammar building blocks -------------------------------------------

/// A worker index, round or count.  A leading '-' is refused rather than
/// wrapped to a huge unsigned value; parse_int bounds the rest to INT64_MAX.
std::size_t parse_size(const std::string& flag, const std::string& text) {
  if (text.starts_with('-')) {
    throw std::invalid_argument("--" + flag +
                                " expects a non-negative integer, got '" +
                                text + "'");
  }
  return static_cast<std::size_t>(parse_int(flag, text));
}

std::string format_size(std::size_t v) {
  return format_int(static_cast<std::int64_t>(v));
}

/// `format(item)` of every item, `sep`-joined.
template <class Range, class Format>
std::string join(const Range& items, char sep, Format format) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += sep;
    out += format(item);
  }
  return out;
}

/// "R" or "R-R2": the round window [R, R2), R2 = 0 meaning open-ended.
/// Fabric-round windows (first = 1) count from 1.
std::pair<std::size_t, std::size_t> parse_window(const std::string& flag,
                                                 const std::string& text,
                                                 std::size_t first) {
  const auto dash = text.find('-');
  const auto from = parse_size(flag, text.substr(0, dash));
  std::size_t to = 0;
  if (dash != std::string::npos) {
    to = parse_size(flag, text.substr(dash + 1));
    if (to <= from) {
      throw std::invalid_argument("--" + flag +
                                  " window end must be after its start in '" +
                                  text + "'");
    }
  }
  if (from < first) {
    throw std::invalid_argument("--" + flag +
                                " windows count fabric rounds from 1");
  }
  return {from, to};
}

std::string format_window(std::size_t from, std::size_t to) {
  if (to == 0) return format_size(from);
  return format_size(from) + '-' + format_size(to);
}

/// '.'-joined worker indices ("0.1.2"); empty entries are skipped.
std::vector<std::size_t> parse_workers(const std::string& flag,
                                       const std::string& text) {
  std::vector<std::size_t> out;
  for (const auto& w : split(text, '.')) {
    if (!w.empty()) out.push_back(parse_size(flag, w));
  }
  return out;
}

std::string format_workers(const std::vector<std::size_t>& workers) {
  return join(workers, '.', format_size);
}

// --- The six grammar knobs ----------------------------------------------

void parse_algorithms(ScenarioSpec& s, const std::string& text) {
  if (text == "paper") {
    s.algorithms.clear();
  } else {
    s.algorithms = split(text, ',');
  }
}

std::string format_algorithms(const ScenarioSpec& s) {
  if (s.algorithms.empty()) return "paper";
  return join(s.algorithms, ',', std::identity{});
}

void parse_latency_matrix(ScenarioSpec& s, const std::string& text) {
  // An empty text unsets the matrix: the scalar latency applies.
  std::vector<std::string> rows;
  if (!text.empty()) rows = split(text, ';');
  std::vector<double> matrix;
  std::size_t cols = 0;
  for (const auto& row : rows) {
    const auto entries = split(row, ',');
    if (cols == 0) {
      cols = entries.size();
    } else if (entries.size() != cols) {
      throw std::invalid_argument(
          "--latency-matrix rows must all have the same length");
    }
    for (const auto& e : entries) {
      const double v = parse_double("latency-matrix", e);
      if (v < 0.0) {
        throw std::invalid_argument("--latency-matrix entries must be >= 0");
      }
      matrix.push_back(v);
    }
  }
  s.latency_matrix = std::move(matrix);
}

// Rows ';'-joined, entries ','-joined (finalize_spec keeps it square).
std::string format_latency_matrix(const ScenarioSpec& s) {
  const auto& m = s.latency_matrix;
  const auto side = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(m.size()))));
  std::string out;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += i % side == 0 ? ';' : ',';
    out += format_double(m[i]);
  }
  return out;
}

void parse_failures(ScenarioSpec& s, const std::string& text) {
  std::vector<FailureEvent> failures;
  for (const auto& token : split(text, ',')) {
    if (token.empty()) continue;
    const auto at = token.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("--failures expects W@R[-R2] entries, got '" +
                                  token + "'");
    }
    FailureEvent e{.worker = parse_size("failures", token.substr(0, at))};
    std::tie(e.drop_round, e.rejoin_round) =
        parse_window("failures", token.substr(at + 1), 0);
    failures.push_back(e);
  }
  s.failures = std::move(failures);
}

std::string format_failures(const ScenarioSpec& s) {
  return join(s.failures, ',', [](const FailureEvent& e) {
    return format_size(e.worker) + '@' +
           format_window(e.drop_round, e.rejoin_round);
  });
}

constexpr std::pair<const char*, sim::ByzantineMode> kByzantineModes[] = {
    {"sign-flip", sim::ByzantineMode::kSignFlip},
    {"scaled-noise", sim::ByzantineMode::kScaledNoise},
    {"silent", sim::ByzantineMode::kSilent},
    {"model-replacement", sim::ByzantineMode::kModelReplacement},
    {"collusion", sim::ByzantineMode::kCollusion},
};

sim::ByzantineMode parse_byzantine_mode(const std::string& name) {
  for (const auto& [mode_name, mode] : kByzantineModes) {
    if (name == mode_name) return mode;
  }
  throw std::invalid_argument(
      "--byzantine mode must be "
      "sign-flip|scaled-noise|silent|model-replacement|collusion, got '" +
      name + "'");
}

const char* byzantine_mode_name(sim::ByzantineMode mode) {
  for (const auto& [name, m] : kByzantineModes) {
    if (m == mode) return name;
  }
  return "";
}

void parse_byzantine(ScenarioSpec& s, const std::string& text) {
  std::vector<sim::ByzantineEvent> events;
  for (const auto& token : split(text, ',')) {
    if (token.empty()) continue;
    const auto at = token.find('@');
    const auto colon = token.rfind(':');
    if (at == std::string::npos || colon == std::string::npos || colon < at) {
      throw std::invalid_argument(
          "--byzantine expects W@R[-R2]:mode entries, got '" + token + "'");
    }
    sim::ByzantineEvent e;
    e.worker = parse_size("byzantine", token.substr(0, at));
    std::tie(e.from_round, e.to_round) =
        parse_window("byzantine", token.substr(at + 1, colon - at - 1), 1);
    e.mode = parse_byzantine_mode(token.substr(colon + 1));
    events.push_back(e);
  }
  s.byzantine = std::move(events);
}

std::string format_byzantine(const ScenarioSpec& s) {
  return join(s.byzantine, ',', [](const sim::ByzantineEvent& e) {
    return format_size(e.worker) + '@' +
           format_window(e.from_round, e.to_round) + ':' +
           byzantine_mode_name(e.mode);
  });
}

// "W.W.W[:K]": the colluding members and the live quorum K (default 2);
// an empty text unsets the group.  Bounds and duplicate checks happen in
// finalize_spec against the resolved population.
void parse_collude_group(ScenarioSpec& s, const std::string& text) {
  if (text.empty()) {
    s.collude_group.clear();
    s.collude_min = 2;
    return;
  }
  std::size_t min_live = 2;
  const auto colon = text.find(':');
  if (colon != std::string::npos) {
    min_live = parse_size("collude-group", text.substr(colon + 1));
  }
  auto members = parse_workers("collude-group", text.substr(0, colon));
  if (members.empty()) {
    throw std::invalid_argument(
        "--collude-group expects 'W.W.W[:K]' with at least one worker, got '" +
        text + "'");
  }
  if (min_live < 1 || min_live > members.size()) {
    throw std::invalid_argument(
        "--collude-group minimum K must be in [1, group size = " +
        std::to_string(members.size()) + "], got " + std::to_string(min_live));
  }
  s.collude_group = std::move(members);
  s.collude_min = min_live;
}

std::string format_collude_group(const ScenarioSpec& s) {
  if (s.collude_group.empty()) return "";
  return format_workers(s.collude_group) + ':' + format_size(s.collude_min);
}

void parse_net_partition(ScenarioSpec& s, const std::string& text) {
  std::vector<sim::PartitionEvent> events;
  for (const auto& token : split(text, ',')) {
    if (token.empty()) continue;
    const auto at = token.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument(
          "--net-partition expects G|G[|...]@R[-R2] entries with groups of "
          "'.'-joined workers, got '" +
          token + "'");
    }
    sim::PartitionEvent e;
    std::tie(e.from_round, e.to_round) =
        parse_window("net-partition", token.substr(at + 1), 1);
    for (const auto& group : split(token.substr(0, at), '|')) {
      auto members = parse_workers("net-partition", group);
      if (members.empty()) {
        throw std::invalid_argument("--net-partition has an empty group in '" +
                                    token + "'");
      }
      e.groups.push_back(std::move(members));
    }
    if (e.groups.size() < 2) {
      throw std::invalid_argument(
          "--net-partition needs at least two groups in '" + token + "'");
    }
    events.push_back(std::move(e));
  }
  s.net_partition = std::move(events);
}

std::string format_net_partition(const ScenarioSpec& s) {
  return join(s.net_partition, ',', [](const sim::PartitionEvent& e) {
    return join(e.groups, '|', format_workers) + '@' +
           format_window(e.from_round, e.to_round);
  });
}

// --- The knob table -------------------------------------------------------

/// How a core key reads its canonical text into the spec and prints it
/// back.  An empty print leaves the key's line out of to_spec_text (the
/// five optional grammar knobs while unset).
struct Codec {
  void (*parse)(ScenarioSpec&, const std::string&);
  std::string (*format)(const ScenarioSpec&);
};

template <auto Field>
void parse_field(ScenarioSpec& s, const std::string& text) {
  auto& field = s.*Field;
  using T = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<T, std::string>) {
    field = text;
  } else if constexpr (std::is_same_v<T, bool>) {
    field = text == "true";
  } else {
    // canonical_value has validated the number already.
    (void)std::from_chars(text.data(), text.data() + text.size(), field);
  }
}

template <auto Field>
std::string format_field(const ScenarioSpec& s) {
  const auto& field = s.*Field;
  using T = std::remove_cvref_t<decltype(field)>;
  if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, bool>) {
    return format_bool(field);
  } else if constexpr (std::is_same_v<T, double>) {
    return format_double(field);
  } else {
    return std::to_string(field);
  }
}

/// A plain knob: one field, parsed and printed by its type.
template <auto Field>
constexpr Codec plain{&parse_field<Field>, &format_field<Field>};

struct Knob {
  ParamDesc desc;
  Codec codec;
};

/// The spec's own keys in --help and to_spec_text order.
const std::vector<Knob>& knobs() {
  using enum ParamType;
  static const std::vector<Knob> table = {
      {{.name = "workload",
        .type = kString,
        .default_value = "mnist",
        .help = "workload key (benches without an explicit --workload iterate "
                "the paper set)"},
       plain<&ScenarioSpec::workload>},
      {{.name = "algorithm",
        .type = kString,
        .default_value = "paper",
        .help = "algorithm key or comma list ('paper' = the seven-algorithm "
                "comparison)"},
       {parse_algorithms, format_algorithms}},
      {{.name = "workers",
        .type = kInt,
        .default_value = "8",
        .min_value = 2,
        .max_value = 4096,
        .help = "worker count (default 8; 32 under --full)"},
       plain<&ScenarioSpec::workers>},
      {{.name = "population",
        .type = kInt,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1e9,
        .help = "logical client population workers are sampled from (0 = "
                "workers; larger values enable per-round cohort sampling with "
                "pooled model state)"},
       plain<&ScenarioSpec::population>},
      {{.name = "cohort",
        .type = kInt,
        .default_value = "0",
        .min_value = 0,
        .max_value = 4096,
        .help = "participants drawn (and model replicas materialized) per "
                "round (0 = workers; must be in [2, population])"},
       plain<&ScenarioSpec::cohort>},
      {{.name = "sample-seed",
        .type = kUint,
        .default_value = "0",
        .help = "RNG seed of the per-round cohort draw (default: derived "
                "from seed)"},
       plain<&ScenarioSpec::sample_seed>},
      {{.name = "epochs",
        .type = kInt,
        .default_value = "6",
        .min_value = 1,
        .max_value = 1e9,
        .help = "training epochs (default 6; 100 under --full)"},
       plain<&ScenarioSpec::epochs>},
      {{.name = "samples",
        .type = kInt,
        .default_value = "150",
        .min_value = 1,
        .max_value = 1e12,
        .help = "training samples per worker (default 150; 1875 under --full)"},
       plain<&ScenarioSpec::samples>},
      {{.name = "test-samples",
        .type = kInt,
        .default_value = "400",
        .min_value = 1,
        .max_value = 1e12,
        .help = "test-set size (default 400; 10000 under --full)"},
       plain<&ScenarioSpec::test_samples>},
      {{.name = "batch",
        .type = kInt,
        .default_value = "10",
        .min_value = 1,
        .max_value = 1e9,
        .help = "mini-batch size (default 10; 50 under --full)"},
       plain<&ScenarioSpec::batch>},
      {{.name = "eval-every",
        .type = kInt,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1e12,
        .help = "eval cadence in rounds (0 = once per epoch)"},
       plain<&ScenarioSpec::eval_every>},
      {{.name = "eval-batch",
        .type = kInt,
        .default_value = "256",
        .min_value = 1,
        .max_value = 1e9,
        .help = "evaluation batch size (default 256)"},
       plain<&ScenarioSpec::eval_batch>},
      {{.name = "seed",
        .type = kUint,
        .default_value = "42",
        .help = "top-level RNG seed (default 42)"},
       plain<&ScenarioSpec::seed>},
      {{.name = "full",
        .type = kBool,
        .default_value = "false",
        .help = "paper-scale workloads: 32 workers, full-size models"},
       plain<&ScenarioSpec::full>},
      {{.name = "threads",
        .type = kInt,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1024,
        .help = "engine thread-pool size for per-worker hot loops (0 = serial; "
                "results are identical for every value)"},
       plain<&ScenarioSpec::threads>},
      {{.name = "lr",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "learning rate (0 = the workload's Table II default)"},
       plain<&ScenarioSpec::lr>},
      {{.name = "partition",
        .type = kString,
        .default_value = "iid",
        .help = "data partition across workers (default iid; the "
                "dirichlet:ALPHA shorthand also sets dirichlet-alpha)",
        .choices = {"iid", "shard", "dirichlet"}},
       plain<&ScenarioSpec::partition>},
      {{.name = "shards-per-worker",
        .type = kInt,
        .default_value = "2",
        .min_value = 1,
        .max_value = 1e6,
        .help = "label shards per worker under partition=shard (default 2)"},
       plain<&ScenarioSpec::shards_per_worker>},
      {{.name = "dirichlet-alpha",
        .type = kDouble,
        .default_value = "0.5",
        .min_value = 1e-9,
        .max_value = kInf,
        .help = "Dirichlet concentration under partition=dirichlet "
                "(default 0.5)"},
       plain<&ScenarioSpec::dirichlet_alpha>},
      {{.name = "bandwidth",
        .type = kString,
        .default_value = "none",
        .help = "link bandwidths: none = traffic accounting only, uniform = "
                "random (0,5] MB/s, cities = the measured Fig. 1 matrix "
                "(requires workers=14)",
        .choices = {"none", "uniform", "cities"}},
       plain<&ScenarioSpec::bandwidth>},
      {{.name = "bandwidth-seed",
        .type = kUint,
        .default_value = "0",
        .help = "RNG seed of bandwidth=uniform (default: derived from seed)"},
       plain<&ScenarioSpec::bandwidth_seed>},
      {{.name = "latency",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "one-way per-transfer link latency in seconds (default 0 = "
                "the paper's instantaneous links)"},
       plain<&ScenarioSpec::latency>},
      {{.name = "compute-base",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "per-round local-compute seconds charged to every worker "
                "(default 0)"},
       plain<&ScenarioSpec::compute_base>},
      {{.name = "compute-jitter",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "straggler jitter amplitude in seconds; worker compute is "
                "base + jitter*u01(round, worker) (default 0)"},
       plain<&ScenarioSpec::compute_jitter>},
      {{.name = "latency-matrix",
        .type = kString,
        .default_value = "",
        .help = "per-link one-way latency seconds overriding --latency: N*N "
                "entries for N workers, rows ';'-joined, entries ','-joined "
                "(empty = uniform scalar)"},
       {parse_latency_matrix, format_latency_matrix}},
      {{.name = "failures",
        .type = kString,
        .default_value = "",
        .help = "dropout schedule 'W@R-R2[,...]': worker W leaves at round R "
                "and rejoins at round R2 (omit -R2 = never)"},
       {parse_failures, format_failures}},
      {{.name = "fault-seed",
        .type = kUint,
        .default_value = "0",
        .help = "RNG seed of the fault-injection schedules (default: derived "
                "from seed)"},
       plain<&ScenarioSpec::fault_seed>},
      {{.name = "drop-prob",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1,
        .help = "per-frame probability a data frame is charged but never "
                "delivered (default 0)"},
       plain<&ScenarioSpec::drop_prob>},
      {{.name = "dup-prob",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1,
        .help = "per-frame probability a data frame is charged and delivered "
                "twice (default 0)"},
       plain<&ScenarioSpec::dup_prob>},
      {{.name = "delay-prob",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1,
        .help = "per-frame probability a data frame gains delay-seconds of "
                "in-flight time (default 0; requires delay-seconds > 0)"},
       plain<&ScenarioSpec::delay_prob>},
      {{.name = "delay-seconds",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "extra in-flight seconds of a delayed frame (default 0)"},
       plain<&ScenarioSpec::delay_seconds>},
      {{.name = "byzantine",
        .type = kString,
        .default_value = "",
        .help = "adversarial workers 'W@R[-R2]:mode[,...]': worker W applies "
                "`mode` (sign-flip|scaled-noise|silent|model-replacement|"
                "collusion) to every frame it sends during fabric rounds "
                "[R, R2) (omit -R2 = forever); collusion needs collude-group"},
       {parse_byzantine, format_byzantine}},
      {{.name = "collude-group",
        .type = kString,
        .default_value = "",
        .help = "colluding workers 'W.W.W[:K]': byzantine=...:collusion "
                "members share one malicious direction per round and fire "
                "only when at least K of them are live (default K = 2)"},
       {parse_collude_group, format_collude_group}},
      {{.name = "adapt-attack",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "adaptive attack attenuation: byzantine transforms keep their "
                "relative L2 perturbation under this budget to evade norm "
                "defenses (0 = unconstrained; requires byzantine events)"},
       plain<&ScenarioSpec::adapt_attack>},
      {{.name = "clip-norm",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = kInf,
        .help = "receiver-side defense: delivered data frames are rescaled to "
                "L2 norm <= this bound (0 = off; works under every "
                "algorithm; charged bytes are unchanged)"},
       plain<&ScenarioSpec::clip_norm>},
      {{.name = "reputation-decay",
        .type = kDouble,
        .default_value = "0",
        .min_value = 0,
        .max_value = 1,
        .help = "attack-aware reputation scoring: > 0 runs the anomaly "
                "monitor with this per-round decay (SAPS peers / the FedAvg "
                "server); required by saps-strategy=reputation (0 = off)"},
       plain<&ScenarioSpec::reputation_decay>},
      {{.name = "net-partition",
        .type = kString,
        .default_value = "",
        .help = "network partitions 'G|G[|...]@R[-R2][,...]' with groups of "
                "'.'-joined workers, e.g. 0.1.2.3|4.5.6.7@2-6: frames between "
                "different groups are charged but dropped during fabric "
                "rounds [R, R2) (omit -R2 = never heals)"},
       {parse_net_partition, format_net_partition}},
      {{.name = "aggregation",
        .type = kString,
        .default_value = "plain",
        .help = "merge rule of every model/gradient aggregation: plain = each "
                "algorithm's legacy mean, trimmed = symmetric trimmed mean, "
                "median = coordinate-wise median",
        .choices = {"plain", "trimmed", "median"}},
       plain<&ScenarioSpec::aggregation>},
      {{.name = "trim-frac",
        .type = kDouble,
        .default_value = "0.2",
        .min_value = 0,
        .max_value = 0.5,
        .help = "fraction trimmed from EACH tail under aggregation=trimmed "
                "(default 0.2; clamped so at least one value survives)"},
       plain<&ScenarioSpec::trim_frac>},
  };
  return table;
}

/// --full flips the scale defaults to the paper's Table II values; fast mode
/// keeps the minutes-not-hours defaults.  Runs BEFORE explicit values apply.
void apply_scale_preset(ScenarioSpec& s) {
  if (!s.full) return;
  if (!s.provided("workers")) s.workers = 32;
  if (!s.provided("epochs")) s.epochs = 100;
  if (!s.provided("samples")) s.samples = 1875;  // 60000 / 32
  if (!s.provided("test-samples")) s.test_samples = 10000;
  if (!s.provided("batch")) s.batch = 50;
}

/// The lines of `text` (see scan_spec_lines), each key set once; the
/// dirichlet: shorthand sets dirichlet-alpha too.
std::vector<SpecLine> unique_spec_lines(const std::string& text,
                                        const std::string& kind) {
  auto lines = scan_spec_lines(text, kind);
  std::map<std::string, std::size_t> first_line;
  const auto claim = [&](const std::string& key, std::size_t lineno) {
    const auto [it, inserted] = first_line.emplace(key, lineno);
    if (!inserted) {
      throw std::invalid_argument(
          kind + " line " + std::to_string(lineno) + ": duplicate key '" + key +
          "' (first set on line " + std::to_string(it->second) + ")");
    }
  };
  for (const auto& line : lines) {
    claim(line.key, line.lineno);
    if (dirichlet_shorthand(line.key, line.value)) {
      claim("dirichlet-alpha", line.lineno);
    }
  }
  return lines;
}

/// Defaults → the scale preset → `lines` in order, so a later line replaces
/// an earlier line's value of its key.  `full` applies before the preset:
/// the given value (the CLI flag), else the last `full` line.
ScenarioSpec spec_from_lines(const std::vector<SpecLine>& lines,
                             std::optional<std::string> full) {
  ScenarioSpec spec;
  if (!full) {
    for (const auto& line : lines) {
      if (line.key == "full") full = line.value;
    }
  }
  if (full) spec.set("full", *full);
  apply_scale_preset(spec);
  for (const auto& line : lines) {
    if (line.key != "full") spec.set(line.key, line.value);
  }
  return spec;
}

/// Throws unless worker index `w` names one of the population's clients.
void check_worker(const std::string& flag, std::size_t w,
                  std::size_t population) {
  if (w >= population) {
    throw std::invalid_argument("--" + flag + " names worker " +
                                std::to_string(w) + " but only " +
                                std::to_string(population) + " exist");
  }
}

/// Whether round windows [a_from, a_to) and [b_from, b_to) intersect (an
/// end of 0 is open).
bool windows_overlap(std::size_t a_from, std::size_t a_to, std::size_t b_from,
                     std::size_t b_to) {
  const auto end = [](std::size_t to) {
    return to == 0 ? static_cast<std::size_t>(-1) : to;
  };
  return a_from < end(b_to) && b_from < end(a_to);
}

bool overlaps(const FailureEvent& a, const FailureEvent& b) {
  return windows_overlap(a.drop_round, a.rejoin_round, b.drop_round,
                         b.rejoin_round);
}

}  // namespace

const std::vector<ParamDesc>& scenario_params() {
  static const std::vector<ParamDesc> descs = [] {
    std::vector<ParamDesc> out;
    for (const auto& knob : knobs()) out.push_back(knob.desc);
    const auto& reg = Registry::instance();
    for (auto& d : reg.algorithm_params()) out.push_back(std::move(d));
    for (auto& d : reg.workload_params()) out.push_back(std::move(d));
    return out;
  }();
  return descs;
}

const ParamDesc* find_param(const std::string& key) {
  for (const auto& d : scenario_params()) {
    if (d.name == key) return &d;
  }
  return nullptr;
}

std::string canonical_scenario_value(const ParamDesc& desc,
                                     const std::string& value) {
  if (const auto alpha = dirichlet_shorthand(desc.name, value)) {
    return std::string(kDirichlet) +
           canonical_value(*find_param("dirichlet-alpha"), *alpha);
  }
  return canonical_value(desc, value);
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  if (const auto alpha = dirichlet_shorthand(key, value)) {
    set("partition", "dirichlet");
    set("dirichlet-alpha", *alpha);
    return;
  }
  const auto* desc = find_param(key);
  if (desc == nullptr) {
    throw std::invalid_argument("unknown scenario key '" + key + "'");
  }
  const auto canonical = canonical_value(*desc, value);
  // The spec's own keys lead scenario_params(), in knob-table order.
  const auto index = static_cast<std::size_t>(desc - scenario_params().data());
  if (index < knobs().size()) {
    knobs()[index].codec.parse(*this, canonical);
  } else {
    params.set(key, canonical);
  }
  provided_.insert(key);
}

std::vector<std::string> ScenarioSpec::effective_algorithms() const {
  if (!algorithms.empty()) return algorithms;
  return Registry::instance().algorithm_keys(/*paper_only=*/true);
}

void finalize_spec(ScenarioSpec& spec) {
  const auto& reg = Registry::instance();
  const auto& wl = reg.workload(spec.workload);
  const auto algo_keys = spec.effective_algorithms();
  for (const auto& key : algo_keys) (void)reg.algorithm(key);

  // Every parameter that is not provided() re-derives below, as population
  // and cohort do: a spec finalized under one workload or scale and then
  // edited keeps none of the old derived values or defaults.
  ParamSet provided_params;
  for (const auto& [key, value] : spec.params.items()) {
    if (spec.provided(key)) provided_params.set(key, value);
  }
  spec.params = std::move(provided_params);

  // Participant sampling: population and cohort follow workers unless
  // provided (the legacy fully-materialized engine); gate the combinations
  // the engine cannot honor.
  if (spec.population == 0 || !spec.provided("population")) {
    spec.population = spec.workers;
  }
  if (spec.population < spec.workers) {
    throw std::invalid_argument(
        "--population must be >= workers (" + std::to_string(spec.workers) +
        "), got " + std::to_string(spec.population));
  }
  if (spec.cohort == 0 || !spec.provided("cohort")) spec.cohort = spec.workers;
  if (spec.cohort < 2 || spec.cohort > spec.population) {
    throw std::invalid_argument(
        "--cohort must be in [2, population=" +
        std::to_string(spec.population) + "], got " +
        std::to_string(spec.cohort));
  }
  if (spec.population != spec.workers && spec.bandwidth != "none") {
    throw std::invalid_argument(
        "--bandwidth matrices are sized by workers; population runs require "
        "bandwidth=none");
  }
  // Whether each algorithm can sample a cohort is the caller's check
  // (check_algorithm_support): a spec may carry a population while its
  // caller runs only the supporting algorithms by key.

  if (!spec.latency_matrix.empty() && spec.population != spec.workers) {
    throw std::invalid_argument(
        "--latency-matrix is sized by workers; population runs require the "
        "scalar --latency");
  }
  if (!spec.latency_matrix.empty() &&
      spec.latency_matrix.size() != spec.workers * spec.workers) {
    throw std::invalid_argument(
        "--latency-matrix needs workers*workers = " +
        std::to_string(spec.workers * spec.workers) + " entries, got " +
        std::to_string(spec.latency_matrix.size()));
  }

  // Worker indices are validated here, at spec-resolution time, so a bad
  // spec file fails before any engine is built — against the RESOLVED
  // population (== workers outside population runs).
  for (const auto& e : spec.failures) {
    check_worker("failures", e.worker, spec.population);
  }
  // Two windows for the SAME worker must not overlap: the schedule replays
  // every event each round, so overlapping windows would make the worker's
  // liveness depend on event order.
  for (std::size_t i = 0; i < spec.failures.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.failures.size(); ++j) {
      if (spec.failures[i].worker == spec.failures[j].worker &&
          overlaps(spec.failures[i], spec.failures[j])) {
        throw std::invalid_argument(
            "--failures has overlapping windows for worker " +
            std::to_string(spec.failures[i].worker));
      }
    }
  }
  // Cohort sampling composes with the failure schedule only when every drawn
  // cohort is guaranteed >= 2 live members: the draw is oblivious to
  // liveness, so in the worst case every concurrently-failed worker lands in
  // the cohort.  Validate here instead of failing (or silently degenerating)
  // mid-run inside freeze/thaw.
  if (spec.cohort < spec.population && !spec.failures.empty()) {
    std::size_t max_concurrent = 0;
    for (const auto& a : spec.failures) {
      std::size_t concurrent = 0;
      for (const auto& b : spec.failures) {
        if (overlaps(a, b) || &a == &b) ++concurrent;
      }
      max_concurrent = std::max(max_concurrent, concurrent);
    }
    if (spec.cohort < max_concurrent + 2) {
      throw std::invalid_argument(
          "--failures with cohort sampling: cohort=" +
          std::to_string(spec.cohort) + " cannot guarantee 2 live members "
          "with " + std::to_string(max_concurrent) +
          " concurrent failures; raise cohort to at least " +
          std::to_string(max_concurrent + 2));
    }
  }

  for (const auto& e : spec.byzantine) {
    check_worker("byzantine", e.worker, spec.population);
  }
  // A byzantine window and a failures= dropout window for the SAME worker
  // must not overlap: an away worker sends nothing, so the attack would
  // silently not fire for part of its window.  The two grammars count
  // different clocks (fabric data rounds vs algorithm rounds), so this
  // compares the raw numeric windows — conservative by design.
  for (const auto& b : spec.byzantine) {
    for (const auto& f : spec.failures) {
      if (b.worker == f.worker &&
          windows_overlap(b.from_round, b.to_round, f.drop_round,
                          f.rejoin_round)) {
        throw std::invalid_argument(
            "--byzantine and --failures both schedule worker " +
            std::to_string(b.worker) +
            " over overlapping round windows; an away worker sends nothing, "
            "so separate the windows or pick one knob");
      }
    }
  }
  std::set<std::size_t> members;
  for (const auto w : spec.collude_group) {
    check_worker("collude-group", w, spec.population);
    if (!members.insert(w).second) {
      throw std::invalid_argument("--collude-group lists worker " +
                                  std::to_string(w) + " twice");
    }
  }
  bool any_collusion = false;
  for (const auto& e : spec.byzantine) {
    if (e.mode != sim::ByzantineMode::kCollusion) continue;
    any_collusion = true;
    if (!members.contains(e.worker)) {
      throw std::invalid_argument(
          "--byzantine schedules worker " + std::to_string(e.worker) +
          " as :collusion but --collude-group does not list it");
    }
  }
  if (!any_collusion && !spec.collude_group.empty()) {
    throw std::invalid_argument(
        "--collude-group is set but no --byzantine event uses :collusion");
  }
  if (spec.adapt_attack > 0.0 && spec.byzantine.empty()) {
    throw std::invalid_argument(
        "--adapt-attack > 0 needs --byzantine events to attenuate");
  }
  if (spec.reputation_decay >= 1.0) {
    throw std::invalid_argument(
        "--reputation-decay must be in [0, 1); 1 would never forget");
  }
  if (spec.params.has("saps-strategy") &&
      spec.params.raw("saps-strategy") == "reputation" &&
      spec.reputation_decay <= 0.0) {
    throw std::invalid_argument(
        "saps-strategy=reputation needs --reputation-decay > 0 to score "
        "peers");
  }
  for (const auto& e : spec.net_partition) {
    std::set<std::size_t> seen;
    for (const auto& group : e.groups) {
      for (const auto w : group) {
        check_worker("net-partition", w, spec.population);
        if (!seen.insert(w).second) {
          throw std::invalid_argument(
              "--net-partition groups must be disjoint; worker " +
              std::to_string(w) + " appears twice");
        }
      }
    }
  }
  if (spec.delay_prob > 0.0 && spec.delay_seconds <= 0.0) {
    throw std::invalid_argument(
        "--delay-prob > 0 needs --delay-seconds > 0 to mean anything");
  }
  (void)compress::parse_merge_rule(spec.aggregation);  // validated spelling

  if (spec.bandwidth == "cities" &&
      spec.workers != net::fig1_city_bandwidth().size()) {
    throw std::invalid_argument(
        "bandwidth=cities is the 14-city Fig. 1 matrix; set workers=14");
  }

  // Fast mode shrinks the paper's compression ratios: the scaled-down models
  // are ~500x smaller, so k = N/c must stay meaningful.
  if (!spec.full) {
    if (!spec.params.has("topk-c")) spec.params.set("topk-c", "100");
    if (!spec.params.has("sfedavg-c")) spec.params.set("sfedavg-c", "20");
  }
  // FedAvg-family round granularity, derived from the RESOLVED samples/batch
  // pair so overriding EITHER flag re-derives (the old harness re-derived
  // only under --samples, leaving a stale step count on --batch-only runs).
  if (!spec.full && wl.scales_with_samples &&
      !spec.params.has("fedavg-steps")) {
    spec.params.set(
        "fedavg-steps",
        format_int(static_cast<std::int64_t>(std::max<std::size_t>(
            1, spec.samples / spec.batch / 5))));
  }
  if (!spec.provided("bandwidth-seed")) {
    spec.bandwidth_seed = derive_seed(spec.seed, kBandwidthSalt);
  }
  if (!spec.provided("sample-seed")) {
    spec.sample_seed = derive_seed(spec.seed, kSampleSalt);
  }
  if (!spec.provided("fault-seed")) {
    spec.fault_seed = derive_seed(spec.seed, kFaultSalt);
  }

  // Materialize the remaining defaults so to_spec_text prints a COMPLETE,
  // reproducible description.
  for (const auto& d : wl.params) {
    if (!spec.params.has(d.name)) {
      spec.params.set(d.name, canonical_value(d, d.default_value));
    }
  }
  for (const auto& key : algo_keys) {
    for (const auto& d : reg.algorithm(key).params) {
      if (!spec.params.has(d.name)) {
        spec.params.set(d.name, canonical_value(d, d.default_value));
      }
    }
  }
}

void check_algorithm_support(const ScenarioSpec& spec,
                             const std::vector<std::string>& algo_keys) {
  if (spec.cohort >= spec.population) return;
  for (const auto& key : algo_keys) {
    if (!Registry::instance().algorithm(key).supports_cohort) {
      throw std::invalid_argument(
          "algorithm '" + key +
          "' does not support per-round cohort sampling (cohort < population)");
    }
  }
}

std::vector<SpecLine> scan_spec_lines(const std::string& text,
                                      const std::string& kind) {
  std::vector<SpecLine> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(kind + " line " + std::to_string(lineno) +
                                  ": expected key=value, got '" + line + "'");
    }
    const auto key = trim(line.substr(0, eq));
    out.push_back({lineno, key, trim(line.substr(eq + 1))});
  }
  return out;
}

std::string read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("--spec: cannot read '" + path + "'");
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

ScenarioSpec parse_spec_text(const std::string& text) {
  auto spec = spec_from_lines(unique_spec_lines(text, "spec"), std::nullopt);
  finalize_spec(spec);
  return spec;
}

std::string to_spec_text(const ScenarioSpec& s) {
  std::string out;
  for (const auto& knob : knobs()) {
    const auto value = knob.codec.format(s);
    if (!value.empty()) out += knob.desc.name + '=' + value + '\n';
  }
  for (const auto& [k, v] : s.params.items()) out += k + '=' + v + '\n';
  return out;
}

ScenarioSpec spec_from_flags(const Flags& flags, const std::string& defaults) {
  // The defaults lead the file's lines, so a file line replaces them.
  auto lines = unique_spec_lines(defaults, "defaults");
  if (flags.has("spec")) {
    const auto file = unique_spec_lines(
        read_spec_file(flags.get_string("spec", "")), "spec");
    lines.insert(lines.end(), file.begin(), file.end());
  }
  std::optional<std::string> full_flag;
  if (flags.has("full")) full_flag = flags.get_string("full", "true");
  auto spec = spec_from_lines(lines, full_flag);
  for (const auto& d : scenario_params()) {
    if (d.name != "full" && flags.has(d.name)) {
      spec.set(d.name, flags.get_string(d.name, ""));
    }
  }
  finalize_spec(spec);
  return spec;
}

}  // namespace saps::scenario
