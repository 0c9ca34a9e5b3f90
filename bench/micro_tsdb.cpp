// Microbenchmark of the sharded TSDB: measured ingest and query wall time
// across shard counts {1, 2, 4, 8} at >= 1M samples.
//
// Every number is host wall clock of code that ran: ingest is one write
// per sample of the whole stream, and a query's latency is the median of
// `query_runs` executions with the executor's default options. Nothing is
// modeled.
//
// Three query shapes: the paper's Listing-1 nested query over a 25 s
// window (narrow, what the scheduler runs), a 1 h MAX per node per minute,
// and a 1 h P99 (a quantile sketch per group).
//
// Writes BENCH_tsdb.json (or BENCH_tsdb_smoke.json with --smoke). Each
// query row carries a digest of its result set; the smoke run re-parses
// the file and fails unless every query returned the identical result set
// on 1 and 4 shards.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace {

using namespace sgxo;
using tsdb::Database;
using tsdb::DatabaseConfig;
using tsdb::Tags;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

struct BenchConfig {
  std::size_t series = 2048;
  std::size_t points_per_series = 512;  // 2048 x 512 = 1,048,576 samples
  std::int64_t cadence_s = 5;
  int query_runs = 9;
  bool smoke = false;

  [[nodiscard]] std::size_t samples() const {
    return series * points_per_series;
  }
};

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct IngestResult {
  std::size_t shards = 0;
  std::size_t samples = 0;
  double wall_ms = 0.0;

  [[nodiscard]] double samples_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(samples) / (wall_ms / 1e3)
                         : 0.0;
  }
};

struct QueryResult {
  std::string query;
  std::size_t shards = 0;
  int runs = 0;
  double wall_us = 0.0;  // median wall time per execute
  std::uint64_t digest = 0;  // of the result set, bit for bit
};

struct Sample {
  Tags tags;
  TimePoint time;
  double value = 0.0;
};

/// The identical sample stream every store ingests: integer values,
/// pods spread over 32 nodes, one point per series per cadence tick.
std::vector<Sample> make_samples(const BenchConfig& config) {
  Rng rng{20260808};
  std::vector<Sample> samples;
  samples.reserve(config.samples());
  std::vector<Tags> tags;
  tags.reserve(config.series);
  for (std::size_t s = 0; s < config.series; ++s) {
    tags.push_back({{"pod_name", "p" + std::to_string(s)},
                    {"nodename", "n" + std::to_string(s % 32)}});
  }
  for (std::size_t i = 0; i < config.points_per_series; ++i) {
    const TimePoint t = at(static_cast<std::int64_t>(i) * config.cadence_s);
    for (std::size_t s = 0; s < config.series; ++s) {
      samples.push_back(
          {tags[s], t, static_cast<double>(rng.uniform_int(1, 4096))});
    }
  }
  return samples;
}

IngestResult ingest(Database& db, const std::vector<Sample>& all) {
  IngestResult r;
  r.shards = db.shard_count();
  r.samples = all.size();
  const double start = now_us();
  std::size_t accepted = 0;
  for (const Sample& sample : all) {
    accepted += db.write("sgx/epc", sample.tags, sample.time, sample.value);
  }
  r.wall_ms = (now_us() - start) / 1e3;
  if (accepted != all.size()) std::cerr << "warning: ingest dropped samples\n";
  return r;
}

/// FNV-1a over every row's tags, time and field bits.
std::uint64_t digest(const tsdb::ql::ResultSet& result) {
  std::string text;
  for (const tsdb::ql::Row& row : result.rows) {
    text += tsdb::tags_key(row.tags);
    text += '@' + std::to_string(row.time.micros_since_epoch());
    for (const auto& [name, value] : row.fields) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      text += ' ' + name + '=' + std::to_string(bits);
    }
    text += '\n';
  }
  return fnv1a(text);
}

QueryResult run_query(Database& db, const std::string& name,
                      const std::string& text, TimePoint now, int runs) {
  const tsdb::ql::PreparedQuery prepared =
      tsdb::ql::PreparedQuery::prepare(text);
  QueryResult r;
  r.query = name;
  r.shards = db.shard_count();
  r.runs = runs;
  std::vector<double> wall;
  for (int i = 0; i < runs; ++i) {
    const double start = now_us();
    const tsdb::ql::ResultSet result = prepared.execute(db, now);
    wall.push_back(now_us() - start);
    if (result.rows.empty()) std::cerr << "warning: empty result\n";
    r.digest = digest(result);
  }
  std::sort(wall.begin(), wall.end());
  r.wall_us = wall[wall.size() / 2];
  return r;
}

void write_json(const std::string& path, const BenchConfig& config,
                const std::vector<IngestResult>& ingests,
                const std::vector<QueryResult>& queries) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_tsdb\",\n"
      << "  \"metric\": \"sharded ingest + query wall time (measured)\",\n"
      << "  \"samples\": " << config.samples() << ",\n  \"ingest\": [\n";
  for (std::size_t i = 0; i < ingests.size(); ++i) {
    const IngestResult& r = ingests[i];
    out << "    {\"shards\": " << r.shards << ", \"samples\": " << r.samples
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"samples_per_sec\": " << r.samples_per_sec() << "}"
        << (i + 1 < ingests.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"query\": [\n";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = queries[i];
    out << "    {\"query\": \"" << r.query << "\", \"shards\": " << r.shards
        << ", \"runs\": " << r.runs << ", \"wall_us\": " << r.wall_us
        << ", \"result_digest\": \"" << to_hex(r.digest) << "\"}"
        << (i + 1 < queries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Line-based re-parse of the emitted JSON (the regression guard must not
/// trust the in-memory numbers it just computed — it checks the artifact).
std::string digest_from_json(const std::string& path, const std::string& query,
                             std::size_t shards) {
  std::ifstream in(path);
  std::string line;
  const std::string query_needle = "\"query\": \"" + query + "\"";
  const std::string shard_needle =
      "\"shards\": " + std::to_string(shards) + ",";
  const std::string key = "\"result_digest\": \"";
  while (std::getline(in, line)) {
    if (line.find(query_needle) == std::string::npos) continue;
    if (line.find(shard_needle) == std::string::npos) continue;
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    return line.substr(pos + key.size(), 16);
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      config.smoke = true;
      config.series = 256;
      config.points_per_series = 64;
      config.query_runs = 5;
    }
  }
  const std::vector<std::size_t> shard_counts =
      config.smoke ? std::vector<std::size_t>{1, 4}
                   : std::vector<std::size_t>(std::begin(kShardCounts),
                                              std::end(kShardCounts));

  const std::vector<Sample> samples = make_samples(config);
  const TimePoint now = at(
      static_cast<std::int64_t>(config.points_per_series - 1) *
      config.cadence_s);

  // Smoke history is 64 * 5 s = 320 s, so its wide windows are 300 s.
  const std::string listing1 =
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) GROUP BY nodename";
  const std::string per_minute =
      config.smoke ? "SELECT MAX(value) AS v FROM \"sgx/epc\" "
                     "WHERE time >= now() - 300s GROUP BY time(60s), nodename"
                   : "SELECT MAX(value) AS v FROM \"sgx/epc\" "
                     "WHERE time >= now() - 1h GROUP BY time(60s), nodename";
  const std::string quantile =
      config.smoke ? "SELECT P99(value) AS tail FROM \"sgx/epc\" "
                     "WHERE time >= now() - 300s GROUP BY nodename"
                   : "SELECT P99(value) AS tail FROM \"sgx/epc\" "
                     "WHERE time >= now() - 1h GROUP BY nodename";
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"listing1_25s", listing1}, {"per_minute_wide", per_minute},
      {"p99_wide", quantile}};

  std::vector<IngestResult> ingests;
  std::vector<QueryResult> queries;
  for (const std::size_t shards : shard_counts) {
    DatabaseConfig db_config;
    db_config.shards = shards;
    Database db{db_config};
    ingests.push_back(ingest(db, samples));
    for (const auto& [name, text] : shapes) {
      queries.push_back(run_query(db, name, text, now, config.query_runs));
    }
  }

  Table ingest_table({"shards", "samples", "wall [ms]", "samples/s"});
  for (const IngestResult& r : ingests) {
    ingest_table.add_row({std::to_string(r.shards), std::to_string(r.samples),
                          fmt_double(r.wall_ms, 1),
                          fmt_double(r.samples_per_sec(), 0)});
  }
  ingest_table.print(std::cout);

  Table query_table({"query", "shards", "wall [us]", "result digest"});
  for (const QueryResult& r : queries) {
    query_table.add_row({r.query, std::to_string(r.shards),
                         fmt_double(r.wall_us, 1), to_hex(r.digest)});
  }
  std::cout << "\n";
  query_table.print(std::cout);

  const std::string path =
      config.smoke ? "BENCH_tsdb_smoke.json" : "BENCH_tsdb.json";
  write_json(path, config, ingests, queries);
  std::cout << "\nwrote " << path << "\n";

  if (config.smoke) {
    // Regression guard (ctest `bench` label): sharding is a data layout,
    // so every query must return the same result set on 1 and 4 shards.
    for (const auto& [name, text] : shapes) {
      const std::string one = digest_from_json(path, name, 1);
      const std::string four = digest_from_json(path, name, 4);
      std::cout << "smoke guard: " << name << " result digest 1-shard=" << one
                << " 4-shard=" << four << "\n";
      if (one.empty() || four.empty()) {
        std::cerr << "smoke guard: missing datapoints in " << path << "\n";
        return 1;
      }
      if (one != four) {
        std::cerr << "smoke guard: " << name
                  << " differs between 1 and 4 shards\n";
        return 1;
      }
    }
  }
  return 0;
}
