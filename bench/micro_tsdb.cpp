// Microbenchmark of the sharded TSDB: measured ingest and query wall time
// across shard counts {1, 2, 4, 8} at >= 1M samples.
//
// Every number is host wall clock of code that ran: ingest is one write
// per sample of the whole stream, and a query's latency is the median of
// `query_runs` executions (or read-outs) of the prepared query, without
// scan stats.
// Nothing is modeled.
//
// Each shard count ingests the stream twice. The queried store writes
// through series refs, as Heapster and the SGX probe do: a series' first
// sample takes the tag write, and every later one appends through the ref
// it returned. A second store takes the tag write for every sample, so its
// ingest row prices the key render, routing and lookups a ref skips.
//
// Four query shapes. The first is Listing 1's inner statement over a
// 25 s window: each pod's MAX, grouped by pod_name and nodename, run
// through execute(), which sorts the groups by key and builds rows. The
// second, `inner_25s_readout`, is what the scheduler runs: the same
// statement read through the fold-order read-out
// (PreparedQuery::for_each_group), copying each group's pod and node
// names, time and value as core::ClusterMetrics::per_pod does. The other
// two are the paper's whole Listing-1 nested query, over the same 25 s
// window and over the whole history (wide: 1 h, or 300 s in the smoke
// run), which folds every point.
//
// Writes BENCH_tsdb.json (or BENCH_tsdb_smoke.json with --smoke). Each
// query row carries a digest of its result set (for the read-out, of its
// groups put in key order as the rows execute() returns); the smoke run
// re-parses the file and fails unless every query returned the identical
// result set on every shard count, fails on an empty result set, and
// fails unless each query returned the result set pinned in
// kSmokeDigests: the read-out's groups must be inner_25s's rows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
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
using tsdb::SeriesRef;
using tsdb::Tags;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

/// Each query's result digest in the smoke run: every pod's maximum over
/// 25 s, through execute() and through the read-out, and 32 nodes' sums of
/// their pods' maxima over 25 s and over the whole history. Agreement
/// across shard counts cannot catch a wrong answer every shard count
/// shares; these pins can.
constexpr std::pair<const char*, const char*> kSmokeDigests[] = {
    {"inner_25s", "420b9d43d0eec9a8"},
    {"inner_25s_readout", "420b9d43d0eec9a8"},
    {"listing1_25s", "28840870a6cb3385"},
    {"listing1_wide", "e649bf9fd76c29a4"},
};

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

/// How an ingest writes each sample.
enum class WritePath { kRefs, kTags };

const char* to_string(WritePath path) {
  return path == WritePath::kRefs ? "refs" : "tags";
}

struct IngestResult {
  WritePath path = WritePath::kRefs;
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
  double wall_us = 0.0;  // median wall time per execute or read-out
  std::size_t rows = 0;
  std::uint64_t digest = 0;  // of the result set, bit for bit
};

struct Sample {
  std::size_t series = 0;  // index into Stream::tags
  TimePoint time;
  double value = 0.0;
};

struct Stream {
  std::vector<Tags> tags;  // one tag set per series
  std::vector<Sample> samples;
};

/// The identical sample stream every store ingests: integer values,
/// pods spread over 32 nodes, one point per series per cadence tick.
Stream make_stream(const BenchConfig& config) {
  Rng rng{20260808};
  Stream stream;
  stream.tags.reserve(config.series);
  for (std::size_t s = 0; s < config.series; ++s) {
    stream.tags.push_back({{"pod_name", "p" + std::to_string(s)},
                           {"nodename", "n" + std::to_string(s % 32)}});
  }
  stream.samples.reserve(config.samples());
  for (std::size_t i = 0; i < config.points_per_series; ++i) {
    const TimePoint t = at(static_cast<std::int64_t>(i) * config.cadence_s);
    for (std::size_t s = 0; s < config.series; ++s) {
      stream.samples.push_back(
          {s, t, static_cast<double>(rng.uniform_int(1, 4096))});
    }
  }
  return stream;
}

IngestResult ingest(Database& db, const Stream& stream, WritePath path) {
  IngestResult r;
  r.path = path;
  r.shards = db.shard_count();
  r.samples = stream.samples.size();
  std::vector<SeriesRef> refs(stream.tags.size());
  std::size_t accepted = 0;
  const double start = now_us();
  for (const Sample& sample : stream.samples) {
    SeriesRef& ref = refs[sample.series];
    if (path == WritePath::kRefs && db.live(ref)) {
      accepted += db.write(ref, sample.time, sample.value) ? 1 : 0;
      continue;
    }
    const auto written = db.write("sgx/epc", stream.tags[sample.series],
                                  sample.time, sample.value);
    if (!written.has_value()) continue;
    ref = *written;
    ++accepted;
  }
  r.wall_ms = (now_us() - start) / 1e3;
  if (accepted != r.samples) std::cerr << "warning: ingest dropped samples\n";
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
    r.rows = result.rows.size();
    r.digest = digest(result);
  }
  std::sort(wall.begin(), wall.end());
  r.wall_us = wall[wall.size() / 2];
  return r;
}

/// One group of the read-out, copied out as the scheduler copies it.
struct GroupCopy {
  std::string pod;
  std::string node;
  TimePoint time;
  double value = 0.0;
};

std::string tag_value(const Tags& tags, const std::string& name) {
  const auto it = tags.find(name);
  return it == tags.end() ? std::string{} : it->second;
}

/// The read-out's groups as the rows execute() returns: tags pod_name and
/// nodename, field `column`, in key order.
tsdb::ql::ResultSet in_key_order(const std::vector<GroupCopy>& groups,
                                 const std::string& column) {
  tsdb::ql::ResultSet result;
  for (const GroupCopy& group : groups) {
    tsdb::ql::Row row;
    row.tags = {{"nodename", group.node}, {"pod_name", group.pod}};
    row.time = group.time;
    row.fields = {{column, group.value}};
    result.rows.push_back(std::move(row));
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const tsdb::ql::Row& a, const tsdb::ql::Row& b) {
              return tsdb::tags_key(a.tags) < tsdb::tags_key(b.tags);
            });
  return result;
}

/// Times the fold-order read-out of `text`, a statement grouped by
/// pod_name and nodename, with a visitor that copies each group out as
/// core::ClusterMetrics::per_pod does: the median of `runs` reads.
QueryResult run_read_out(Database& db, const std::string& name,
                         const std::string& text, TimePoint now, int runs) {
  const tsdb::ql::PreparedQuery prepared =
      tsdb::ql::PreparedQuery::prepare(text);
  const std::string pod_name = "pod_name";
  const std::string nodename = "nodename";
  QueryResult r;
  r.query = name;
  r.shards = db.shard_count();
  r.runs = runs;
  std::vector<double> wall;
  for (int i = 0; i < runs; ++i) {
    const double start = now_us();
    std::vector<GroupCopy> groups;
    prepared.for_each_group(
        db, now, [&](const Tags& tags, TimePoint time, double value) {
          groups.push_back({tag_value(tags, pod_name),
                            tag_value(tags, nodename), time, value});
        });
    wall.push_back(now_us() - start);
    r.rows = groups.size();
    r.digest =
        digest(in_key_order(groups, prepared.stmt().projection.alias));
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
    out << "    {\"path\": \"" << to_string(r.path)
        << "\", \"shards\": " << r.shards << ", \"samples\": " << r.samples
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
  const Stream stream = make_stream(config);
  const TimePoint now = at(
      static_cast<std::int64_t>(config.points_per_series - 1) *
      config.cadence_s);

  const auto inner = [](const std::string& window) {
    return "SELECT MAX(value) AS epc FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - " +
           window + " GROUP BY pod_name, nodename";
  };
  const auto listing1 = [&](const std::string& window) {
    return "SELECT SUM(epc) AS epc FROM (" + inner(window) +
           ") GROUP BY nodename";
  };
  // Smoke history is 64 * 5 s = 320 s, so its wide window is 300 s.
  struct Shape {
    std::string name;
    std::string text;
    bool read_out = false;  // through for_each_group, not execute()
  };
  const std::vector<Shape> shapes = {
      {"inner_25s", inner("25s")},
      {"inner_25s_readout", inner("25s"), true},
      {"listing1_25s", listing1("25s")},
      {"listing1_wide", listing1(config.smoke ? "300s" : "1h")}};

  std::vector<IngestResult> ingests;
  std::vector<QueryResult> queries;
  for (const std::size_t shards : kShardCounts) {
    {
      Database tag_written{shards};
      ingests.push_back(ingest(tag_written, stream, WritePath::kTags));
    }
    Database db{shards};
    ingests.push_back(ingest(db, stream, WritePath::kRefs));
    for (const Shape& shape : shapes) {
      queries.push_back(
          shape.read_out
              ? run_read_out(db, shape.name, shape.text, now,
                             config.query_runs)
              : run_query(db, shape.name, shape.text, now,
                          config.query_runs));
    }
  }

  Table ingest_table(
      {"path", "shards", "samples", "wall [ms]", "samples/s"});
  for (const IngestResult& r : ingests) {
    ingest_table.add_row({to_string(r.path), std::to_string(r.shards),
                          std::to_string(r.samples),
                          fmt_double(r.wall_ms, 1),
                          fmt_double(r.samples_per_sec(), 0)});
  }
  ingest_table.print(std::cout);

  Table query_table(
      {"query", "shards", "wall [us]", "rows", "result digest"});
  for (const QueryResult& r : queries) {
    query_table.add_row({r.query, std::to_string(r.shards),
                         fmt_double(r.wall_us, 1), std::to_string(r.rows),
                         to_hex(r.digest)});
  }
  std::cout << "\n";
  query_table.print(std::cout);

  const std::string path =
      config.smoke ? "BENCH_tsdb_smoke.json" : "BENCH_tsdb.json";
  write_json(path, config, ingests, queries);
  std::cout << "\nwrote " << path << "\n";

  if (config.smoke) {
    // Regression guard (ctest `bench` label): sharding is a data layout,
    // so every query must return the 1-shard result set on every shard
    // count; that result set must not be empty, and must be the pinned
    // one.
    for (const QueryResult& r : queries) {
      if (r.rows == 0) {
        std::cerr << "smoke guard: " << r.query << " returned no rows on "
                  << r.shards << " shards\n";
        return 1;
      }
    }
    for (const auto& [name, pinned] : kSmokeDigests) {
      const std::string one = digest_from_json(path, name, 1);
      std::cout << "smoke guard: " << name << " result digest 1-shard="
                << one << " pinned=" << pinned << "\n";
      if (one != pinned) {
        std::cerr << "smoke guard: " << name
                  << " differs from the pinned result set\n";
        return 1;
      }
    }
    for (const Shape& shape : shapes) {
      const std::string& name = shape.name;
      const std::string one = digest_from_json(path, name, 1);
      for (const std::size_t shards : kShardCounts) {
        const std::string other = digest_from_json(path, name, shards);
        std::cout << "smoke guard: " << name << " result digest " << shards
                  << "-shard=" << other << "\n";
        if (one.empty() || other.empty()) {
          std::cerr << "smoke guard: missing datapoints in " << path << "\n";
          return 1;
        }
        if (other != one) {
          std::cerr << "smoke guard: " << name << " differs between 1 and "
                    << shards << " shards\n";
          return 1;
        }
      }
    }
  }
  return 0;
}
